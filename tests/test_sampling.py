import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import shortest_path

from fgwcl import autodiff as ad
from fgwcl.graph import make_graph
from fgwcl.sampling import (ContrastBatch, bfs_sample, default_anchor_count,
                            sample_anchors, sample_contrast_batch)
from oracles import induced_subgraph


def path_graph(n, num_features=3):
    edges = [(i, i + 1) for i in range(n - 1)]
    x = np.arange(n * num_features, dtype=float).reshape(n, num_features)
    return make_graph(edges, x)


def star_graph(leaves, num_features=3):
    edges = [(0, i) for i in range(1, leaves + 1)]
    n = leaves + 1
    x = np.ones((n, num_features))
    return make_graph(edges, x)


def random_graph(rng, n, p=0.2):
    a = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]]
    x = rng.standard_normal((n, 4))
    return make_graph(edges, x)


def hop_distances(g, anchor):
    return shortest_path(g.adjacency, method="D", unweighted=True,
                         indices=anchor)


class TestAnchors:
    def test_distinct_and_in_range(self):
        g = path_graph(50)
        anchors = sample_anchors(g, 20, seed=3)
        assert anchors.size == 20
        assert np.unique(anchors).size == 20
        assert anchors.min() >= 0 and anchors.max() < 50

    def test_deterministic(self):
        g = path_graph(40)
        a1 = sample_anchors(g, 15, seed=9)
        a2 = sample_anchors(g, 15, seed=9)
        assert np.array_equal(a1, a2)
        a3 = sample_anchors(g, 15, seed=10)
        assert not np.array_equal(a1, a3)

    def test_count_larger_than_graph_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="out of range"):
            sample_anchors(g, 6, seed=0)

    def test_default_count(self):
        assert default_anchor_count(1000) == 300
        assert default_anchor_count(100) == 50
        assert default_anchor_count(601) == 300


class TestBfsSample:
    def test_path_anchor_center(self):
        # path a-b-c-d-e, anchor c, k=5: both neighbors, then both ends
        g = path_graph(5)
        idx = bfs_sample(g, 2, 5)
        assert np.array_equal(idx, [2, 1, 3, 0, 4])

    def test_path_anchor_end_excluded(self):
        # 2-hop ball of an endpoint holds 3 nodes, cannot fill k=4
        g = path_graph(5)
        assert bfs_sample(g, 0, 4) is None

    def test_path_anchor_end_small_k(self):
        g = path_graph(5)
        idx = bfs_sample(g, 0, 3)
        assert np.array_equal(idx, [0, 1, 2])

    def test_star_center_takes_lowest_leaves(self):
        g = star_graph(9)
        idx = bfs_sample(g, 0, 5)
        assert np.array_equal(idx, [0, 1, 2, 3, 4])

    def test_star_leaf_reaches_other_leaves(self):
        g = star_graph(9)
        idx = bfs_sample(g, 3, 5)
        assert np.array_equal(idx, [3, 0, 1, 2, 4])

    def test_anchor_first_and_distinct(self, rng):
        for _ in range(20):
            g = random_graph(rng, 30)
            anchor = int(rng.integers(30))
            idx = bfs_sample(g, anchor, 6)
            if idx is None:
                continue
            assert idx[0] == anchor
            assert np.unique(idx).size == idx.size

    def test_nodes_within_two_hops(self, rng):
        for _ in range(20):
            g = random_graph(rng, 30)
            anchor = int(rng.integers(30))
            idx = bfs_sample(g, anchor, 8)
            dist = hop_distances(g, anchor)
            ball = np.sum(dist <= 2)
            if idx is None:
                assert ball < 8
            else:
                assert ball >= 8
                assert np.all(dist[idx] <= 2)

    def test_excluded_iff_ball_too_small(self, rng):
        g = random_graph(rng, 40, p=0.05)
        for anchor in range(40):
            dist = hop_distances(g, anchor)
            ball = np.sum(dist <= 2)
            idx = bfs_sample(g, anchor, 5)
            assert (idx is None) == (ball < 5)

    def test_shuffled_mode_still_valid(self, rng):
        g = star_graph(9)
        idx = bfs_sample(g, 0, 5, rng=np.random.default_rng(4))
        assert idx[0] == 0
        assert np.unique(idx).size == 5
        dist = hop_distances(g, 0)
        assert np.all(dist[idx] <= 2)

    def test_shuffled_mode_varies(self):
        g = star_graph(20)
        draws = {tuple(bfs_sample(g, 0, 5, rng=np.random.default_rng(s)))
                 for s in range(30)}
        assert len(draws) > 1

    def test_k_below_two_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="k must be >= 2"):
            bfs_sample(g, 0, 1)


def path_center_batch():
    """Path 0-1-...-5 at k=5: only anchors 2 and 3 have a full 2-hop
    ball, so the batch holds exactly those two."""
    g = path_graph(6)
    h = ad.constant(g.x)
    batch, excluded = sample_contrast_batch(g, h, h, k=5, num_anchors=6,
                                            num_negatives=2, seed=0)
    assert excluded == 4 and sorted(batch.anchors) == [2, 3]
    return g, batch


class TestBuildViews:
    """The batch's stacked views: induced adjacency slices for the
    originals, cosine similarities of the H-hat rows for the perturbed."""

    def setup_method(self):
        ad.reset_tape()

    def test_original_view_matches_adjacency(self):
        g, batch = path_center_batch()
        i = int(np.flatnonzero(batch.anchors == 2)[0])
        idx = batch.index[i]
        assert np.array_equal(idx, [2, 1, 3, 0, 4])
        # path edges become 2-1, 2-3, 1-0, 3-4
        want = np.zeros((5, 5))
        for r, c in [(0, 1), (0, 2), (1, 3), (2, 4)]:
            want[r, c] = want[c, r] = 1.0
        assert_allclose(batch.adjacency[i], want)
        orig = batch.originals[i]
        assert np.array_equal(orig.indices, idx)
        assert_allclose(orig.a_slice.data, want)
        assert_allclose(orig.h_slice.data, g.x[idx])
        assert_allclose(orig.mu, np.full(5, 0.2))

    def test_perturbed_view_cosine_with_zero_diagonal(self, rng):
        g = random_graph(rng, 12, p=0.4)
        h_hat = rng.standard_normal((12, 6))
        h = ad.constant(rng.standard_normal((12, 6)))
        batch, _ = sample_contrast_batch(g, h, ad.constant(h_hat), k=4,
                                         num_anchors=6, num_negatives=2,
                                         seed=0)
        a = batch.anchors.size
        h_rows, adj = batch.views()
        adj = adj.data.reshape(2 * a, 4, 4)
        for i, idx in enumerate(batch.index):
            rows = h_hat[idx]
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            want = unit @ unit.T
            np.fill_diagonal(want, 0.0)
            assert_allclose(adj[a + i], want, atol=1e-12)
            assert_allclose(batch.perturbed[i].a_slice.data, want,
                            atol=1e-12)
            assert_allclose(batch.perturbed[i].h_slice.data, h_hat[idx])
            assert_allclose(h_rows.data[(a + i) * 4:(a + i + 1) * 4],
                            h_hat[idx])

    def test_views_built_once_for_all_three_lists(self, rng, monkeypatch):
        g = random_graph(rng, 30)
        h = ad.constant(rng.standard_normal((30, 5)))
        h_hat = ad.constant(rng.standard_normal((30, 5)))
        batch, _ = sample_contrast_batch(g, h, h_hat, k=4, num_anchors=3,
                                         num_negatives=2, seed=1)
        a = batch.anchors.size
        h_rows, adj = (t.data.reshape(2 * a, 4, -1) for t in batch.views())
        calls = []
        views = ContrastBatch.views

        def counted(self):
            calls.append(1)
            return views(self)

        monkeypatch.setattr(ContrastBatch, "views", counted)
        originals, perturbed = batch.originals, batch.perturbed
        negatives = batch.negatives
        assert len(calls) == 1
        assert len(originals) == len(perturbed) == len(negatives) == a
        for i in range(a):
            got = [originals[i], perturbed[i]] + negatives[i]
            want = [i, a + i] + list(batch.partner_views[i, 1:])
            assert len(got) == len(want) == 4
            for view, v in zip(got, want):
                assert np.array_equal(view.indices, batch.index[v % a])
                assert np.array_equal(view.h_slice.data, h_rows[v])
                assert np.array_equal(view.a_slice.data, adj[v])
                assert_allclose(view.mu, np.full(4, 0.25))

    def test_perturbed_view_is_differentiable(self, rng):
        g = random_graph(rng, 30)
        h = ad.constant(rng.standard_normal((30, 5)))
        h_hat = ad.Tensor(rng.standard_normal((30, 5)), requires_grad=True)
        batch, _ = sample_contrast_batch(g, h, h_hat, k=4,
                                         num_anchors=3, num_negatives=2,
                                         seed=1)
        ad.backward(ad.sum_all(batch.views()[1]))
        sampled = np.unique(batch.index)
        assert h_hat.grad is not None
        assert np.any(h_hat.grad[sampled] != 0.0)
        assert np.all(h_hat.grad[np.setdiff1d(np.arange(30), sampled)]
                      == 0.0)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_stack_matches_induced_subgraph(self, rng, shuffle):
        for trial in range(5):
            g = random_graph(rng, 40, p=0.1)
            h = ad.constant(g.x)
            batch, _ = sample_contrast_batch(g, h, h, k=5, num_anchors=20,
                                             num_negatives=2, seed=trial,
                                             shuffle_frontier=shuffle)
            for anchor, idx, adj in zip(batch.anchors, batch.index,
                                        batch.adjacency):
                if not shuffle:
                    assert np.array_equal(idx, bfs_sample(g, anchor, 5))
                assert np.array_equal(adj,
                                      induced_subgraph(g.adjacency, idx))


class TestAssignNegatives:
    """Contrast partners as drawn into the batch's partner_views."""

    def setup_method(self):
        ad.reset_tape()

    def test_two_anchors_use_each_other(self):
        _, batch = path_center_batch()
        # own perturbed view, then the other anchor's original and
        # perturbed views; views 0, 1 are originals and 2, 3 perturbed
        assert np.array_equal(batch.partner_views, [[2, 1, 3], [3, 0, 2]])
        for i, negs in enumerate(batch.negatives):
            other = 1 - i
            assert np.array_equal(negs[0].a_slice.data,
                                  batch.originals[other].a_slice.data)
            assert np.array_equal(negs[1].a_slice.data,
                                  batch.perturbed[other].a_slice.data)
            assert np.array_equal(negs[1].indices, batch.index[other])

    def test_partner_never_self(self, rng):
        g = random_graph(rng, 40)
        h = ad.constant(g.x)
        batch, _ = sample_contrast_batch(g, h, h, k=4, num_anchors=40,
                                         num_negatives=2, seed=5)
        a = batch.anchors.size
        assert batch.partner_views.shape == (a, 3)
        assert np.array_equal(batch.partner_views[:, 0], a + np.arange(a))
        partner = batch.partner_views[:, 1]
        assert np.all(partner < a) and np.all(partner != np.arange(a))
        assert np.array_equal(batch.partner_views[:, 2], partner + a)

    def test_partner_frequency_uniform(self):
        g = star_graph(20)
        h = ad.constant(g.x)
        counts = np.zeros(10)
        for seed in range(1000):
            batch, _ = sample_contrast_batch(g, h, h, k=3, num_anchors=10,
                                             num_negatives=2, seed=seed)
            assert batch.anchors.size == 10
            counts[batch.partner_views[0, 1]] += 1
        # anchor 0 draws each of the 9 others ~1/9 of the time
        assert counts[0] == 0
        assert_allclose(counts[1:] / 1000.0, np.full(9, 1 / 9), atol=0.04)

    def test_resampled_across_seeds(self):
        g = star_graph(20)
        h = ad.constant(g.x)
        picks = {int(sample_contrast_batch(g, h, h, k=3, num_anchors=10,
                                           num_negatives=2, seed=s)[0]
                     .partner_views[0, 1]) for s in range(20)}
        assert len(picks) > 1

    def test_single_anchor_skips(self, caplog):
        # on the path 0-...-4 only the center fills a k=5 ball
        g = path_graph(5)
        h = ad.constant(g.x)
        with caplog.at_level(logging.WARNING):
            batch, excluded = sample_contrast_batch(
                g, h, h, k=5, num_anchors=5, num_negatives=2, seed=0)
        assert batch is None and excluded == 4
        assert "skipping the subgraph loss" in caplog.text

    def test_zero_negatives_rejected_when_loss_skipped(self):
        # fewer than 2 usable anchors still rejects a bad negative count
        g = path_graph(5)
        h = ad.constant(g.x)
        with pytest.raises(ValueError, match="at least 1 negative"):
            sample_contrast_batch(g, h, h, k=5, num_anchors=5,
                                  num_negatives=0, seed=0)


class TestContrastBatch:
    def setup_method(self):
        ad.reset_tape()

    def test_end_to_end_counts_exclusions(self, rng):
        g = random_graph(rng, 60, p=0.08)
        h = ad.constant(rng.standard_normal((60, 8)))
        batch, excluded = sample_contrast_batch(
            g, h, h, k=6, num_anchors=30, num_negatives=2, seed=11)
        assert batch.anchors.size + excluded == 30
        assert len(batch.originals) == batch.anchors.size
        for orig, pert in zip(batch.originals, batch.perturbed):
            assert orig.indices[0] == pert.indices[0]
            assert orig.indices[0] in batch.anchors

    def test_deterministic_for_seed(self, rng):
        g = random_graph(rng, 50, p=0.1)
        h = ad.constant(rng.standard_normal((50, 8)))
        b1, _ = sample_contrast_batch(g, h, h, 5, 20, 2, seed=3)
        b2, _ = sample_contrast_batch(g, h, h, 5, 20, 2, seed=3)
        assert np.array_equal(b1.anchors, b2.anchors)
        for s1, s2 in zip(b1.originals, b2.originals):
            assert np.array_equal(s1.indices, s2.indices)
