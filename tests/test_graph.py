"""Graph model, formats, statistics, generator, splits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import graph as gr
import oracles


def path_graph(n, num_features=3, labels=None):
    edges = [(i, i + 1) for i in range(n - 1)]
    x = np.arange(n * num_features, dtype=float).reshape(n, num_features)
    return gr.make_graph(edges, x, labels)


class TestCanonicalization:
    def test_sorts_dedupes_and_drops_self_loops(self):
        edges, loops, dups = gr.canonicalize_edges(
            [(1, 0), (0, 1), (3, 3), (2, 1)], 4)
        assert loops == 1
        assert dups == 1
        assert_allclose(edges, [[0, 1], [1, 2]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            gr.canonicalize_edges([(0, 5)], 4)

    def test_empty(self):
        edges, loops, dups = gr.canonicalize_edges(np.empty((0, 2)), 3)
        assert edges.shape == (0, 2)
        assert loops == dups == 0


class TestGraph:
    def test_adjacency_symmetric_no_diagonal(self):
        g = path_graph(4)
        a = g.adjacency.toarray()
        assert_allclose(a, a.T)
        assert_allclose(np.diag(a), 0.0)
        assert g.num_edges == 3
        assert_allclose(g.degrees(), [1, 2, 2, 1])

    def test_make_graph_cleans_input(self):
        g = gr.make_graph([(1, 0), (0, 1), (2, 2)], np.zeros((3, 2)))
        assert g.num_edges == 1

    def test_feature_row_count_enforced(self):
        with pytest.raises(ValueError):
            gr.Graph(n=3, edges=np.empty((0, 2), dtype=np.int64),
                     x=np.zeros((2, 2)))

    def test_label_length_enforced(self):
        with pytest.raises(ValueError):
            gr.make_graph([(0, 1)], np.zeros((2, 2)), labels=[0, 1, 1])


class TestFiles:
    def test_round_trip(self, tmp_path, rng):
        g = gr.make_graph([(0, 1), (1, 2), (0, 3)],
                          rng.standard_normal((4, 5)), labels=[0, 1, 1, 0])
        gr.save_graph(g, tmp_path / "e.txt", tmp_path / "x.txt",
                      tmp_path / "y.txt")
        back = gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt",
                             tmp_path / "y.txt")
        assert back.n == g.n
        assert_allclose(back.edges, g.edges)
        assert_allclose(back.x, g.x)
        assert_allclose(back.labels, g.labels)

    def test_single_edge_file(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.txt").write_text("1.0,2.0\n3.0,4.0\n")
        g = gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")
        assert g.n == 2
        assert g.num_edges == 1

    def test_comments_and_self_loop_warning(self, tmp_path, caplog):
        (tmp_path / "e.txt").write_text("# comment\n0 1\n3 3\n")
        (tmp_path / "x.txt").write_text("\n".join("0.0,0.0" for _ in range(4)))
        with caplog.at_level("WARNING"):
            g = gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")
        assert g.num_edges == 1
        assert "1 self-loops" in caplog.text

    def test_ragged_features_report_line(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.txt").write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=r"x\.txt:2"):
            gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "x.txt").write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(ValueError, match=r"x\.txt:2: non-finite"):
            gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")

    def test_node_id_beyond_features_reports_line(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n2 7\n")
        (tmp_path / "x.txt").write_text("\n".join("0.0" for _ in range(5)))
        with pytest.raises(ValueError, match=r"e\.txt:2"):
            gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")

    def test_unparsable_edge_reports_line(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\nx y\n")
        (tmp_path / "x.txt").write_text("0.0\n0.0\n")
        with pytest.raises(ValueError, match=r"e\.txt:2"):
            gr.load_graph(tmp_path / "e.txt", tmp_path / "x.txt")


class TestNormalizedAdjacency:
    def test_single_edge(self):
        g = gr.make_graph([(0, 1)], np.zeros((2, 2)))
        a = gr.normalized_adjacency(g).toarray()
        assert_allclose(a, [[0, 1], [1, 0]])

    def test_triangle(self):
        g = gr.make_graph([(0, 1), (1, 2), (0, 2)], np.zeros((3, 2)))
        a = gr.normalized_adjacency(g).toarray()
        expect = (np.ones((3, 3)) - np.eye(3)) / 2
        assert_allclose(a, expect)

    def test_isolated_node_zero_row(self):
        g = gr.make_graph([(0, 1)], np.zeros((3, 2)))
        a = gr.normalized_adjacency(g).toarray()
        assert_allclose(a[2], 0.0)
        assert_allclose(a[:, 2], 0.0)

    def test_spectral_bound(self, rng):
        # eigenvalues of the symmetric normalization lie in [-1, 1]
        for _ in range(5):
            n = 8
            mask = np.triu(rng.random((n, n)) < 0.4, 1)
            edges = np.argwhere(mask)
            g = gr.make_graph(edges, np.zeros((n, 2)))
            a = gr.normalized_adjacency(g).toarray()
            eig = np.linalg.eigvalsh(a)
            assert eig.min() >= -1.0 - 1e-10
            assert eig.max() <= 1.0 + 1e-10


class TestHomophily:
    def test_same_label_pair(self):
        g = gr.make_graph([(0, 1)], np.zeros((2, 2)), labels=[1, 1])
        assert gr.homophily(g) == 1.0

    def test_triangle_two_classes(self):
        g = gr.make_graph([(0, 1), (1, 2), (0, 2)], np.zeros((3, 2)),
                          labels=[0, 0, 1])
        assert gr.homophily(g) == pytest.approx(1 / 3)

    def test_relabel_invariance(self, rng):
        mask = np.triu(rng.random((10, 10)) < 0.4, 1)
        edges = np.argwhere(mask)
        labels = rng.integers(0, 3, size=10)
        g1 = gr.make_graph(edges, np.zeros((10, 2)), labels=labels)
        perm = np.array([2, 0, 1])
        g2 = gr.make_graph(edges, np.zeros((10, 2)), labels=perm[labels])
        assert gr.homophily(g1) == pytest.approx(gr.homophily(g2))

    def test_isolated_nodes_excluded(self):
        g = gr.make_graph([(0, 1)], np.zeros((3, 2)), labels=[0, 1, 0])
        assert gr.homophily(g) == 0.0

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            gr.homophily(path_graph(3))


class TestInducedSubgraph:
    def test_full_set_is_dense_copy(self):
        g = path_graph(4)
        a = oracles.induced_subgraph(g.adjacency, [0, 1, 2, 3])
        assert_allclose(a, g.adjacency.toarray())

    def test_single_node_zero(self):
        g = path_graph(3)
        assert_allclose(oracles.induced_subgraph(g.adjacency, [1]), [[0.0]])

    def test_path_endpoints_disconnected(self):
        g = path_graph(3)
        assert_allclose(oracles.induced_subgraph(g.adjacency, [0, 2]),
                        np.zeros((2, 2)))

    def test_duplicates_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            oracles.induced_subgraph(g.adjacency, [0, 0])

    def test_preserves_symmetry(self, rng):
        mask = np.triu(rng.random((8, 8)) < 0.5, 1)
        g = gr.make_graph(np.argwhere(mask), np.zeros((8, 2)))
        a = oracles.induced_subgraph(g.adjacency, [5, 1, 6])
        assert_allclose(a, a.T)


class TestCentralities:
    def test_pagerank_is_distribution(self, rng):
        mask = np.triu(rng.random((12, 12)) < 0.3, 1)
        g = gr.make_graph(np.argwhere(mask), np.zeros((12, 2)))
        r = gr.pagerank(g)
        assert r.sum() == pytest.approx(1.0, abs=1e-9)
        assert (r > 0).all()

    def test_eigenscore_matches_dense_eigensolve(self, rng):
        mask = np.triu(rng.random((9, 9)) < 0.5, 1)
        g = gr.make_graph(np.argwhere(mask), np.zeros((9, 2)))
        got = gr.eigenscore(g)
        vals, vecs = np.linalg.eigh(g.adjacency.toarray())
        lead = np.abs(vecs[:, np.argmax(vals)])
        assert_allclose(got, lead, atol=1e-6)

    def test_structural_score_variants(self):
        g = path_graph(4)
        deg = np.array([1.0, 2.0, 2.0, 1.0])
        assert_allclose(gr.structural_scores(g, "raw"), deg)
        assert_allclose(gr.structural_scores(g, "normalized-1"), deg / 3)
        assert_allclose(gr.structural_scores(g, "normalized-2"), deg / 6)
        assert_allclose(gr.structural_scores(g, "none"), 0.0)
        assert gr.structural_scores(g, "pagerank").shape == (4,)
        assert gr.structural_scores(g, "eigenscore").shape == (4,)
        with pytest.raises(ValueError):
            gr.structural_scores(g, "betweenness")


class TestCsbm:
    def test_deterministic(self):
        p = gr.CsbmParams(n=100, feature_dim=8, p=0.1, q=0.02, seed=4)
        g1 = gr.generate_csbm(p)
        g2 = gr.generate_csbm(p)
        assert_allclose(g1.edges, g2.edges)
        assert_allclose(g1.x, g2.x)

    def test_no_cross_edges_means_homophily_one(self):
        g = gr.generate_csbm(gr.CsbmParams(n=80, feature_dim=4, p=0.2, q=0.0,
                                           seed=1))
        assert gr.homophily(g) == 1.0

    def test_equal_rates_homophily_near_class_balance(self):
        values = []
        for seed in range(20):
            g = gr.generate_csbm(gr.CsbmParams(n=200, feature_dim=4, p=0.05,
                                               q=0.05, seed=seed))
            values.append(gr.homophily(g))
        assert abs(np.mean(values) - 0.5) < 0.03

    def test_edge_count_within_three_sigma(self):
        # binomial oracle, independent of the generator internals:
        # within-block pairs 2*C(500,2) at p, cross pairs 500^2 at q
        n, p, q = 1000, 0.01, 0.001
        within_pairs = 2 * (500 * 499 // 2)
        cross_pairs = 500 * 500
        expected = within_pairs * p + cross_pairs * q
        sigma = np.sqrt(within_pairs * p * (1 - p) + cross_pairs * q * (1 - q))
        assert expected == pytest.approx(2745.0)
        g = gr.generate_csbm(gr.CsbmParams(n=n, feature_dim=4, p=p, q=q,
                                           seed=11))
        assert abs(g.num_edges - expected) <= 3 * sigma

    def test_feature_spikes(self):
        g = gr.generate_csbm(gr.CsbmParams(n=4000, feature_dim=6, p=0.01,
                                           q=0.001, mu_sig=2.0, seed=2))
        class0 = g.x[g.labels == 0]
        class1 = g.x[g.labels == 1]
        assert class0[:, 0].mean() == pytest.approx(2.0, abs=0.15)
        assert class0[:, 1].mean() == pytest.approx(0.0, abs=0.15)
        assert class1[:, 1].mean() == pytest.approx(2.0, abs=0.15)

    def test_balanced_labels(self):
        g = gr.generate_csbm(gr.CsbmParams(n=101, feature_dim=4, p=0.1, q=0.1))
        assert (g.labels == 0).sum() == 51
        assert (g.labels == 1).sum() == 50

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gr.CsbmParams(n=10, feature_dim=4, p=1.5, q=0.1)

    def test_scales_to_large_n(self):
        g = gr.generate_csbm(gr.CsbmParams(n=10_000, feature_dim=4,
                                           p=10 / 10_000, q=2 / 10_000, seed=0))
        assert g.n == 10_000
        assert g.num_edges > 0


class TestSplits:
    def make_labeled(self, n=200, classes=3, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, size=n)
        return gr.make_graph([(0, 1)], rng.standard_normal((n, 4)), labels)

    def test_planetoid_sizes(self):
        g = self.make_labeled()
        s = gr.make_splits(g, "planetoid", seed=0)
        assert s.train_mask.sum() == 60
        assert (s.train_mask & s.test_mask).sum() == 0
        assert_allclose(s.train_mask | s.val_mask, s.dev_mask)
        assert_allclose(s.dev_mask | s.test_mask, np.ones(g.n, dtype=bool))
        for c in range(3):
            assert (g.labels[s.train_mask] == c).sum() == 20

    def test_fractional_sizes(self):
        g = self.make_labeled()
        s = gr.make_splits(g, "fractional", seed=0)
        dev = int(s.dev_mask.sum())
        assert s.train_mask.sum() == round(0.6 * dev)
        assert s.val_mask.sum() == dev - round(0.6 * dev)

    def test_test_mask_fixed_across_seeds(self):
        g = self.make_labeled()
        s1 = gr.make_splits(g, "fractional", seed=1)
        s2 = gr.make_splits(g, "fractional", seed=2)
        assert np.array_equal(s1.test_mask, s2.test_mask)
        assert not np.array_equal(s1.train_mask, s2.train_mask)

    def test_same_seed_identical(self):
        g = self.make_labeled()
        s1 = gr.make_splits(g, "planetoid", seed=5)
        s2 = gr.make_splits(g, "planetoid", seed=5)
        assert np.array_equal(s1.train_mask, s2.train_mask)

    def test_small_class_rejected(self):
        rng = np.random.default_rng(0)
        labels = np.zeros(100, dtype=int)
        labels[:5] = 1  # class 1 cannot supply 20 dev nodes
        g = gr.make_graph([(0, 1)], rng.standard_normal((100, 4)), labels)
        with pytest.raises(ValueError, match="class 1"):
            gr.make_splits(g, "planetoid", seed=0)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            gr.make_splits(path_graph(5), "planetoid", seed=0)

    def test_unknown_mode(self):
        g = self.make_labeled()
        with pytest.raises(ValueError):
            gr.make_splits(g, "random", seed=0)
