import math
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_grad
from fgwcl import autodiff as ad
from fgwcl import ot
from fgwcl.graph import make_graph
from fgwcl.losses import (LossBreakdown, batch_indices, loss_fusion,
                          loss_node, loss_node_v2, loss_ot,
                          ot_loss_from_distances, rowwise_cosine,
                          solve_batch_plans, total_loss)
from fgwcl.model import Model, prepare_graph
from fgwcl.ot import FgwConfig
from fgwcl.sampling import sample_contrast_batch

# log sig(1) + 2 log(1 - sig(1)), the all-zero-distance bracket with M=2
ZERO_DIST_TERM = 2.9397850625546685


def np_node_loss(h, hh, tau):
    def unit(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.where(n < 1e-12, 1.0, n)

    a, b = unit(h), unit(hh)
    cross, intra_a, intra_b = a @ b.T, a @ a.T, b @ b.T

    def direction(c, i):
        e_c, e_i = np.exp(c / tau), np.exp(i / tau)
        pos = np.diag(e_c)
        denom = e_c.sum(axis=1) + e_i.sum(axis=1) - np.diag(e_i)
        return np.log(pos / denom).sum()

    n = h.shape[0]
    return -(direction(cross, intra_a)
             + direction(cross.T, intra_b)) / (2 * n)


def shared_matrix_reference(h, h_hat, tau):
    """The node loss spelled out with taped (S, S) matrices: the cross
    matrix's row sums serve h -> h_hat and its column sums h_hat -> h."""
    return shared_matrix_views(ad.l2_normalize_rows(h),
                               ad.l2_normalize_rows(h_hat), tau)


def shared_matrix_views(z, z_hat, tau):
    """shared_matrix_reference on views taken as already normalized, the
    taped counterpart of ad.info_nce."""
    n = z.shape[0]
    inv_tau = ad.constant(1.0 / tau)
    eye = ad.constant(np.eye(n))
    zs, zs_hat = ad.mul(z, inv_tau), ad.mul(z_hat, inv_tau)
    cross = ad.exp(ad.matmul(zs, ad.transpose(z_hat)))
    intra = ad.exp(ad.matmul(zs, ad.transpose(z)))
    intra_hat = ad.exp(ad.matmul(zs_hat, ad.transpose(z_hat)))

    def log_denominator(cross_sums, e_intra):
        diagonal = ad.sum_rows(ad.mul(e_intra, eye))
        return ad.log(ad.add(cross_sums, ad.sub(ad.sum_rows(e_intra),
                                                diagonal)))

    log_pos = ad.sum_rows(ad.mul(zs, z_hat))
    both = ad.sub(ad.mul(log_pos, ad.constant(2.0)),
                  ad.add(log_denominator(ad.sum_rows(cross), intra),
                         log_denominator(ad.sum_rows(ad.transpose(cross)),
                                         intra_hat)))
    return ad.mul(ad.constant(-1.0 / (2 * n)), ad.sum_all(both))


def square_outputs(tape):
    """Shapes of tape outputs that are (S, S) with S > 1."""
    return [op.output.shape for op in tape.ops
            if op.output.shape[0] == op.output.shape[1] > 1]


def info_nce_rows(tape):
    """Row count of both inputs of the tape's one info_nce op."""
    (op,) = [op for op in tape.ops if op.kind == "info_nce"]
    (rows,) = {t.shape[0] for t in op.inputs}
    return rows


def node_loss_and_grads(loss_fn, h0, hh0, tau):
    ad.reset_tape()
    h = ad.Tensor(h0, requires_grad=True)
    hh = ad.Tensor(hh0, requires_grad=True)
    loss = loss_fn(h, hh, tau)
    ad.backward(loss)
    return loss.item, h.grad, hh.grad


def small_setup(rng, n=20, num_features=4, out=5, p=0.3):
    a = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]]
    g = make_graph(edges, rng.standard_normal((n, num_features)))
    gt = prepare_graph(g)
    model = Model(num_features, hidden_dim=6, out_dim=out, seed=1)
    return g, gt, model


class TestOtLossFormula:
    def setup_method(self):
        ad.reset_tape()

    def _dists(self, rows):
        """(S, M+1) distances: each row a positive, then its negatives."""
        return ad.constant(np.array(rows, dtype=np.float64))

    def test_all_zero_distances_constant(self):
        for s in (1, 3, 7):
            val = ot_loss_from_distances(self._dists(np.zeros((s, 3))),
                                         tau=1.0)
            assert_allclose(val.item, ZERO_DIST_TERM / 3.0, rtol=1e-12)

    def test_infinite_positive_distance_gives_log_half(self):
        val = ot_loss_from_distances(self._dists([[1e6]]), tau=1.0)
        assert_allclose(val.item, -np.log(0.5), rtol=1e-12)

    def test_decreasing_positive_distance_decreases_loss(self):
        values = [ot_loss_from_distances(self._dists([[d, 0.3, 0.7]]),
                                         1.0).item
                  for d in (2.0, 1.0, 0.5, 0.1)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_negative_distance_decreases_loss(self):
        values = [ot_loss_from_distances(self._dists([[0.5, d, d]]),
                                         1.0).item for d in (0.1, 0.5, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_manual_two_anchor_value(self):
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        d = {"p1": 0.2, "p2": 1.1, "n11": 0.4, "n12": 2.0, "n21": 0.9,
             "n22": 0.05}
        tau = 0.7
        want = -(np.log(sig(np.exp(-d["p1"] / tau)))
                 + np.log(1 - sig(np.exp(-d["n11"] / tau)))
                 + np.log(1 - sig(np.exp(-d["n12"] / tau)))
                 + np.log(sig(np.exp(-d["p2"] / tau)))
                 + np.log(1 - sig(np.exp(-d["n21"] / tau)))
                 + np.log(1 - sig(np.exp(-d["n22"] / tau)))) / 6.0
        got = ot_loss_from_distances(
            self._dists([[d["p1"], d["n11"], d["n12"]],
                         [d["p2"], d["n21"], d["n22"]]]), tau)
        assert_allclose(got.item, want, rtol=1e-12)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError, match="at least one anchor"):
            ot_loss_from_distances(self._dists(np.zeros((0, 3))), 1.0)
        with pytest.raises(ValueError, match="at least one anchor"):
            ot_loss_from_distances(self._dists(np.zeros((2, 0))), 1.0)


class TestOtLossBatch:
    def setup_method(self):
        ad.reset_tape()

    def test_gradient_reaches_encoder(self, rng):
        g, gt, model = small_setup(rng)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                         num_anchors=3, num_negatives=2,
                                         seed=0)
        cfg = FgwConfig(alpha=0.5, beta=5.0, max_iters=20, tol=1e-8)
        val = loss_ot(batch, cfg)
        assert np.isfinite(val.item)
        ad.backward(val)
        for name in ("enc_w1", "enc_w2", "gat_w", "fuse_wf"):
            grad = model.params[name].grad
            assert grad is not None and np.any(grad != 0.0), name

    def test_skips_below_two_anchors(self, rng, caplog):
        g, gt, model = small_setup(rng)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                         num_anchors=1, num_negatives=2,
                                         seed=0)
        assert batch is None
        assert loss_ot(batch, FgwConfig(alpha=0.5)) is None

    def test_tape_op_count_does_not_grow_with_anchors(self, rng):
        g, gt, model = small_setup(rng, n=30)
        cfg = FgwConfig(alpha=0.3, beta=5.0, max_iters=15, tol=1e-8)
        counts = []
        for anchors in (3, 6):
            ad.reset_tape()
            out = model.forward(gt)
            batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                             num_anchors=anchors,
                                             num_negatives=2, seed=3)
            assert batch.anchors.size == anchors
            before = len(ad.active_tape())
            loss_ot(batch, cfg)
            counts.append(len(ad.active_tape()) - before)
        assert counts[0] == counts[1]

    def test_presolved_plans_reproduce_the_loss(self, rng):
        g, gt, model = small_setup(rng)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                         num_anchors=3, num_negatives=2,
                                         seed=5)
        cfg = FgwConfig(alpha=0.4, beta=5.0, max_iters=20, tol=1e-8)
        plans = solve_batch_plans(batch, cfg)
        assert len(plans) == 3 * (1 + 2)
        fixed = loss_ot(batch, cfg, plans=plans).item
        solved = loss_ot(batch, cfg).item
        assert_allclose(fixed, solved, rtol=1e-12)

    def test_plan_count_mismatch_rejected(self, rng):
        g, gt, model = small_setup(rng)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                         num_anchors=3, num_negatives=2,
                                         seed=5)
        cfg = FgwConfig(alpha=0.4, beta=5.0, max_iters=20, tol=1e-8)
        plans = solve_batch_plans(batch, cfg)
        with pytest.raises(ValueError, match="plans"):
            loss_ot(batch, cfg, plans=replace(plans, P=plans.P[:-1]))

    def test_feature_cost_overflow_names_the_solve(self, rng):
        # h_hat = -h makes every positive pair's H1 H2^T very negative, so
        # exp(-H1 H2^T / tau) overflows in the stacked feature costs
        g, gt, model = small_setup(rng)
        x = 100.0 * np.ones((g.n, 5))
        batch, _ = sample_contrast_batch(g, ad.constant(x), ad.constant(-x),
                                         k=4, num_anchors=3, num_negatives=2,
                                         seed=5)
        cfg = FgwConfig(alpha=0.5, beta=5.0, max_iters=5)
        with pytest.raises(ArithmeticError,
                           match=r"^solve_batch_plans: exp: non-finite"):
            solve_batch_plans(batch, cfg)

    def test_pair_distance_self_under_identity_views(self, rng):
        # identical views: the distance is small once the solver settles
        g, gt, model = small_setup(rng, n=12)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h, k=4,
                                         num_anchors=2, num_negatives=2,
                                         seed=1)
        cfg = FgwConfig(alpha=1.0, beta=5.0, max_iters=2000, tol=1e-10)
        view = batch.originals[0]
        costs = ot.build_cost_matrices(view.a_slice, view.a_slice,
                                       view.h_slice, view.h_slice, cfg.tau)
        plan = ot.bapg_fgwd(costs, view.mu, view.mu, cfg)
        d = ot.fgw_objective(costs, plan.P, cfg.alpha)
        # M = exp(-H H^T) has strictly positive entries; the self
        # distance is bounded by the best diagonal coupling value
        h = view.h_slice.data
        diag_cost = np.exp(-np.sum(h * h, axis=1)).mean()
        # approximate convergence can land a hair above the bound
        assert 0.0 < d.item <= diag_cost * (1.0 + 1e-3)


class TestNodeLoss:
    def setup_method(self):
        ad.reset_tape()

    def test_single_node_identical_views_zero(self):
        h = ad.constant([[0.3, 0.4, 1.2]])
        assert_allclose(loss_node(h, ad.constant(h.data.copy()), 0.5).item,
                        0.0, atol=1e-12)

    def test_two_node_closed_form(self):
        h = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        hh = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        want = np.log1p(2.0 * np.exp(-1.0))
        assert_allclose(loss_node(h, hh, 1.0).item, want, rtol=1e-12)

    def test_matches_numpy_oracle(self, rng):
        for tau in (0.4, 1.0, 2.5):
            h = rng.standard_normal((9, 6))
            hh = rng.standard_normal((9, 6))
            got = loss_node(ad.constant(h), ad.constant(hh), tau).item
            assert_allclose(got, np_node_loss(h, hh, tau), rtol=1e-10)

    def test_swapping_views_keeps_value(self, rng):
        h = ad.constant(rng.standard_normal((7, 5)))
        hh = ad.constant(rng.standard_normal((7, 5)))
        assert_allclose(loss_node(h, hh, 0.8).item,
                        loss_node(hh, h, 0.8).item, rtol=1e-12)

    def test_three_square_similarity_buffers(self, rng):
        # one normalization per view feeds one fused op, and no (S, S)
        # matrix reaches the tape
        h = ad.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        tape = ad.reset_tape()
        loss_node(h, hh, 0.7)
        assert info_nce_rows(tape) == 9
        normalized = [op.inputs[0] for op in tape.ops
                      if op.kind == "l2_normalize_rows"]
        assert len(normalized) == 2
        assert normalized[0] is h and normalized[1] is hh
        assert square_outputs(tape) == []

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="differ"):
            loss_node(ad.constant(rng.standard_normal((4, 3))),
                      ad.constant(rng.standard_normal((5, 3))), 1.0)


BLOCK = 16  # rows per block of the fused node loss in the tests below


def use_block_rows(monkeypatch, s, d):
    """Patch the block-size constant so that (s, d) views split into
    BLOCK-row blocks (one block when s <= BLOCK)."""
    monkeypatch.setattr(ad, "NCE_BLOCK_ENTRIES_PER_DIM",
                        Fraction(BLOCK * s, d))
    assert ad.nce_block_rows(s, d) == min(BLOCK, s)


def assert_matches_reference(h, hh, tau):
    want, *want_grads = node_loss_and_grads(shared_matrix_reference, h, hh,
                                            tau)
    got, *got_grads = node_loss_and_grads(loss_node, h, hh, tau)
    assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for g, w in zip(got_grads, want_grads):
        assert_allclose(g, w, rtol=0.0,
                        atol=1e-12 * max(1.0, np.abs(w).max()))


class TestFusedNodeLoss:
    @pytest.mark.parametrize("tau", [0.4, 1.0, 2.0])
    @pytest.mark.parametrize("d", [3, 128])
    @pytest.mark.parametrize("s", [1, 5, BLOCK - 1, BLOCK, 2 * BLOCK + 7,
                                   BLOCK + 1, 3 * BLOCK])
    def test_matches_shared_matrix_reference(self, s, d, tau, rng,
                                             monkeypatch):
        # BLOCK-row blocks: one short block, one exact block, two full
        # blocks plus a remainder, a last block of one row (a 1x1 triangle
        # tile), and an exact multiple of blocks
        use_block_rows(monkeypatch, s, d)
        assert_matches_reference(rng.standard_normal((s, d)),
                                 rng.standard_normal((s, d)), tau)

    def test_zero_row_matches_reference(self, rng, monkeypatch):
        # a row below NORM_EPS normalizes to zero: all its similarities are 1
        s = 2 * BLOCK + 7
        use_block_rows(monkeypatch, s, 3)
        h, hh = rng.standard_normal((s, 3)), rng.standard_normal((s, 3))
        h[BLOCK] = 0.0
        hh[3] = 0.0
        assert_matches_reference(h, hh, 1.0)

    def test_module_block_size_matches_reference(self, rng):
        # 1100 rows at d = 8: blocks of 2**13 * 8 // 1100 = 59 rows,
        # eighteen full ones and a last one of 38
        assert_matches_reference(rng.standard_normal((1100, 8)),
                                 rng.standard_normal((1100, 8)), 0.5)

    def test_module_block_size_wide_matches_reference(self, rng):
        # 1100 rows at d = 128: blocks of 2**18 // 1100 = 238 rows, four
        # full ones and a last one of 148
        assert ad.nce_block_rows(1100, 128) == 238
        assert_matches_reference(rng.standard_normal((1100, 128)),
                                 rng.standard_normal((1100, 128)), 0.5)

    def test_exponentiates_triangle_tiles(self, rng, monkeypatch):
        # each pass exponentiates the full cross matrix and, for both
        # intra-view matrices, only the columns j >= i0 of each row block
        s = 2 * BLOCK + 7
        use_block_rows(monkeypatch, s, 3)
        counted = []
        exp_block = ad._exp_block

        def counting(*args):
            e = exp_block(*args)
            counted.append(e.size)
            return e

        monkeypatch.setattr(ad, "_exp_block", counting)
        h = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        ad.reset_tape()
        loss = loss_node(h, hh, 1.0)
        forward = sum(counted)
        counted.clear()
        ad.backward(loss)
        tiles = sum(min(BLOCK, s - i0) * (s - i0)
                    for i0 in range(0, s, BLOCK))
        assert forward == sum(counted) == s * s + 2 * tiles

    def test_overflow_raises(self, rng):
        # identical views put exp(1 / tau) = exp(1000) on the cross diagonal
        h = rng.standard_normal((6, 4))
        with pytest.raises(ArithmeticError, match=r"^info_nce: non-finite"):
            loss_node(ad.constant(h), ad.constant(h.copy()), 1e-3)

    def test_overflow_in_off_diagonal_tile_raises(self, monkeypatch):
        # orthonormal rows, except that rows 2 and 5 (block 0) each lie at
        # angle theta from row 40 (block 2): u[2, 40] and u[5, 40] are
        # finite, but their sum, which reaches r[40] only as a column sum
        # of block 0's tile, overflows; every row sum stays finite
        s, d = 3 * BLOCK, 128
        use_block_rows(monkeypatch, s, d)
        inv_tau, cos = 709.7, 0.99925
        big = math.exp(inv_tau * cos)
        mid = math.exp(inv_tau * (2 * cos * cos - 1))
        assert big + big == math.inf and big + mid + 2 * s < math.inf
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((d, d)))[0]
        h, hh = q[:s].copy(), q[s:2 * s]
        sin = math.sqrt(1 - cos * cos)
        h[2] = cos * q[40] + sin * q[2 * s]
        h[5] = cos * q[40] - sin * q[2 * s]
        with pytest.raises(ArithmeticError, match=r"^info_nce: non-finite"):
            loss_node(ad.constant(h), ad.constant(hh), 1 / inv_tau)

    def test_memory_below_one_square_buffer(self, rng):
        s = 2048
        h = ad.Tensor(rng.standard_normal((s, 8)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((s, 8)), requires_grad=True)
        ad.reset_tape()
        tracemalloc.start()
        try:
            ad.backward(loss_node(h, hh, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.grad is not None and hh.grad is not None
        assert peak < s * s * 8


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def counted_and_expanded(z0, zh0, counts, tau):
    """info_nce on distinct rows with counts, and the taped (S, S) chain
    on the rows repeated that many times, from the same two leaves: the
    loss values and both leaves' gradients of each."""
    out = []
    for counted in (True, False):
        ad.reset_tape()
        z = ad.Tensor(z0, requires_grad=True)
        zh = ad.Tensor(zh0, requires_grad=True)
        if counted:
            loss = ad.info_nce(z, zh, tau, counts)
        else:
            rows = np.repeat(np.arange(len(counts)), counts)
            loss = shared_matrix_views(ad.gather_rows(z, rows),
                                       ad.gather_rows(zh, rows), tau)
        ad.backward(loss)
        out.append((loss.item, z.grad, zh.grad))
    return out


def assert_close_to_largest(got, want):
    assert_allclose(got, want, rtol=0.0,
                    atol=1e-12 * max(1.0, np.abs(want).max()))


class TestInfoNceCounts:
    def setup_method(self):
        ad.reset_tape()

    @pytest.mark.parametrize("tau", [0.5, 1.0])
    @pytest.mark.parametrize("d", [3, 128])
    def test_matches_expanded_rows(self, d, tau, rng, monkeypatch):
        # three BLOCK-row blocks of distinct rows, counts 1 to 3 with one
        # node repeated 6 times in the last block and count-1 rows in
        # every block
        s = 2 * BLOCK + 7
        use_block_rows(monkeypatch, s, d)
        counts = rng.integers(1, 4, s)
        counts[::5] = 1
        counts[2 * BLOCK + 3] = 6
        z0 = unit_rows(rng.standard_normal((s, d)))
        zh0 = unit_rows(rng.standard_normal((s, d)))
        (got, *got_grads), (want, *want_grads) = counted_and_expanded(
            z0, zh0, counts, tau)
        assert_allclose(got, want, rtol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_close_to_largest(g, w)

    def test_all_ones_matches_no_counts(self, rng, monkeypatch):
        s = 2 * BLOCK + 7
        use_block_rows(monkeypatch, s, 3)
        z0 = unit_rows(rng.standard_normal((s, 3)))
        zh0 = unit_rows(rng.standard_normal((s, 3)))
        (got, *got_grads), (want, *want_grads) = counted_and_expanded(
            z0, zh0, np.ones(s, dtype=np.int64), 0.7)
        assert_allclose(got, want, rtol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_close_to_largest(g, w)

    def test_single_row_repeated(self, rng):
        # one node in five slots: only its self-pairs, w - 1 = 4 per view
        z0 = unit_rows(rng.standard_normal((1, 4)))
        zh0 = unit_rows(rng.standard_normal((1, 4)))
        (got, *got_grads), (want, *want_grads) = counted_and_expanded(
            z0, zh0, np.array([5]), 1.0)
        assert_allclose(got, want, rtol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_close_to_largest(g, w)

    def test_matches_finite_differences(self, rng):
        counts = np.array([1, 3, 1, 2, 5])
        params = {"h": rng.standard_normal((5, 3)),
                  "hh": rng.standard_normal((5, 3))}

        def build(leaves):
            return loss_node(leaves["h"], leaves["hh"], 0.8, counts)

        check_grad(build, params, h=1e-5, tol=1e-6)

    @pytest.mark.parametrize("counts", [[1, 2], [1, 0, 2], [1, 0.5, 2],
                                        [1, np.inf, 2]])
    def test_bad_counts_rejected(self, rng, counts):
        z = ad.constant(unit_rows(rng.standard_normal((3, 4))))
        with pytest.raises(ValueError, match="counts"):
            ad.info_nce(z, z, 1.0, np.array(counts))


def block_groups(n, d):
    """Block counts of the two halves of info_nce on (n, d) views at the
    module's block size."""
    step = ad.nce_block_rows(n, d)
    blocks = [(i0, min(i0 + step, n)) for i0 in range(0, n, step)]
    return [len(group) for group in ad._halves(blocks, n)]


def info_nce_and_grads(z0, zh0, tau, counts=None):
    ad.reset_tape()
    z = ad.Tensor(z0, requires_grad=True)
    zh = ad.Tensor(zh0, requires_grad=True)
    loss = ad.info_nce(z, zh, tau, counts)
    ad.backward(loss)
    return loss.item, z.grad, zh.grad


class TestInfoNceThreads:
    """info_nce runs the second half of its row blocks on one worker
    thread in each pass."""

    def setup_method(self):
        ad.reset_tape()

    @pytest.mark.parametrize("d", [8, 128])
    def test_two_groups_with_counts_match_expanded_rows(self, d, rng):
        # 1100 distinct rows, the shapes of the module-block-size tests
        # above: 19 blocks at d = 8 (7 + 12) and 5 at d = 128 (2 + 3);
        # every tenth row has count 2 or 3
        s = 1100
        assert min(block_groups(s, d)) >= 2
        counts = np.ones(s, dtype=np.int64)
        counts[::10] = rng.integers(2, 4, counts[::10].size)
        z0 = unit_rows(rng.standard_normal((s, d)))
        zh0 = unit_rows(rng.standard_normal((s, d)))
        (got, *got_grads), (want, *want_grads) = counted_and_expanded(
            z0, zh0, counts, 0.5)
        assert_allclose(got, want, rtol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_close_to_largest(g, w)

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_repeated_calls_are_bit_identical(self, with_counts, rng):
        s = 1100
        assert min(block_groups(s, 8)) >= 2
        counts = rng.integers(1, 4, s) if with_counts else None
        z0 = unit_rows(rng.standard_normal((s, 8)))
        zh0 = unit_rows(rng.standard_normal((s, 8)))
        first = info_nce_and_grads(z0, zh0, 0.5, counts)
        second = info_nce_and_grads(z0, zh0, 0.5, counts)
        assert first[0] == second[0]
        for a, b in zip(first[1:], second[1:]):
            assert np.array_equal(a, b)

    def test_each_pass_runs_on_two_threads(self, rng, monkeypatch):
        s = 3 * BLOCK
        use_block_rows(monkeypatch, s, 3)
        callers = []
        exp_block = ad._exp_block

        def recording(*args):
            callers.append(threading.get_ident())
            return exp_block(*args)

        monkeypatch.setattr(ad, "_exp_block", recording)
        h = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        loss = loss_node(h, hh, 1.0)
        forward = set(callers)
        callers.clear()
        ad.backward(loss)
        main = threading.get_ident()
        assert len(forward) == len(set(callers)) == 2
        assert main in forward and main in callers

    @pytest.mark.parametrize("in_backward", [False, True])
    def test_worker_exception_reaches_caller(self, in_backward, rng,
                                             monkeypatch):
        s = 3 * BLOCK
        use_block_rows(monkeypatch, s, 3)
        exp_block = ad._exp_block

        def failing_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return exp_block(*args)

        threads = threading.active_count()
        h = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((s, 3)), requires_grad=True)
        if in_backward:
            loss = loss_node(h, hh, 1.0)
        monkeypatch.setattr(ad, "_exp_block", failing_off_main)
        with pytest.raises(RuntimeError, match="worker failed"):
            if in_backward:
                ad.backward(loss)
            else:
                loss_node(h, hh, 1.0)
        assert threading.active_count() == threads

    def test_single_block_starts_no_thread(self, rng, monkeypatch):
        assert block_groups(9, 4) == [1]

        def no_thread(*args, **kw):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        h = ad.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        ad.backward(loss_node(h, hh, 1.0))
        assert h.grad is not None and hh.grad is not None


class TestInfoNceExpBudget:
    def setup_method(self):
        ad.reset_tape()

    def test_each_pass_keeps_the_exp_budget(self, rng, monkeypatch):
        # the docstring's budget: per pass, one cross and two triangle
        # tiles per block, S^2 + sum_I 2 b (S - i0) entries in all
        s, d = 1100, 8
        assert min(block_groups(s, d)) >= 2
        step = ad.nce_block_rows(s, d)
        blocks = [(i0, min(i0 + step, s)) for i0 in range(0, s, step)]
        budget = s * s + sum(2 * (i1 - i0) * (s - i0) for i0, i1 in blocks)
        sizes = []
        exp_block = ad._exp_block

        def counting(*args):
            e = exp_block(*args)
            sizes.append(e.size)
            return e

        monkeypatch.setattr(ad, "_exp_block", counting)
        z = ad.Tensor(unit_rows(rng.standard_normal((s, d))),
                      requires_grad=True)
        zh = ad.Tensor(unit_rows(rng.standard_normal((s, d))),
                       requires_grad=True)
        loss = ad.info_nce(z, zh, 0.5, rng.integers(1, 4, s))
        forward = list(sizes)
        sizes.clear()
        ad.backward(loss)
        for calls in (forward, sizes):
            assert len(calls) == 3 * len(blocks)
            assert sum(calls) == budget


class TestNodeLossV2:
    def setup_method(self):
        ad.reset_tape()

    def test_full_union_matches_full_loss(self, rng):
        h = ad.constant(rng.standard_normal((11, 5)))
        hh = ad.constant(rng.standard_normal((11, 5)))
        full = loss_node(h, hh, 0.9).item
        v2 = loss_node_v2(h, hh, np.arange(11), 0.9).item
        assert abs(full - v2) <= 1e-12

    def test_single_node_union_zero(self, rng):
        h = ad.constant(rng.standard_normal((6, 4)))
        val = loss_node_v2(h, ad.constant(h.data.copy()), [2], 1.0)
        assert_allclose(val.item, 0.0, atol=1e-12)

    def test_empty_union_skips(self, rng):
        h = ad.constant(rng.standard_normal((6, 4)))
        assert loss_node_v2(h, h, np.empty(0, dtype=int), 1.0) is None

    def test_buffers_scale_with_union_not_graph(self, rng):
        # leaves must flow for the ops to land on the tape
        h = ad.Tensor(rng.standard_normal((50, 4)), requires_grad=True)
        hh = ad.Tensor(rng.standard_normal((50, 4)), requires_grad=True)
        union = np.array([1, 4, 9, 13, 22, 31, 40, 44])
        tape = ad.reset_tape()
        loss_node_v2(h, hh, union, 1.0)
        assert info_nce_rows(tape) == union.size
        assert square_outputs(tape) == []

    def test_duplicates_kept_as_multiset(self, rng):
        # a repeated index counts once per occurrence: the loss and its
        # gradients are those of loss_node over the five gathered rows,
        # while the op runs over the three distinct nodes
        h0, hh0 = rng.standard_normal((10, 4)), rng.standard_normal((10, 4))
        union = [3, 5, 3, 7, 5]
        want, *want_grads = node_loss_and_grads(
            lambda h, hh, tau: loss_node(ad.gather_rows(h, union),
                                         ad.gather_rows(hh, union), tau),
            h0, hh0, 1.0)
        got, *got_grads = node_loss_and_grads(
            lambda h, hh, tau: loss_node_v2(h, hh, union, tau), h0, hh0, 1.0)
        assert_allclose(got, want, rtol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_close_to_largest(g, w)
        tape = ad.reset_tape()
        loss_node_v2(ad.Tensor(h0, requires_grad=True),
                     ad.Tensor(hh0, requires_grad=True), union, 1.0)
        assert info_nce_rows(tape) == 3
        assert square_outputs(tape) == []

    def test_batch_union_collects_view_indices(self, rng):
        g, gt, model = small_setup(rng)
        out = model.forward(gt)
        batch, _ = sample_contrast_batch(g, out.h, out.h_hat, k=4,
                                         num_anchors=4, num_negatives=2,
                                         seed=2)
        got = batch_indices(batch)
        want = np.concatenate([v.indices for v in batch.originals])
        assert np.array_equal(got, want)
        assert got.size == batch.anchors.size * 4
        assert batch_indices(None).size == 0


class TestFusionLoss:
    def setup_method(self):
        ad.reset_tape()

    def test_zero_gate_leaves_alignment_term(self, rng):
        h = rng.standard_normal((8, 5))
        lam = ad.constant(np.zeros((8, 1)))
        for alpha in (0.0, 0.3, 1.0):
            val = loss_fusion(lam, ad.constant(h), ad.constant(h), alpha,
                              beta1=0.7, beta2=1.0)
            assert_allclose(val.item, 1.0 - alpha, atol=1e-12)

    def test_uniform_gate_orthogonal_channels(self):
        n, alpha, beta1 = 9, 0.25, 0.6
        h_s = np.zeros((n, 4))
        h_f = np.zeros((n, 4))
        h_s[:, 0] = 1.0
        h_f[:, 1] = 1.0
        lam = ad.constant(np.full((n, 1), 1.0 - alpha))
        val = loss_fusion(lam, ad.constant(h_s), ad.constant(h_f), alpha,
                          beta1=beta1, beta2=1.0)
        assert_allclose(val.item, beta1 * (1.0 - alpha) * np.sqrt(n),
                        rtol=1e-12)

    def test_similarity_increase_raises_loss(self):
        n = 6
        h_f = np.tile([1.0, 0.0], (n, 1))
        lam = ad.constant(np.full((n, 1), 0.5))
        vals = []
        for angle in (1.4, 0.9, 0.4, 0.0):
            h_s = np.tile([np.cos(angle), np.sin(angle)], (n, 1))
            vals.append(loss_fusion(lam, ad.constant(h_s),
                                    ad.constant(h_f), 0.5, 0.1).item)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rowwise_cosine_matches_diag(self, rng):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((7, 4))
        got = rowwise_cosine(ad.constant(a), ad.constant(b)).data.ravel()
        an = a / np.linalg.norm(a, axis=1, keepdims=True)
        bn = b / np.linalg.norm(b, axis=1, keepdims=True)
        assert_allclose(got, np.sum(an * bn, axis=1), atol=1e-12)

    def test_bad_gate_shape_rejected(self, rng):
        h = ad.constant(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="gate"):
            loss_fusion(ad.constant(np.zeros((4, 1))), h, h, 0.5, 0.1)


class TestTotalLoss:
    def setup_method(self):
        ad.reset_tape()

    def test_sums_parts(self):
        parts = [ad.constant(1.5), ad.constant(-0.25), ad.constant(2.0)]
        out = total_loss(*parts, anchors_used=5, anchors_excluded=2)
        assert_allclose(out.total.item, 3.25)
        assert out.skipped == ()
        assert out.anchors_used == 5 and out.anchors_excluded == 2

    def test_flags_skipped_parts(self):
        out = total_loss(None, ad.constant(1.0), ad.constant(0.5))
        assert out.skipped == ("ot",)
        assert_allclose(out.total.item, 1.5)
        empty = total_loss(None, None, None)
        assert empty.skipped == ("ot", "node", "fusion")
        assert_allclose(empty.total.item, 0.0)

    def test_all_zero_parts_zero_total(self):
        out = total_loss(ad.constant(0.0), ad.constant(0.0),
                         ad.constant(0.0))
        assert_allclose(out.total.item, 0.0)

    def test_total_gradient_is_sum_of_part_gradients(self, rng):
        h0 = rng.standard_normal((6, 4))
        hh0 = rng.standard_normal((6, 4))
        lam0 = rng.uniform(0.1, 0.9, (6, 1))

        def grads(which):
            ad.reset_tape()
            h = ad.Tensor(h0, requires_grad=True)
            hh = ad.Tensor(hh0, requires_grad=True)
            lam = ad.Tensor(lam0, requires_grad=True)
            node = loss_node(h, hh, 0.8)
            fusion = loss_fusion(lam, hh, h, 0.4, 0.3)
            target = {"node": node, "fusion": fusion,
                      "total": total_loss(None, node, fusion).total}[which]
            ad.backward(target)
            return [t.grad if t.grad is not None else np.zeros_like(t.data)
                    for t in (h, hh, lam)]

        for total_g, node_g, fusion_g in zip(grads("total"), grads("node"),
                                             grads("fusion")):
            assert_allclose(total_g, node_g + fusion_g, atol=1e-12)

    def test_node_plus_fusion_matches_finite_differences(self, rng):
        params = {"h": rng.standard_normal((5, 3)),
                  "hh": rng.standard_normal((5, 3)),
                  "lam": rng.uniform(0.2, 0.8, (5, 1))}

        def build(leaves):
            node = loss_node(leaves["h"], leaves["hh"], 0.9)
            fusion = loss_fusion(leaves["lam"], leaves["hh"], leaves["h"],
                                 0.5, 0.2)
            return total_loss(None, node, fusion).total

        check_grad(build, params, h=1e-5, tol=1e-6)


class TestFiniteness:
    def setup_method(self):
        ad.reset_tape()

    def test_losses_finite_over_random_trials(self, rng):
        for trial in range(100):
            ad.reset_tape()
            n = int(rng.integers(2, 9))
            h = rng.standard_normal((n, 4)) * rng.uniform(0.1, 3.0)
            hh = rng.standard_normal((n, 4)) * rng.uniform(0.1, 3.0)
            if trial % 7 == 0:
                h[0] = 0.0  # zero row exercises the normalization guard
            lam = rng.uniform(0.0, 1.0, (n, 1))
            tau = float(rng.uniform(0.2, 2.0))
            vals = [loss_node(ad.constant(h), ad.constant(hh), tau).item,
                    loss_fusion(ad.constant(lam), ad.constant(hh),
                                ad.constant(h), float(rng.uniform(0, 1)),
                                0.5).item]
            assert np.all(np.isfinite(vals))
