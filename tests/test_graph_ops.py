"""Sparse attention ops against dense oracles and finite differences."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from fgwcl import graph_ops as go
from conftest import check_grad


def random_support(n, rng, p=0.4):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, True)
    return go.GraphSupport.from_sparse(sp.csr_matrix(mask.astype(float))), mask


def dense_gat(z, w, a_src, a_dst, mask, slope=0.2):
    """Reference: full dense masked attention."""
    zp = z @ w
    es = zp @ a_src
    ed = zp @ a_dst
    raw = es + ed.T
    raw = np.where(raw > 0, raw, slope * raw)
    logits = np.where(mask, raw, -np.inf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=1, keepdims=True)
    return alpha @ zp


def where_gat(z, w, a_src, a_dst, support, g):
    """gat_layer's output and its four gradients for upstream g, with
    np.where selects and np.add.at scatters: the formulation its
    branch-free rules replace, step for step."""
    n = support.n
    row, col, indptr = support.row, support.indices, support.indptr
    counts = np.diff(indptr)
    zp = z @ w
    raw = (zp @ a_src)[row, 0] + (zp @ a_dst)[col, 0]
    pos = raw > 0
    logits = np.where(pos, raw, 0.2 * raw)
    ex = np.exp(logits - np.repeat(np.maximum.reduceat(logits, indptr[:-1]),
                                   counts))
    alpha = ex / np.repeat(np.add.reduceat(ex, indptr[:-1]), counts)
    weights = sp.csr_matrix((alpha, col, indptr), shape=(n, n))
    d_alpha = (g[row] * zp[col]).sum(axis=1)
    dot = np.add.reduceat(d_alpha * alpha, indptr[:-1])
    g_logits = (d_alpha - np.repeat(dot, counts)) * alpha
    g_raw = np.where(pos, g_logits, 0.2 * g_logits)
    g_es, g_ed = np.zeros((n, 1)), np.zeros((n, 1))
    np.add.at(g_es[:, 0], row, g_raw)
    np.add.at(g_ed[:, 0], col, g_raw)
    d_zp = (np.asarray(weights.T @ g) + g_ed @ a_dst.T) + g_es @ a_src.T
    return (np.asarray(weights @ zp),
            (d_zp @ w.T, z.T @ d_zp, zp.T @ g_es, zp.T @ g_ed))


def same_bits(got, want):
    """Equal in every bit, so -0.0 differs from 0.0."""
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


class TestSupport:
    def test_identity_support(self):
        s = go.GraphSupport(4, np.arange(5), np.arange(4))
        assert s.num_edges == 4
        assert_allclose(s.indices, np.arange(4))
        assert_allclose(s.row, np.arange(4))

    def test_self_loops_added_for_isolated_nodes(self):
        # node 2 has no edges; the self-loop must still give it a row
        a = sp.csr_matrix((np.ones(2), ([0, 1], [1, 0])), shape=(3, 3))
        s = go.GraphSupport.from_sparse(a)
        seg2 = s.indices[s.indptr[2]:s.indptr[3]]
        assert_allclose(seg2, [2])

    def test_empty_row_rejected_without_self_loops(self):
        # rows 0 and 1 hold one edge each, row 2 none
        with pytest.raises(ValueError, match="empty rows"):
            go.GraphSupport(3, np.array([0, 1, 2, 2]), np.array([1, 0]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            go.GraphSupport.from_sparse(sp.csr_matrix(np.ones((2, 3))))


class TestSpmm:
    def test_matches_dense(self, rng):
        a = sp.random(6, 6, density=0.4, random_state=1, format="csr")
        z = rng.standard_normal((6, 3))
        out = go.spmm(a, ad.Tensor(z))
        assert_allclose(out.data, a.toarray() @ z, atol=1e-14)

    def test_gradient(self, rng):
        a = sp.random(5, 5, density=0.5, random_state=2, format="csr")
        z = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 3))
        check_grad(lambda p: ad.sum_all(ad.mul(go.spmm(a, p["z"]),
                                               ad.constant(w))),
                   {"z": z})

    def test_gradient_is_the_transposes_product(self, rng):
        # backward multiplies by the CSC view m.T; a CSR copy of the
        # transpose gives the same sums in the same order
        a = sp.random(40, 40, density=0.2, random_state=3, format="csr")
        g = rng.standard_normal((40, 6))
        ad.reset_tape()
        go.spmm(a, ad.Tensor(rng.standard_normal((40, 6)),
                             requires_grad=True))
        (got,) = ad.active_tape().ops[-1].backward_rule(g)
        assert same_bits(got, np.asarray(a.T.tocsr() @ g))

    def test_shape_mismatch(self):
        a = sp.eye(4, format="csr")
        with pytest.raises(ValueError):
            go.spmm(a, ad.Tensor(np.zeros((3, 2))))


class TestGatLayer:
    def test_matches_dense_oracle(self, rng):
        n, d = 8, 5
        support, mask = random_support(n, rng)
        z = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d)) * 0.3
        a_src = rng.standard_normal((d, 1)) * 0.3
        a_dst = rng.standard_normal((d, 1)) * 0.3
        out = go.gat_layer(ad.Tensor(z), ad.Tensor(w), ad.Tensor(a_src),
                           ad.Tensor(a_dst), support)
        assert_allclose(out.data, dense_gat(z, w, a_src, a_dst, mask),
                        atol=1e-12)

    def test_identity_support_is_self_attention(self, rng):
        # softmax over a single self edge is 1, so out = z @ w exactly
        n, d = 5, 4
        z = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d))
        a_src = rng.standard_normal((d, 1))
        a_dst = rng.standard_normal((d, 1))
        support = go.GraphSupport(n, np.arange(n + 1), np.arange(n))
        out = go.gat_layer(ad.Tensor(z), ad.Tensor(w), ad.Tensor(a_src),
                           ad.Tensor(a_dst), support)
        assert_allclose(out.data, z @ w, atol=1e-12)

    def test_full_gradient(self, rng):
        n, d = 5, 3
        random, _ = random_support(n, rng)
        # node 4 attends only to itself: a one-edge segment
        lone = go.GraphSupport.from_sparse(sp.csr_matrix(
            (np.ones(6), ([0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2])),
            shape=(n, n)))
        for support in (random, lone):
            z = rng.standard_normal((n, d))
            params = {
                "z": z,
                "w": rng.standard_normal((d, d)) * 0.4,
                "a_src": rng.standard_normal((d, 1)) * 0.4,
                "a_dst": rng.standard_normal((d, 1)) * 0.4,
            }
            zp = z @ params["w"]
            raw = ((zp @ params["a_src"])[support.row]
                   + (zp @ params["a_dst"])[support.indices])
            # both branches of the leaky logits, each clear of the kink
            assert (raw > 1e-3).any() and (raw < -1e-3).any()
            assert np.abs(raw).min() > 1e-4
            target = rng.standard_normal((n, d))
            check_grad(lambda p: ad.sum_all(ad.mul(
                go.gat_layer(p["z"], p["w"], p["a_src"], p["a_dst"], support),
                ad.constant(target))),
                params, tol=5e-6)

    def test_matches_where_formulation_bit_for_bit(self, rng):
        n, d = 30, 6
        support, _ = random_support(n, rng, p=0.3)
        z = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d)) * 0.4
        a_src = rng.standard_normal((d, 1)) * 0.4
        a_dst = rng.standard_normal((d, 1)) * 0.4
        z[0] = 0.0  # node 0's self edge scores exactly 0
        g = rng.standard_normal((n, d))
        ad.reset_tape()
        leaves = [ad.Tensor(x, requires_grad=True)
                  for x in (z, w, a_src, a_dst)]
        out = go.gat_layer(*leaves, support)
        grads = ad.active_tape().ops[-1].backward_rule(g)
        want_out, want_grads = where_gat(z, w, a_src, a_dst, support, g)
        assert same_bits(out.data, want_out)
        for got, want in zip(grads, want_grads):
            assert same_bits(got, want)

    def test_memory_below_one_edge_buffer(self, rng):
        # about 17 edges per node: an (E, d) array is 8.3 MiB, and forward
        # plus backward must never hold one
        n, d = 2000, 32
        adj = sp.random(n, n, density=0.008, random_state=1, format="csr")
        support = go.GraphSupport.from_sparse(adj)
        edge_buffer = support.num_edges * d * 8
        assert edge_buffer >= 8 * 2 ** 20
        z = ad.Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((d, d)) * 0.2, requires_grad=True)
        a_src = ad.Tensor(rng.standard_normal((d, 1)) * 0.2,
                          requires_grad=True)
        a_dst = ad.Tensor(rng.standard_normal((d, 1)) * 0.2,
                          requires_grad=True)
        target = ad.constant(rng.standard_normal((n, d)))
        ad.reset_tape()
        tracemalloc.start()
        try:
            ad.backward(ad.sum_all(ad.mul(
                go.gat_layer(z, w, a_src, a_dst, support), target)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in (z, w, a_src, a_dst))
        assert peak < edge_buffer

    def test_shape_mismatch(self, rng):
        support, _ = random_support(4, rng)
        z = ad.Tensor(rng.standard_normal((4, 3)))
        w = ad.Tensor(rng.standard_normal((3, 2)))
        a = ad.Tensor(rng.standard_normal((2, 1)))
        with pytest.raises(ValueError, match="5-node support"):
            go.gat_layer(z, w, a, a,
                         go.GraphSupport(5, np.arange(6), np.arange(5)))
        with pytest.raises(ValueError, match="do not fit"):
            go.gat_layer(z, ad.Tensor(np.zeros((2, 2))), a, a, support)
        with pytest.raises(ValueError, match="must be"):
            go.gat_layer(z, w, ad.Tensor(np.zeros((3, 1))), a, support)
