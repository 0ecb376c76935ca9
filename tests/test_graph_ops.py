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

    def test_shape_mismatch(self):
        a = sp.eye(4, format="csr")
        with pytest.raises(ValueError):
            go.spmm(a, ad.Tensor(np.zeros((3, 2))))


class TestSegmentSoftmax:
    def test_rows_sum_to_one(self, rng):
        support, _ = random_support(7, rng)
        e = ad.Tensor(rng.standard_normal((support.num_edges, 1)) * 10)
        alpha = go.segment_softmax(e, support).data[:, 0]
        sums = np.add.reduceat(alpha, support.indptr[:-1])
        assert_allclose(sums, 1.0, atol=1e-12)

    def test_single_entry_segment_is_one(self):
        s = go.GraphSupport(3, np.arange(4), np.arange(3))
        e = ad.Tensor([[5.0], [-2.0], [0.0]])
        assert_allclose(go.segment_softmax(e, s).data, 1.0)

    def test_gradient(self, rng):
        support, _ = random_support(5, rng)
        e = rng.standard_normal((support.num_edges, 1))
        w = rng.standard_normal((support.num_edges, 1))
        check_grad(lambda p: ad.sum_all(ad.mul(go.segment_softmax(p["e"], support),
                                               ad.constant(w))),
                   {"e": e})


class TestEdgePairSum:
    def test_values(self, rng):
        support, _ = random_support(5, rng)
        es = rng.standard_normal((5, 1))
        ed = rng.standard_normal((5, 1))
        out = go.edge_pair_sum(ad.Tensor(es), ad.Tensor(ed), support).data
        assert_allclose(out, es[support.row] + ed[support.indices])

    def test_gradient(self, rng):
        support, _ = random_support(4, rng)
        es = rng.standard_normal((4, 1))
        ed = rng.standard_normal((4, 1))
        w = rng.standard_normal((support.num_edges, 1))
        check_grad(lambda p: ad.sum_all(
            ad.mul(go.edge_pair_sum(p["es"], p["ed"], support), ad.constant(w))),
            {"es": es, "ed": ed})


class TestAttentionAggregate:
    def test_matches_sparse_matmul(self, rng):
        support, _ = random_support(6, rng)
        alpha = rng.random((support.num_edges, 1))
        z = rng.standard_normal((6, 4))
        out = go.attention_aggregate(ad.Tensor(alpha), ad.Tensor(z), support).data
        dense = np.zeros((6, 6))
        dense[support.row, support.indices] = alpha[:, 0]
        assert_allclose(out, dense @ z, atol=1e-13)

    def test_gradient(self, rng):
        support, _ = random_support(4, rng)
        alpha = rng.random((support.num_edges, 1)) + 0.1
        z = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        check_grad(lambda p: ad.sum_all(
            ad.mul(go.attention_aggregate(p["alpha"], p["z"], support),
                   ad.constant(w))),
            {"alpha": alpha, "z": z})

    def test_memory_below_one_edge_buffer(self, rng):
        # about 17 edges per node: an (E, d) array is 8.3 MiB, and forward
        # plus backward must never hold one
        n, d = 2000, 32
        adj = sp.random(n, n, density=0.008, random_state=1, format="csr")
        support = go.GraphSupport.from_sparse(adj)
        edge_buffer = support.num_edges * d * 8
        assert edge_buffer >= 8 * 2 ** 20
        alpha = ad.Tensor(rng.random((support.num_edges, 1)),
                          requires_grad=True)
        z = ad.Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w = ad.constant(rng.standard_normal((n, d)))
        ad.reset_tape()
        tracemalloc.start()
        try:
            ad.backward(ad.sum_all(ad.mul(
                go.attention_aggregate(alpha, z, support), w)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha.grad is not None and z.grad is not None
        assert peak < edge_buffer


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
        support, _ = random_support(n, rng)
        z = rng.standard_normal((n, d))
        params = {
            "z": z,
            "w": rng.standard_normal((d, d)) * 0.4,
            "a_src": rng.standard_normal((d, 1)) * 0.4,
            "a_dst": rng.standard_normal((d, 1)) * 0.4,
        }
        target = rng.standard_normal((n, d))
        check_grad(lambda p: ad.sum_all(ad.mul(
            go.gat_layer(p["z"], p["w"], p["a_src"], p["a_dst"], support),
            ad.constant(target))),
            params, tol=5e-6)
