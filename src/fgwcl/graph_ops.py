"""Sparse graph operations recorded on the autodiff tape.

Attention over graph neighborhoods is expressed edge-wise on a CSR
support pattern so large graphs never materialize an N x N dense
attention matrix. Each edge k connects attending row node ``row[k]`` to
neighbor ``indices[k]``, and a node's edges form one contiguous segment.
A whole attention layer is one tape op: its per-edge scores and weights
are plain length-E arrays inside it, and no (E, d) array is built in
either pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import Tensor, make_op, slope_select

LEAKY_SLOPE = 0.2  # negative slope of the attention logits
# edges per block of gat_layer's backward. Median of 15 timings
# of the d_alpha pass, 1 BLAS thread: 512 took 8.0-8.6 ms at (E, d) =
# (29786, 128) and 8.9 ms at (119286, 8), where one (E, d) pass took
# 22.6-30.4 and 12.1 ms; 128 and 8192 were slower at (29786, 128)
EDGE_BLOCK = 512


@dataclass(frozen=True)
class GraphSupport:
    """CSR pattern over which attention runs; every row must be non-empty."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    row: np.ndarray = field(init=False)

    def __post_init__(self):
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if indptr.shape != (self.n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("support: malformed CSR index arrays")
        counts = np.diff(indptr)
        if (counts <= 0).any():
            raise ValueError("support: empty rows are not allowed "
                             "(add self-loops before building the support)")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "row", np.repeat(np.arange(self.n), counts))

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @classmethod
    def from_sparse(cls, matrix) -> "GraphSupport":
        """Support from the nonzero pattern of a sparse matrix plus the
        diagonal, so isolated nodes still attend to themselves."""
        m = sp.csr_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"support: matrix must be square, got {m.shape}")
        pattern = m.copy()
        pattern.data = np.ones_like(pattern.data)
        pattern = sp.csr_matrix(pattern + sp.eye(m.shape[0], format="csr"))
        pattern.sort_indices()
        return cls(m.shape[0], pattern.indptr.astype(np.int64),
                   pattern.indices.astype(np.int64))


def spmm(matrix, z: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a taped dense matrix."""
    m = sp.csr_matrix(matrix)
    if m.shape[1] != z.shape[0]:
        raise ValueError(f"spmm: incompatible shapes {m.shape} and {z.shape}")
    # m.T is a CSC view that shares m's arrays, so no transpose is built;
    # its product sums each output row in a CSR transpose's order
    return make_op("spmm", (z,), np.asarray(m @ z.data),
                   lambda g: (np.asarray(m.T @ g),))


def gat_layer(z: Tensor, w_proj: Tensor, a_src: Tensor, a_dst: Tensor,
              support: GraphSupport) -> Tensor:
    """Single-head graph attention over the support pattern, no output
    nonlinearity: out_i = sum_j softmax_j(leaky(a_src.zp_i + a_dst.zp_j)) zp_j
    with zp = z w_proj, as one op."""
    n, d = support.n, w_proj.shape[1]
    if z.shape[0] != n or z.shape[1] != w_proj.shape[0]:
        raise ValueError(f"gat_layer: z {z.shape} and w_proj {w_proj.shape} "
                         f"do not fit a {n}-node support")
    if a_src.shape != (d, 1) or a_dst.shape != (d, 1):
        raise ValueError(f"gat_layer: a_src and a_dst must be ({d}, 1), got "
                         f"{a_src.shape} and {a_dst.shape}")
    zd, wd, sd, dd = z.data, w_proj.data, a_src.data, a_dst.data
    row, col, indptr = support.row, support.indices, support.indptr
    counts = np.diff(indptr)
    zp = zd @ wd
    raw = (zp @ sd)[row, 0] + (zp @ dd)[col, 0]
    pos = raw > 0
    logits = slope_select(pos, raw, LEAKY_SLOPE)
    ex = np.exp(logits - np.repeat(np.maximum.reduceat(logits, indptr[:-1]),
                                   counts))
    alpha = ex / np.repeat(np.add.reduceat(ex, indptr[:-1]), counts)
    weights = sp.csr_matrix((alpha, col, indptr), shape=(n, n))

    def back(g):
        # d_alpha[k] = g[row[k]] . zp[col[k]], one block of edges at a time,
        # so no (E, d) gather is ever held
        d_alpha = np.empty(row.size)
        for e0 in range(0, row.size, EDGE_BLOCK):
            e1 = e0 + EDGE_BLOCK
            prod = g[row[e0:e1]]
            prod *= zp[col[e0:e1]]
            d_alpha[e0:e1] = prod.sum(axis=1)
        dot = np.add.reduceat(d_alpha * alpha, indptr[:-1])
        g_logits = (d_alpha - np.repeat(dot, counts)) * alpha
        g_raw = slope_select(pos, g_logits, LEAKY_SLOPE)
        # per-node sums taken one edge at a time, in edge order
        g_es = np.bincount(row, g_raw, n).reshape(n, 1)
        g_ed = np.bincount(col, g_raw, n).reshape(n, 1)
        # zp's three terms in the order a tape of the separate steps sums
        # them, so the gradients are the same bit for bit
        d_zp = (np.asarray(weights.T @ g) + g_ed @ dd.T) + g_es @ sd.T
        return (d_zp @ wd.T, zd.T @ d_zp, zp.T @ g_es, zp.T @ g_ed)

    return make_op("gat_layer", (z, w_proj, a_src, a_dst),
                   np.asarray(weights @ zp), back)
