"""Sparse graph operations recorded on the autodiff tape.

Attention over graph neighborhoods is expressed edge-wise on a CSR
support pattern so large graphs never materialize an N x N dense
attention matrix. Edge vectors are (E, 1) tensors; each edge k connects
attending row node ``row[k]`` to neighbor ``indices[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor, make_op

LEAKY_SLOPE = 0.2  # negative slope of the attention logits


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
    mt = m.T.tocsr()
    return make_op("spmm", (z,), np.asarray(m @ z.data),
                   lambda g: (np.asarray(mt @ g),))


def edge_pair_sum(es: Tensor, ed: Tensor, support: GraphSupport) -> Tensor:
    """Per-edge sum es[row[k]] + ed[indices[k]] of two (n, 1) node scores."""
    if es.shape != (support.n, 1) or ed.shape != (support.n, 1):
        raise ValueError(f"edge_pair_sum: expected ({support.n}, 1) scores, "
                         f"got {es.shape} and {ed.shape}")
    row, col, n = support.row, support.indices, support.n
    out = es.data[row] + ed.data[col]

    def back(g):
        gs = np.zeros((n, 1))
        gd = np.zeros((n, 1))
        np.add.at(gs[:, 0], row, g[:, 0])
        np.add.at(gd[:, 0], col, g[:, 0])
        return (gs, gd)

    return make_op("edge_pair_sum", (es, ed), out, back)


def _segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(values, indptr[:-1])


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, indptr[:-1])


def segment_softmax(e: Tensor, support: GraphSupport) -> Tensor:
    """Softmax of edge scores within each attending node's segment."""
    if e.shape != (support.num_edges, 1):
        raise ValueError(f"segment_softmax: expected ({support.num_edges}, 1) "
                         f"edge scores, got {e.shape}")
    indptr = support.indptr
    counts = np.diff(indptr)
    vals = e.data[:, 0]
    shifted = vals - np.repeat(_segment_max(vals, indptr), counts)
    ex = np.exp(shifted)
    out = ex / np.repeat(_segment_sum(ex, indptr), counts)
    out = out.reshape(-1, 1)

    def back(g):
        dot = _segment_sum(g[:, 0] * out[:, 0], indptr)
        return (((g[:, 0] - np.repeat(dot, counts)) * out[:, 0]).reshape(-1, 1),)

    return make_op("segment_softmax", (e,), out, back)


def attention_aggregate(alpha: Tensor, z: Tensor,
                        support: GraphSupport) -> Tensor:
    """Weighted neighbor sum: out[i] = sum_k alpha[k] * z[indices[k]] over
    the edges k in row i's segment."""
    if alpha.shape != (support.num_edges, 1):
        raise ValueError(f"attention_aggregate: expected ({support.num_edges}, 1)"
                         f" weights, got {alpha.shape}")
    if z.shape[0] != support.n:
        raise ValueError(f"attention_aggregate: z has {z.shape[0]} rows, "
                         f"support has {support.n} nodes")
    row, col = support.row, support.indices
    weights = sp.csr_matrix((alpha.data[:, 0], support.indices, support.indptr),
                            shape=(support.n, support.n))
    zd = z.data
    out = np.asarray(weights @ zd)

    def back(g):
        d_alpha = (g[row] * zd[col]).sum(axis=1, keepdims=True)
        d_z = np.asarray(weights.T @ g)
        return (d_alpha, d_z)

    return make_op("attention_aggregate", (alpha, z), out, back)


def gat_layer(z: Tensor, w_proj: Tensor, a_src: Tensor, a_dst: Tensor,
              support: GraphSupport) -> Tensor:
    """Single-head graph attention over the support pattern, no output
    nonlinearity: out_i = sum_j softmax_j(leaky(a_src.zp_i + a_dst.zp_j)) zp_j.
    """
    zp = ad.matmul(z, w_proj)
    es = ad.matmul(zp, a_src)
    ed = ad.matmul(zp, a_dst)
    logits = ad.leaky_relu(edge_pair_sum(es, ed, support), LEAKY_SLOPE)
    alpha = segment_softmax(logits, support)
    return attention_aggregate(alpha, zp, support)
