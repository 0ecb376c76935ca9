"""Anchor and subgraph sampling for the contrastive objective.

Each anchor node yields a subgraph of exactly k nodes found by
breadth-first traversal inside its 2-hop ball; anchors whose ball is too
small are excluded. A contrast batch is a set of index arrays: the node
sets, the stack of their induced adjacencies, and for each anchor the
views it is contrasted with. Every view carries the uniform distribution
over its nodes, so transport problems between views are balanced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph

log = logging.getLogger(__name__)


def default_anchor_count(n: int) -> int:
    return min(300, n // 2)


def sample_anchors(g: Graph, count: int, seed: int) -> np.ndarray:
    """Distinct anchor node ids, deterministic for a seed."""
    if not 1 <= count <= g.n:
        raise ValueError(f"anchor count {count} out of range for {g.n} nodes")
    rng = np.random.default_rng(seed)
    return rng.choice(g.n, size=count, replace=False)


def bfs_sample(g: Graph, anchor: int, k: int,
               rng: Optional[np.random.Generator] = None) -> Optional[np.ndarray]:
    """First k nodes of a depth-2 breadth-first traversal from the anchor.

    Neighbors are visited in ascending node-id order; passing ``rng``
    shuffles each frontier instead (randomized sampling mode). Returns
    None when the 2-hop ball holds fewer than k nodes.
    """
    if k < 2:
        raise ValueError(f"subgraph size k must be >= 2, got {k}")
    if not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} out of range")
    adj = g.adjacency
    indptr, indices = adj.indptr, adj.indices
    visited = {int(anchor)}
    order = [int(anchor)]
    frontier = [int(anchor)]
    for _depth in range(2):
        if len(order) >= k:
            break
        next_frontier = []
        for node in frontier:
            neigh = indices[indptr[node]:indptr[node + 1]]
            if rng is not None:
                neigh = rng.permutation(neigh)
            for nb in neigh:
                nb = int(nb)
                if nb not in visited:
                    visited.add(nb)
                    order.append(nb)
                    next_frontier.append(nb)
                    if len(order) >= k:
                        break
            if len(order) >= k:
                break
        frontier = next_frontier
    if len(order) < k:
        return None
    return np.asarray(order[:k], dtype=np.int64)


@dataclass
class MeasuredSubgraph:
    """One view as constants: node set, adjacency view, embedding rows and
    uniform mass."""

    indices: np.ndarray
    a_slice: Tensor
    h_slice: Tensor
    mu: np.ndarray


def _induced_stack(adj: sp.csr_matrix, index: np.ndarray) -> np.ndarray:
    """Dense adjacency slices A[S_i; S_i] for the rows S_i of an (A, k)
    index matrix, as an (A, k, k) stack, from one CSR row slice.

    Each stored entry of the sliced rows finds its column's position in
    its own node set by one searchsorted over the sorted node sets, each
    offset by its row number times N so that they sort as one array."""
    a, k = index.shape
    n = adj.shape[1]
    sub = adj[index.ravel()]
    rows = np.repeat(np.arange(a * k), np.diff(sub.indptr))
    block = rows // k
    order = np.argsort(index, axis=1)
    keys = (np.take_along_axis(index, order, axis=1)
            + np.arange(a)[:, None] * n).ravel()
    wanted = sub.indices + block * n
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    hit = keys[pos] == wanted
    out = np.zeros((a, k, k))
    out[block[hit], rows[hit] % k, order.ravel()[pos[hit]]] = sub.data[hit]
    return out


@dataclass(frozen=True)
class ContrastBatch:
    """Usable anchors, their node sets, and the views each one contrasts.

    The batch has 2A views: view v < A is anchor v's original subgraph
    (adjacency slice, H rows) and view A + v its perturbed one (cosine
    similarities of the H-hat rows with a zero diagonal, H-hat rows).
    Row i of `partner_views` lists the views anchor i's original is
    compared with: its own perturbed view first, then M negatives, each
    drawn partner j contributing its original and perturbed view in turn.
    """

    anchors: np.ndarray  # (A,)
    index: np.ndarray  # (A, k) node sets, anchor first
    partner_views: np.ndarray  # (A, M + 1) view ids
    adjacency: np.ndarray  # (A, k, k) induced subgraphs
    h: Tensor
    h_hat: Tensor

    def pair_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """For the (anchor, partner) pairs in loss order (row-major over
        `partner_views`), the rows of the anchor and of the partner
        blocks in the views stacked by view id."""
        a, cols = self.partner_views.shape
        k = self.index.shape[1]
        block = np.arange(k)
        first = np.repeat(np.arange(a), cols)
        return ((first[:, None] * k + block).ravel(),
                (self.partner_views.reshape(-1, 1) * k + block).ravel())

    def detached(self) -> "ContrastBatch":
        """The same batch over constant copies of h and h_hat, whose
        views record nothing on the tape."""
        return replace(self, h=ad.constant(self.h.data),
                       h_hat=ad.constant(self.h_hat.data))

    def views(self) -> tuple[Tensor, Tensor]:
        """All 2A views stacked by view id: embedding rows (2Ak, d) and
        adjacency (2Ak, k). One gather per embedding and one block cosine
        for every perturbed adjacency."""
        h, h_hat = self.h, self.h_hat
        a, k = self.index.shape
        rows = self.index.ravel()
        h_hat_rows = ad.gather_rows(h_hat, rows)
        unit = ad.l2_normalize_rows(h_hat_rows)
        off_diag = ad.constant(np.tile(1.0 - np.eye(k), (a, 1)))
        a_hat = ad.mul(ad.block_matmul_t(unit, unit, a), off_diag)
        return (ad.vstack([ad.gather_rows(h, rows), h_hat_rows]),
                ad.vstack([ad.constant(self.adjacency.reshape(-1, k)),
                           a_hat]))

    @cached_property
    def _measured(self) -> list[MeasuredSubgraph]:
        """The 2A views one by one, by view id (for inspection), built on
        first read and kept with the batch."""
        a, k = self.index.shape
        h, adj = (t.data.reshape(2 * a, k, -1)
                  for t in self.detached().views())
        mu = np.full(k, 1.0 / k)
        return [MeasuredSubgraph(self.index[v % a], ad.constant(adj[v]),
                                 ad.constant(h[v]), mu)
                for v in range(2 * a)]

    @property
    def originals(self) -> list[MeasuredSubgraph]:
        return self._measured[:self.anchors.size]

    @property
    def perturbed(self) -> list[MeasuredSubgraph]:
        return self._measured[self.anchors.size:]

    @property
    def negatives(self) -> list[list[MeasuredSubgraph]]:
        views = self._measured
        return [[views[v] for v in row[1:]] for row in self.partner_views]


def sample_contrast_batch(g: Graph, h: Tensor, h_hat: Tensor, k: int,
                          num_anchors: int, num_negatives: int, seed: int,
                          shuffle_frontier: bool = False
                          ) -> tuple[Optional[ContrastBatch], int]:
    """Anchors -> BFS node sets -> contrast partners, in one pass.

    Returns (batch or None, number of excluded anchors); the batch is
    None (the caller skips the subgraph loss this step) when fewer than 2
    usable anchors remain.
    """
    if num_negatives < 1:
        raise ValueError(f"need at least 1 negative, got {num_negatives}")
    anchor_ids = sample_anchors(g, num_anchors, seed)
    rng = np.random.default_rng(seed + 1) if shuffle_frontier else None
    sets = [bfs_sample(g, int(anchor), k, rng=rng) for anchor in anchor_ids]
    usable = [i for i, s in enumerate(sets) if s is not None]
    excluded = len(sets) - len(usable)
    count = len(usable)
    if count < 2:
        log.warning("only %d usable anchors; skipping the subgraph loss",
                    count)
        return None, excluded
    draws = np.random.default_rng(seed)
    partners_needed = (num_negatives + 1) // 2
    partner_views = np.empty((count, num_negatives + 1), dtype=np.int64)
    partner_views[:, 0] = count + np.arange(count)
    for i in range(count):
        jj = draws.choice(count - 1, size=partners_needed)
        j = jj + (jj >= i)
        partner_views[i, 1:] = np.stack([j, count + j], axis=1).ravel()[
            :num_negatives]
    index = np.stack([sets[i] for i in usable])
    return ContrastBatch(anchors=anchor_ids[usable], index=index,
                         partner_views=partner_views,
                         adjacency=_induced_stack(g.adjacency, index),
                         h=h, h_hat=h_hat), excluded
