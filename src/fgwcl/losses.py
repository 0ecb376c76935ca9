"""Self-supervised objective: subgraph transport contrast, node-level
InfoNCE (full and union-restricted), and the fusion gate regularizer.

The transport term reads the batch's views stacked by view id and its
pair-row layout and builds the taped costs of every (anchor, partner)
problem once. It solves all the problems from those costs' values in one
stacked kernel call, treats the solved plans as constants and evaluates
the distances on the same taped costs, so gradients reach the embeddings
without differentiating through the solver iterations. The solve reads
plain arrays and records nothing, so train.run_epoch runs it on a worker
thread beside the node and fusion losses. The tape holds the same
handful of ops however many anchors and pairs the batch has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kernels import (STATUS_MAX_ITERS, STATUS_STATIONARY_INFEASIBLE,
                      KernelBackend)
from .ot import FgwConfig, TransportPlans, bapg_fgwd_batch, fgw_batch
from .sampling import ContrastBatch


def _stacked_costs(batch: ContrastBatch,
                   tau: float) -> tuple[Tensor, Tensor, Tensor]:
    """Costs of every (anchor, partner) pair in loss order, stacked as
    fgw_batch takes them: M = exp(-H1 H2^T / tau), Ck = exp(-Ak / tau)."""
    rows1, rows2 = batch.pair_rows()
    scale = ad.constant(-1.0 / tau)
    H, A = batch.views()
    C = ad.exp(ad.mul(A, scale))
    M = ad.exp(ad.mul(ad.block_matmul_t(ad.gather_rows(H, rows1),
                                        ad.gather_rows(H, rows2),
                                        batch.partner_views.size), scale))
    return M, ad.gather_rows(C, rows1), ad.gather_rows(C, rows2)


def solve_costs(M: np.ndarray, C1: np.ndarray, C2: np.ndarray,
                cfg: FgwConfig,
                backend: Optional[KernelBackend] = None) -> TransportPlans:
    """Plans of the k x k problems whose costs M, C1 and C2 are stacked as
    (B k, k) arrays, as fgw_batch takes them, with uniform marginals, from
    one stacked kernel call. Reads the arrays and records nothing on the
    tape, so it can run beside the thread that built them."""
    k = M.shape[1]
    M, C1, C2 = (x.reshape(-1, k, k) for x in (M, C1, C2))
    mu = np.full(M.shape[:2], 1.0 / k)
    return bapg_fgwd_batch(M, C1, C2, mu, mu, cfg, backend)


def solve_batch_plans(batch: ContrastBatch, cfg: FgwConfig,
                      backend: Optional[KernelBackend] = None,
                      threads: int = 1) -> TransportPlans:
    """Solved transport plans for every pair the batch loss uses, in the
    order loss_ot consumes them, from costs built off the tape. The plans
    are constants with respect to the embeddings, so callers can
    re-evaluate the loss at perturbed parameters while keeping the
    couplings fixed. `threads` has no effect."""
    try:
        costs = _stacked_costs(batch.detached(), cfg.tau)
    except ArithmeticError as exc:
        raise ArithmeticError(f"solve_batch_plans: {exc}") from exc
    return solve_costs(*(t.data for t in costs), cfg, backend)


def solver_stats(plans: Optional[TransportPlans]) -> dict:
    """Convergence of one batch of solves, as metrics record fields, with
    the share of plan entries that are exactly 0 (underflowed in exp, or
    flushed below the smallest normal double); every field is None when
    there were no solves."""
    if not plans:
        return {"ot_iters_mean": None, "ot_iters_max": None,
                "ot_capped_share": None, "ot_infeasible_share": None,
                "ot_row_residual_max": None, "ot_plan_zero_share": None}
    P, status = plans.P, plans.status
    return {"ot_iters_mean": float(plans.iterations.mean()),
            "ot_iters_max": int(plans.iterations.max()),
            "ot_capped_share": float((status == STATUS_MAX_ITERS).mean()),
            "ot_infeasible_share":
                float((status == STATUS_STATIONARY_INFEASIBLE).mean()),
            "ot_row_residual_max": float(plans.residual.max()),
            "ot_plan_zero_share":
                float(P.size - np.count_nonzero(P)) / P.size}


def ot_loss_from_distances(distances: Tensor, tau: float) -> Tensor:
    """-1/(S(M+1)) sum_i [log sig(exp(-d_i0/tau))
    + sum_j log(1 - sig(exp(-d_ij/tau)))] over the rows of an (S, M+1)
    distance matrix: column 0 holds each anchor's positive distance and
    columns 1..M its negatives."""
    s, cols = distances.shape
    if s == 0 or cols == 0:
        raise ValueError(f"need at least one anchor and one distance per "
                         f"anchor, got shape {distances.shape}")
    score = ad.sigmoid(ad.exp(ad.mul(distances, ad.constant(-1.0 / tau))))
    # score for the positive column, 1 - score for the negatives
    sign = np.full((1, cols), -1.0)
    sign[0, 0] = 1.0
    picked = ad.add(ad.mul(score, ad.constant(sign)),
                    ad.constant((1.0 - sign) / 2.0))
    return ad.mul(ad.constant(-1.0 / (s * cols)), ad.sum_all(ad.log(picked)))


def loss_ot(batch: Optional[ContrastBatch], cfg: FgwConfig,
            backend: Optional[KernelBackend] = None,
            threads: int = 1, plans: Optional[TransportPlans] = None,
            costs: Optional[tuple[Tensor, Tensor, Tensor]] = None
            ) -> Optional[Tensor]:
    """Subgraph contrastive loss; None signals the caller to skip it.
    Pre-solved plans skip the solver and hold the couplings fixed, and
    the batch's taped costs, when given, are not built again. Otherwise
    the plans are solved from the taped costs' values. `threads` has no
    effect."""
    if batch is None or batch.anchors.size < 2:
        return None
    B = batch.partner_views.size
    if plans is not None and len(plans) != B:
        raise ValueError(f"got {len(plans)} plans for {B} pairs")
    if costs is None:
        costs = _stacked_costs(batch, cfg.tau)
    if plans is None:
        plans = solve_costs(*(t.data for t in costs), cfg, backend)
    d = fgw_batch(*costs, plans.P, cfg.alpha)
    return ot_loss_from_distances(ad.reshape(d, batch.partner_views.shape),
                                  cfg.tau)


def loss_node(h: Tensor, h_hat: Tensor, tau: float,
              counts=None) -> Tensor:
    """Symmetric intra- plus cross-view InfoNCE over all nodes (GRACE):
    each view is normalized once, and one fused op computes the loss
    row block by row block, holding no (S, S) similarity. Per-row
    counts stand for rows repeated that many times, and counts=None for
    every row once (see ad.info_nce)."""
    return ad.info_nce(ad.l2_normalize_rows(h), ad.l2_normalize_rows(h_hat),
                       tau, counts)


def distinct_nodes(indices) -> tuple[np.ndarray, np.ndarray]:
    """The distinct node ids of an index list, ascending, and how often
    each occurs in it."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and idx.min() < 0:
        raise IndexError(f"negative node index {idx.min()}")
    counts = np.bincount(idx)
    nodes = np.flatnonzero(counts)
    return nodes, counts[nodes]


def loss_node_v2(h: Tensor, h_hat: Tensor, union_indices,
                 tau: float) -> Optional[Tensor]:
    """Node loss restricted to the sampled subgraph nodes.

    The index list is a multiset: a node sampled by several subgraphs
    counts once per occurrence, so the loss is that of len(indices) rows.
    It is computed over the distinct nodes among them, each weighted by
    its count, so its cost follows the number of distinct nodes, at most
    len(indices) whatever the graph size."""
    idx = np.asarray(union_indices, dtype=np.int64).ravel()
    if idx.size == 0:
        return None
    nodes, counts = distinct_nodes(idx)
    return loss_node(ad.gather_rows(h, nodes), ad.gather_rows(h_hat, nodes),
                     tau, counts)


def batch_indices(batch: Optional[ContrastBatch]) -> np.ndarray:
    """Node ids of all subgraphs in the batch, in anchor order, duplicates
    kept (the restricted node loss uses this)."""
    if batch is None:
        return np.empty(0, dtype=np.int64)
    return batch.index.ravel()


def rowwise_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Per-row cosine similarity as an (n, 1) column (no n x n buffer)."""
    return ad.sum_rows(ad.mul(ad.l2_normalize_rows(a),
                              ad.l2_normalize_rows(b)))


def loss_fusion(lam: Tensor, h_s: Tensor, h_f: Tensor, alpha: float,
                beta1: float, beta2: float = 1.0) -> Tensor:
    """sum_i lam_i s(h_s_i, h_f_i) + beta1 ||lam||_2
    + beta2 |mean(lam) - (1 - alpha)|."""
    if lam.shape != (h_s.shape[0], 1):
        raise ValueError(f"gate must be (n, 1), got {lam.shape}")
    sims = rowwise_cosine(h_s, h_f)
    separate = ad.sum_all(ad.mul(lam, sims))
    norm = ad.sqrt(ad.sum_all(ad.mul(lam, lam)))
    align = ad.abs_(ad.sub(ad.mean_all(lam), ad.constant(1.0 - alpha)))
    return ad.add(separate, ad.add(ad.mul(ad.constant(beta1), norm),
                                   ad.mul(ad.constant(beta2), align)))


@dataclass
class LossBreakdown:
    """Scalar parts plus bookkeeping; skipped parts contribute zero.
    `solver` holds the solver_stats fields of the transport solves;
    `node_rows` the node loss's index count and the distinct rows it ran
    over, and `channels` the gate and channel statistics, both added by
    train.run_epoch."""

    l_ot: Optional[Tensor]
    l_node: Optional[Tensor]
    l_fusion: Optional[Tensor]
    total: Tensor
    anchors_used: int
    anchors_excluded: int
    skipped: tuple[str, ...]
    solver: dict
    node_rows: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)


def total_loss(l_ot: Optional[Tensor], l_node: Optional[Tensor],
               l_fusion: Optional[Tensor], anchors_used: int = 0,
               anchors_excluded: int = 0,
               plans: Optional[TransportPlans] = None) -> LossBreakdown:
    parts = {"ot": l_ot, "node": l_node, "fusion": l_fusion}
    skipped = tuple(name for name, part in parts.items() if part is None)
    live = [part for part in parts.values() if part is not None]
    total = reduce(ad.add, live) if live else ad.constant(0.0)
    return LossBreakdown(l_ot=l_ot, l_node=l_node, l_fusion=l_fusion,
                         total=total, anchors_used=anchors_used,
                         anchors_excluded=anchors_excluded, skipped=skipped,
                         solver=solver_stats(plans))
