"""Independent correctness checks for the benchmark's outputs.

Nothing here calls the fgwcl package: every value is recomputed from raw
arrays with arithmetic written separately from the program's own, so a
fault in the program cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np


def fgw_4index(M, C1, C2, P, alpha: float) -> float:
    """FGW objective by its definition, one term per (i, j, k, l):

        sum_ij alpha M_ij P_ij
          + (1 - alpha) sum_ijkl (C1_ik - C2_jl)^2 P_ij P_kl

    Memory is n^2 m^2 floats, so keep it to training-sized subgraphs."""
    M, C1, C2, P = (np.asarray(a, dtype=np.float64) for a in (M, C1, C2, P))
    L = (C1[:, None, :, None] - C2[None, :, None, :]) ** 2  # L[i, j, k, l]
    structure = np.einsum("ijkl,ij,kl->", L, P, P)
    return float(alpha * (M * P).sum() + (1.0 - alpha) * structure)


def fgw_quadratic(M, C1, C2, P, alpha: float) -> float:
    """The same objective expanded as quadratic forms in the marginals of P:
    sum_ijkl (C1_ik - C2_jl)^2 P_ij P_kl
      = p'(C1*C1)p + q'(C2*C2)q - 2 <C1, P C2 P'>
    with p = P 1 and q = P' 1. Scales to distance-sized problems."""
    M, C1, C2, P = (np.asarray(a, dtype=np.float64) for a in (M, C1, C2, P))
    p = P.sum(axis=1)
    q = P.sum(axis=0)
    structure = (p @ (C1 * C1) @ p + q @ (C2 * C2) @ q
                 - 2.0 * np.sum(C1 * (P @ C2 @ P.T)))
    return float(alpha * (M * P).sum() + (1.0 - alpha) * structure)


def exp_costs(A1, A2, H1, H2, tau: float):
    """Costs M = exp(-H1 H2'/tau), Ck = exp(-Ak/tau) from raw arrays."""
    M = np.exp(-(np.asarray(H1) @ np.asarray(H2).T) / tau)
    return M, np.exp(-np.asarray(A1) / tau), np.exp(-np.asarray(A2) / tau)


def l_ot_range(num_negatives: int) -> tuple[float, float]:
    """Range of the subgraph contrast loss implied by distances d >= 0.

    Each score s = sigmoid(exp(-d/tau)) lies in (1/2, sigmoid(1)], so a
    positive term -log s lies in [log(1 + e^-1), log 2) and a negative term
    -log(1 - s) in (log 2, log(1 + e)]; the loss averages one positive and
    M negatives per anchor."""
    m = num_negatives
    pos_lo, pos_hi = math.log1p(math.exp(-1.0)), math.log(2.0)
    neg_lo, neg_hi = math.log(2.0), math.log1p(math.e)
    return (pos_lo + m * neg_lo) / (m + 1), (pos_hi + m * neg_hi) / (m + 1)


def l_ot_from_distances(pos, negs, tau: float) -> float:
    """The subgraph contrast loss from plain distances: pos is (S,),
    negs is (S, M)."""
    pos = np.asarray(pos, dtype=np.float64)
    negs = np.asarray(negs, dtype=np.float64)
    s_pos = 1.0 / (1.0 + np.exp(-np.exp(-pos / tau)))
    s_neg = 1.0 / (1.0 + np.exp(-np.exp(-negs / tau)))
    terms = -np.log(s_pos) - np.log1p(-s_neg).sum(axis=1)
    return float(terms.sum() / (pos.size * (negs.shape[1] + 1)))


def node_loss_bound(rows: int, tau: float) -> float:
    """Upper end of the InfoNCE node loss over `rows` nodes: each term is
    log(denominator) - s_ii/tau with 2*rows - 1 denominator terms, every
    cosine in [-1, 1]; the lower end is 0 (exclusive)."""
    return math.log(2 * rows - 1) + 2.0 / tau


def plan_problems(P, nu, tol: float) -> list[str]:
    """Feasibility faults of a transport plan: non-finite or negative
    entries, or column sums away from nu by more than tol."""
    P = np.asarray(P, dtype=np.float64)
    faults = []
    if not np.isfinite(P).all():
        faults.append("non-finite plan entries")
    elif (P < 0).any():
        faults.append(f"negative plan entry {P.min():.3e}")
    else:
        err = float(np.abs(P.sum(axis=0) - np.asarray(nu)).max())
        if err > tol:
            faults.append(f"column sums off nu by {err:.3e}")
    return faults


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(b))
