"""Numerical kernels for the transport solver: the factorized squared-loss
tensor product and the BAPG solve, vectorized with numpy over stacks of
problems.

BAPG iteration (alternating Bregman projections): starting from P0,
each iteration applies a row step (multiplicative update by exp(-G/beta)
with rows rescaled to mu) and a column step (same update at the new
point, columns rescaled to nu), where G = alpha*M + 2(1-alpha)*(L(C1,C2)
tensor P). Updates run in log space, which is mathematically identical
but immune to underflow at small beta. A problem stops when the Frobenius
change between its consecutive iterates drops to eps; the strict stopping
mode also requires its row-marginal residual to be within eps.

Status codes returned by the bapg kernels: 0 converged, 1 hit the
iteration cap, 2 non-finite values (the iteration count is then the
iteration that produced them).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


STATUS_CONVERGED = 0
STATUS_MAX_ITERS = 1
STATUS_NON_FINITE = 2


def _tensor_product(C1m2, C1sq, C2T, C2sq, P):
    """(L tensor P) from C1m2 = -2 C1, the squares C1 o C1 and C2 o C2,
    and C2^T. Every argument is a matrix or a stack of matrices; scaling
    all four cost arguments by s scales the result by s."""
    rows = C1sq @ P.sum(axis=-1)[..., None]
    cols = C2sq @ P.sum(axis=-2)[..., None]
    return rows + np.swapaxes(cols, -1, -2) + C1m2 @ P @ C2T


def tensor_product_numpy(C1: np.ndarray, C2: np.ndarray,
                         P: np.ndarray) -> np.ndarray:
    """Factorized (L tensor P) for the squared loss L_ijkl=(C1_ik-C2_jl)^2:
    (C1 o C1) p 1^T + 1 q^T (C2 o C2)^T - 2 C1 P C2^T with p=P1, q=P^T 1.
    Takes one (n, m) problem or a (B, n, m) stack of them.
    """
    return _tensor_product(-2.0 * C1, C1 * C1, np.swapaxes(C2, -1, -2),
                           C2 * C2, P)


def bapg_batch_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0,
                     strict_stop):
    """BAPG over a stack: M and P0 are (B, n, m), C1 (B, n, n), C2
    (B, m, m), mu (B, n) and nu (B, m). Returns plans (B, n, m) and the
    per-problem iteration counts and status codes, each of shape (B,).

    Every problem runs the iteration it would run alone and stops on its
    own rule; the live stack is compacted only on iterations where some
    problem stops or turns non-finite.
    """
    plans = np.empty(M.shape)
    iters = np.empty(M.shape[0], dtype=np.int64)
    status = np.empty_like(iters)
    live = np.arange(M.shape[0])
    # loop invariants: the linear cost over beta, the structure costs
    # scaled so that the tensor product comes out as 2(1-alpha)/beta
    # (L tensor P), and the log marginals
    aM = alpha * M / beta
    step = 2.0 * (1.0 - alpha) / beta
    C1m2, C1sq, C2sq = (-2.0 * step) * C1, step * (C1 * C1), step * (C2 * C2)
    C2T = np.ascontiguousarray(np.swapaxes(C2, 1, 2))
    logmu = np.log(mu)[:, :, None]
    lognu = np.log(nu)[:, None, :]
    P = np.array(P0, dtype=np.float64)
    logP = np.log(P)

    def retire(keep, code, it, normalize):
        """Store the problems not in `keep` as finished; shrink the stack."""
        nonlocal live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu, mu, nu, P, logP
        gone = ~keep
        done = live[gone]
        out = P[gone]
        if normalize:
            out = out * (nu[gone] / out.sum(axis=1))[:, None, :]
        plans[done] = out
        iters[done] = it
        status[done] = code
        live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu, mu, nu, P, logP = (
            a[keep] for a in (live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu,
                              mu, nu, P, logP))

    # non-finite inputs surface through the isfinite checks, not through
    # numpy warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iters + 1):
            P_prev = P
            # row step: multiplicative update, rows rescaled to mu
            logP = logP - (aM + _tensor_product(C1m2, C1sq, C2T, C2sq, P))
            row_max = logP.max(axis=2, keepdims=True)
            lse = row_max + np.log(np.exp(logP - row_max).sum(axis=2,
                                                              keepdims=True))
            logP = logP + (logmu - lse)
            P = np.exp(logP)
            if not np.isfinite(P).all():
                keep = np.isfinite(P).all(axis=(1, 2))
                retire(keep, STATUS_NON_FINITE, it, False)
                if not live.size:
                    break
                P_prev = P_prev[keep]
            # column step: same gradient at the half-step point, columns to nu
            logP = logP - (aM + _tensor_product(C1m2, C1sq, C2T, C2sq, P))
            col_max = logP.max(axis=1, keepdims=True)
            lse = col_max + np.log(np.exp(logP - col_max).sum(axis=1,
                                                              keepdims=True))
            logP = logP + (lognu - lse)
            P = np.exp(logP)
            if not np.isfinite(P).all():
                keep = np.isfinite(P).all(axis=(1, 2))
                retire(keep, STATUS_NON_FINITE, it, False)
                if not live.size:
                    break
                P_prev = P_prev[keep]
            delta = np.sqrt(((P - P_prev) ** 2).sum(axis=(1, 2)))
            stop = delta <= eps
            if stop.any():
                if strict_stop:
                    stop &= np.abs(P.sum(axis=2) - mu).max(axis=1) <= eps
                if stop.any():
                    retire(~stop, STATUS_CONVERGED, it, True)
                    if not live.size:
                        break
    if live.size:
        # the capped problems; force exact column marginals (the loop's
        # last operation is already a column rescale; this removes the
        # residual rounding)
        retire(np.zeros(live.size, dtype=bool), STATUS_MAX_ITERS, max_iters,
               True)
    return plans, iters, status


def bapg_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0,
               strict_stop):
    """One (n, m) problem through the stacked kernel; returns the plan and
    the scalar iteration count and status code."""
    plans, iters, status = bapg_batch_numpy(
        M[None], C1[None], C2[None], mu[None], nu[None], alpha, beta,
        max_iters, eps, P0[None], strict_stop)
    return plans[0], int(iters[0]), int(status[0])


class KernelBackend(NamedTuple):
    """The solver entry points that transport callers dispatch through:
    one problem, or a stack of them."""

    bapg: Callable
    bapg_batch: Callable


_BACKEND = KernelBackend(bapg_numpy, bapg_batch_numpy)


def get_backend() -> KernelBackend:
    return _BACKEND
