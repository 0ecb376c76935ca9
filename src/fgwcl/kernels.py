"""Numerical kernels for the transport solver: the factorized squared-loss
tensor product and the BAPG solve, vectorized with numpy.

BAPG iteration (alternating Bregman projections): starting from P0,
each iteration applies a row step (multiplicative update by exp(-G/beta)
with rows rescaled to mu) and a column step (same update at the new
point, columns rescaled to nu), where G = alpha*M + 2(1-alpha)*(L(C1,C2)
tensor P). Updates run in log space, which is mathematically identical
but immune to underflow at small beta. Stops when the Frobenius change
between consecutive iterates drops to eps; the strict stopping mode also
requires the row-marginal residual to be within eps.

Status codes returned by the bapg kernel: 0 converged, 1 hit the
iteration cap, 2 non-finite values (iteration index in the second slot).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


STATUS_CONVERGED = 0
STATUS_MAX_ITERS = 1
STATUS_NON_FINITE = 2


def tensor_product_numpy(C1: np.ndarray, C2: np.ndarray,
                         P: np.ndarray) -> np.ndarray:
    """Factorized (L tensor P) for the squared loss L_ijkl=(C1_ik-C2_jl)^2:
    (C1 o C1) p 1^T + 1 q^T (C2 o C2)^T - 2 C1 P C2^T with p=P1, q=P^T 1.
    """
    p = P.sum(axis=1)
    q = P.sum(axis=0)
    term_rows = (C1 * C1) @ p
    term_cols = (C2 * C2) @ q
    return term_rows[:, None] + term_cols[None, :] - 2.0 * (C1 @ P @ C2.T)


def bapg_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0,
               strict_stop):
    logmu = np.log(mu)
    lognu = np.log(nu)
    P = P0.copy()
    logP = np.log(P)
    iters = max_iters
    status = STATUS_MAX_ITERS
    for it in range(1, max_iters + 1):
        P_prev = P
        # row step: multiplicative update, rows rescaled to mu
        G = alpha * M + 2.0 * (1.0 - alpha) * tensor_product_numpy(C1, C2, P)
        logP = logP - G / beta
        row_max = logP.max(axis=1, keepdims=True)
        # non-finite inputs surface through the isfinite check below, not
        # through numpy warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            lse = row_max + np.log(np.exp(logP - row_max).sum(axis=1, keepdims=True))
        logP = logP + (logmu[:, None] - lse)
        P = np.exp(logP)
        if not np.isfinite(P).all():
            return P, it, STATUS_NON_FINITE
        # column step: same gradient at the half-step point, columns to nu
        G = alpha * M + 2.0 * (1.0 - alpha) * tensor_product_numpy(C1, C2, P)
        logP = logP - G / beta
        col_max = logP.max(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            lse = col_max + np.log(np.exp(logP - col_max).sum(axis=0, keepdims=True))
        logP = logP + (lognu[None, :] - lse)
        P = np.exp(logP)
        if not np.isfinite(P).all():
            return P, it, STATUS_NON_FINITE
        delta = float(np.sqrt(((P - P_prev) ** 2).sum()))
        if delta <= eps:
            if not strict_stop or np.abs(P.sum(axis=1) - mu).max() <= eps:
                iters = it
                status = STATUS_CONVERGED
                break
    # force exact column marginals (the loop's last operation is already a
    # column rescale; this removes the residual rounding)
    P = P * (nu / P.sum(axis=0))[None, :]
    return P, iters, status


class KernelBackend(NamedTuple):
    """The solver entry point that transport callers dispatch through."""

    bapg: Callable


_BACKEND = KernelBackend(bapg_numpy)


def get_backend() -> KernelBackend:
    return _BACKEND
