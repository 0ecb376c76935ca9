"""Numerical kernels for the transport solver: the factorized squared-loss
tensor product and the BAPG solve, vectorized with numpy over stacks of
problems.

BAPG iteration (alternating Bregman projections): starting from P0,
each iteration applies a row step (multiplicative update by exp(-G/beta)
with rows rescaled to mu) and a column step (same update at the new
point, columns rescaled to nu), where G = alpha*M + 2(1-alpha)*(L(C1,C2)
tensor P). Updates run in log space, which is mathematically identical
but immune to underflow at small beta. A problem stops when the Frobenius
change between its consecutive iterates drops to eps. BAPG solves a
relaxation, so that point is only approximately feasible (Li et al.,
ICLR 2023).

Each half-step shifts logP by its exact max along the rescaled axis (per
row, or per column) and takes one exp of the shifted values; the plan is
that exp times marginal / sum, and logP the shifted values plus the log
of that factor. Row and column sums, and the squared Frobenius change,
are BLAS matrix-vector products over the whole stack, not numpy
reductions over short axes. The terms of G that a half-step's starting
marginals fix (C2 o C2 nu in a row step, C1 o C1 mu in a column step) are
computed once; only the first row step, from P0, sums P0's columns. Work
stacks are reused across iterations.

Status codes returned by the bapg kernels: 0 converged, 1 hit the
iteration cap, 2 non-finite values, 3 stationary with a row residual
above eps, measured on the returned plan (its columns are exact). A
non-finite value in either half-step of an iteration makes that
iteration's Frobenius change non-finite, the one finiteness test per
iteration; the problem then reports that iteration and stores its plan
as of the end of it, which holds NaN.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


STATUS_CONVERGED = 0
STATUS_MAX_ITERS = 1
STATUS_NON_FINITE = 2
STATUS_STATIONARY_INFEASIBLE = 3


def tensor_product_numpy(C1: np.ndarray, C2: np.ndarray,
                         P: np.ndarray) -> np.ndarray:
    """Factorized (L tensor P) for the squared loss L_ijkl=(C1_ik-C2_jl)^2:
    (C1 o C1) p 1^T + 1 q^T (C2 o C2)^T - 2 C1 P C2^T with p=P1, q=P^T 1.
    Takes one (n, m) problem or a (B, n, m) stack of them.
    """
    rows = (C1 * C1) @ P.sum(axis=-1)[..., None]
    cols = (C2 * C2) @ P.sum(axis=-2)[..., None]
    return rows + np.swapaxes(cols, -1, -2) - 2.0 * C1 @ P @ np.swapaxes(
        C2, -1, -2)


def bapg_batch_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0):
    """BAPG over a stack: M and P0 are (B, n, m), C1 (B, n, n), C2
    (B, m, m), mu (B, n) and nu (B, m). Returns plans (B, n, m) and the
    per-problem iteration counts and status codes, each of shape (B,).

    Every problem runs the iteration it would run alone and stops on its
    own Frobenius change; the live stack is compacted only on iterations
    where some problem stops or turns non-finite.
    """
    B, n, m = M.shape
    plans = np.empty(M.shape)
    iters = np.empty(B, dtype=np.int64)
    status = np.empty_like(iters)
    live = np.arange(B)
    # loop invariants: the linear cost over beta, the structure costs
    # scaled so that the tensor product comes out as 2(1-alpha)/beta
    # (L tensor P), and the marginals shaped to broadcast along a row
    # (mu) or a column (nu)
    aM = alpha * M / beta
    step = 2.0 * (1.0 - alpha) / beta
    C1m2, C1sq, C2sq = (-2.0 * step) * C1, step * (C1 * C1), step * (C2 * C2)
    C2T = np.ascontiguousarray(np.swapaxes(C2, 1, 2))
    mu = np.asarray(mu, dtype=np.float64)[:, :, None]
    nu = np.asarray(nu, dtype=np.float64)[:, None, :]
    ones_n, ones_m, ones_nm = np.ones((1, n)), np.ones(m), np.ones(n * m)
    P = np.array(P0, dtype=np.float64)
    logP = np.log(P)
    # work stacks, sliced down with the live stack: the next iterate, the
    # gradient and a scratch product
    Q, G, T = np.empty_like(P), np.empty_like(P), np.empty_like(P)

    def row_sums(X):
        """X 1 as an (L, n, 1) stack."""
        return (X.reshape(-1, m) @ ones_m).reshape(-1, n, 1)

    def col_sums(X):
        """1^T X as an (L, 1, m) stack."""
        return ones_n @ X

    def col_term(q):
        """(C2sq q)^T for an (L, 1, m) stack of column sums q."""
        return (C2sq @ q.reshape(-1, m, 1)).reshape(-1, 1, m)

    def half_step(X, out, varying, fixed, axis, marginal):
        """One Bregman projection from the plan X into `out` (which may be
        X): logP -= G with G = C1m2 X C2T + varying + fixed, then rescale
        along `axis` (2: rows to mu, 1: columns to nu)."""
        np.matmul(C1m2, X, out=T)
        np.matmul(T, C2T, out=G)
        np.add(G, varying, out=G)
        np.add(G, fixed, out=G)
        np.subtract(logP, G, out=logP)
        np.subtract(logP, logP.max(axis=axis, keepdims=True), out=logP)
        np.exp(logP, out=out)
        scale = marginal / (row_sums(out) if axis == 2 else col_sums(out))
        np.multiply(out, scale, out=out)
        np.add(logP, np.log(scale), out=logP)

    def retire(keep, code, it, normalize):
        """Store the problems not in `keep` as finished; shrink the stack."""
        nonlocal live, C1m2, C1sq, C2T, C2sq, mu, nu, P, logP, Q, G, T, \
            row_fixed, col_fixed
        gone = ~keep
        done = live[gone]
        out = P[gone]
        if normalize:
            out *= nu[gone] / out.sum(axis=1, keepdims=True)
        plans[done] = out
        iters[done] = it
        if code == STATUS_CONVERGED:
            residual = np.abs(out.sum(axis=2) - mu[gone, :, 0]).max(axis=1)
            code = np.where(residual > eps, STATUS_STATIONARY_INFEASIBLE,
                            code)
        status[done] = code
        (live, C1m2, C1sq, C2T, C2sq, mu, nu, P, logP, row_fixed,
         col_fixed) = (a[keep] for a in (live, C1m2, C1sq, C2T, C2sq, mu,
                                         nu, P, logP, row_fixed, col_fixed))
        Q, G, T = Q[:live.size], G[:live.size], T[:live.size]

    # a row step starts from a plan whose columns sum to nu, and a column
    # step from one whose rows sum to mu, so the column term of a row
    # step's G and the row term of a column step's G are fixed; only the
    # first row step starts from P0, whose columns are not nu
    row_fixed = aM + col_term(col_sums(P))
    col_fixed = aM + C1sq @ mu
    # a non-finite value surfaces as a non-finite Frobenius change, not
    # through numpy warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iters + 1):
            half_step(P, Q, C1sq @ row_sums(P), row_fixed, 2, mu)
            half_step(Q, Q, col_term(col_sums(Q)), col_fixed, 1, nu)
            if it == 1:
                # before any problem retires, so aM needs no compaction
                row_fixed = aM + col_term(nu)
            np.subtract(Q, P, out=T)
            T *= T
            delta = np.sqrt(T.reshape(live.size, -1) @ ones_nm)
            P, Q = Q, P
            finite = np.isfinite(delta)
            if not finite.all():
                retire(finite, STATUS_NON_FINITE, it, False)
                if not live.size:
                    break
                delta = delta[finite]
            stop = delta <= eps
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
               unused=None):
    """One (n, m) problem through the stacked kernel; returns the plan and
    the scalar iteration count and status code. `unused` has no effect;
    it remains because bench/tracing.py still passes it."""
    plans, iters, status = bapg_batch_numpy(
        M[None], C1[None], C2[None], mu[None], nu[None], alpha, beta,
        max_iters, eps, P0[None])
    return plans[0], int(iters[0]), int(status[0])


class KernelBackend(NamedTuple):
    """The solver entry points that transport callers dispatch through:
    one problem, or a stack of them."""

    bapg: Callable
    bapg_batch: Callable


_BACKEND = KernelBackend(bapg_numpy, bapg_batch_numpy)


def get_backend() -> KernelBackend:
    return _BACKEND
