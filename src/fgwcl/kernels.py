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

Any per-row (per-column) shift of logP before the exp gives the same
plan, so each half-step shifts by a constant computed once per solve and
folded into its fixed cost term: the row's (column's) smallest fixed
cost, less a bound on the structure term, 2 |step| max|C1| max|C2|.
For plans of mass at most 1, whose entries are at most 1, the shifted
exponent is at most 0, so exp cannot overflow, and no short-axis max
reduction runs per iteration. When some row (column) of the exp sums
below SUM_FLOOR or not to a finite value, the half-step redoes the exp
after a shift by the exact max along that axis, which leaves every row
(column) an entry of 1. At graph seed 4201 the hetero benchmark's
epoch-0 stack takes that path in all 30 of its column half-steps and in
none of its row half-steps; the v2 stack, in none of its 40 half-steps,
and the distance benchmark's 16 solves, in the dense form and in the
sparse one, in none of their 1600. The
folded constant is rounded once and subtracted every iteration, so over
very long solves the plans drift from those of an exact-max shift at
each half-step: by 1.1e-13 after 200000 iterations of a degenerate
5 x 5 problem, and by less than 1e-15 on the training and distance
stacks measured (20 to 50 iterations). The plan is the exp times
marginal / sum, and logP the shifted values plus the log
of that factor. Row and column sums, and the squared Frobenius change,
are BLAS matrix-vector products over the whole stack, not numpy
reductions over short axes. Work stacks, the per-axis sums and scales
among them, are allocated once and reused across iterations. After the
first iteration nothing reads alpha M / beta or C2 o C2 again: the
row term that iteration fixes is written into the former's buffer and
the latter is released, so the loop holds two fewer stacks.
Each iteration first tests only the smallest squared change: when its
root is above eps, every problem is finite and none has converged. The
stack keeps its size for the whole solve: a problem that stops has its
plan stored and goes on iterating with the rest, unrecorded, until no
problem is running, so no array is ever sliced or rebound.

No plan entry is subnormal: each half-step sets the entries below the
smallest normal double (TINY, about 2.2e-308) to exactly 0 after its
rescale, so none reaches the two products of the next half-step, the
sums, the Frobenius change, the returned plans or the products callers
form with them. logP is left as it is, so the log-domain trajectory
does not change; NaN entries stay NaN and zeros stay 0. The CPU takes a
microcode assist on every subnormal operand: at beta = 0.1 about 1% of
a plan's entries end up subnormal, and that made C1 @ P on such a plan
5-11x slower than on the same plan with them zeroed (1.01 ms against
0.18 ms at n = 200, 104 us against 10 us at n = 60, on an AVX-512 Xeon
with one BLAS thread). A flushed entry is negligible next to the
normal terms it is summed with, so at most a rounding tie goes the
other way: plans match the unflushed iteration's to rounding.

(L tensor P) = (C1 o C1) P1 1^T + 1 (P^T 1)^T (C2 o C2)^T - 2 C1 P C2^T.
The first term is constant along each row and the second along each
column, so a row step omits the first and a column step the second: the
rescale that follows cancels each exactly. The term a step keeps is
fixed by its starting marginals (C2 o C2 nu, C1 o C1 mu) and computed
once; only the first row step, from P0, sums P0's columns.

The structure product C1 X C2^T has a second form for large problems
whose costs are mostly 1. Write C1 = J + E1 and C2 = J + E2, with J all
ones, p = X 1 and q = X^T 1:

    C1 X C2^T = (1^T X 1) J + 1 (E2 q)^T + (E1 p) 1^T + E1 X E2^T.

A row step cancels the terms constant along a row, and its q is nu (P0's
column sums at iteration 1), so -2 step 1 (E2 q)^T is fixed and joins the
row step's fixed term; a column step likewise keeps (E1 mu) 1^T. With
C o C = J + 2 E + E o E, the fixed terms come out as the dense form's with
E in place of C, up to constants along the rescaled axis: the squared loss
sees only differences, L(C1, C2) = L(E1, E2), so the sparse form is the
same solve on E1 = C1 - 1 and E2 = C2 - 1. Its shift bound is
2 |step| max|E1| max|E2|, and the exponent still stays at most 0. The
costs are exp(-A / tau), and exp(-0) = 1 exactly, so E is nonzero only
where the adjacency A is. The sparse form holds E1 and E2 as block-
diagonal CSR matrices and forms X E2^T as (E2 X^T)^T, copying X^T and the
product back through the scratch stack: its two products take
2 (nnz(E1) m + nnz(E2) n) FLOPs per half-step, against 2 n m (n + m).
Plans match the dense form's to rounding: on the distance benchmark's 48
pairs at seeds 8101, 8102 and 4242, within 2.4e-16, with the same
iteration counts and status codes.

sparse_structure picks the sparse form when n + m is at least
SPARSE_MIN_SIZE = 210 and its FLOPs are at most SPARSE_MAX_SHARE = 0.08 of
the dense form's. Measured as whole-solve times, sparse over dense, on
random undirected graphs with n = m and edge share s (so the FLOP share
is s), one BLAS thread, a 2-core AVX-512 VM: at n = 100, 0.96 for
s = 0.03 and 1.09-1.13 for s = 0.05-0.09; at n = 120, 0.74, 0.90 and 0.99
for s = 0.03, 0.07 and 0.09; at n = 150, 0.61-0.86 for s = 0.03-0.09 and
1.10 for 0.15; at n = 200 and 300, 0.94 and 1.01 for s = 0.1. On the
distance benchmark's pairs (m = 0.85 n, mean degree 6.3-7.5) the dense
and sparse solves took 11.5 and 11.9 ms at n = 100 (n + m = 185), 18.8 and
15.8 ms at n = 120, and 68.3 and 40.6 ms at n = 200. Training stacks, with
blocks of k <= 30 nodes, stay far below the size rule and run the dense
form unchanged.

Status codes returned by the bapg kernels: 0 converged, 1 hit the
iteration cap, 2 non-finite values, 3 stationary with a row residual
above eps. The row residual max_i |(P 1)_i - mu_i| is measured once,
after the loop, on every returned plan (its columns sum to nu), and
returned with it. A non-finite value in either half-step of an
iteration makes that iteration's Frobenius change non-finite, and so
the smallest squared change NaN; the problem then reports that iteration
and stores its plan as of the end of it, which holds NaN. A problem
that has stopped is not recorded again, even if it turns non-finite
later. An overflow in C1 o C1 or C2 o C2 meets a positive marginal in
a kept term, so it too ends as NaN, by iteration 2; overflow in the
setup raises no numpy warning.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp


STATUS_CONVERGED = 0
STATUS_MAX_ITERS = 1
STATUS_NON_FINITE = 2
STATUS_STATIONARY_INFEASIBLE = 3

# the smallest normal float64; the solver holds no plan entry below it
TINY = np.finfo(np.float64).tiny
# a half-step whose exp sums to less than this along some row (column)
# redoes the exp after a shift by the exact max: a sum above it leaves
# that row (column) an entry above SUM_FLOOR / m, far from subnormal
SUM_FLOOR = 1e-280
# the sparse form of the structure product runs when n + m is at least
# SPARSE_MIN_SIZE and its FLOPs are at most SPARSE_MAX_SHARE of the dense
# form's (see the module docstring for the measurements behind both)
SPARSE_MIN_SIZE = 210
SPARSE_MAX_SHARE = 0.08


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


def sparse_structure(C1, C2) -> bool:
    """Whether the structure costs C1 (B, n, n) and C2 (B, m, m) take the
    sparse form of the structure product: n + m is at least
    SPARSE_MIN_SIZE, and its products, 2 (nnz(E1) m + nnz(E2) n) FLOPs with
    Ek = Ck - 1, take at most SPARSE_MAX_SHARE of the dense form's
    2 B n m (n + m)."""
    B, n, _ = C1.shape
    m = C2.shape[-1]
    if n + m < SPARSE_MIN_SIZE:
        return False
    flops = np.count_nonzero(C1 != 1.0) * m + np.count_nonzero(C2 != 1.0) * n
    return flops <= SPARSE_MAX_SHARE * B * n * m * (n + m)


def _block_diagonal(E):
    """The (B, k, k) stack E as one (B k, B k) CSR matrix with the blocks
    on its diagonal."""
    B, k, _ = E.shape
    flat = E.reshape(B * k, k)
    rows, cols = np.nonzero(flat)
    return sp.csr_array((flat[rows, cols], (rows, cols + rows // k * k)),
                        shape=(B * k, B * k))


def bapg_batch_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0):
    """BAPG over a stack: M and P0 are (B, n, m), C1 (B, n, n), C2
    (B, m, m), mu (B, n) and nu (B, m). Returns plans (B, n, m), and the
    per-problem iteration counts, status codes and row residuals
    max_i |(P 1)_i - mu_i|, each of shape (B,).

    Every problem runs the iteration it would run alone and stops on its
    own Frobenius change; the stack keeps all B problems until none runs.
    sparse_structure(C1, C2) picks the form of the structure product.
    """
    B, n, m = M.shape
    plans = np.empty(M.shape)
    iters = np.full(B, max_iters, dtype=np.int64)
    status = np.full(B, STATUS_MAX_ITERS, dtype=np.int64)
    running = np.ones(B, dtype=bool)
    ones_n, ones_m, ones_nm = np.ones((1, n)), np.ones(m), np.ones(n * m)
    least, most = np.minimum.reduce, np.maximum.reduce

    def col_term(q):
        """(C2sq q)^T for a (B, 1, m) stack of column sums q."""
        return (C2sq @ q.reshape(-1, m, 1)).reshape(-1, 1, m)

    def exp_sums(out, axis, S, out_rows):
        """exp(logP) into `out`, and its sums along `axis` into S."""
        np.exp(logP, out)
        if axis == 2:
            np.matmul(out_rows, ones_m, rows_flat)
        else:
            np.matmul(ones_n, out, S)

    def half_step(X, out, fixed, axis, marginal, S, out_rows=None):
        """One Bregman projection from the plan X into `out` (which may be
        X): logP -= G with G = C1m2 X C2T + fixed (in the sparse form,
        C1m2 X E2^T on the block-diagonal CSR C1m2 and E2), then rescale
        along `axis` (2: rows to mu, 1: columns to nu), which cancels G's
        omitted term, and flush the entries below TINY. At alpha = 1 the
        step is 0, so C1m2 X C2T is +-0 and G is `fixed`: the two products
        are skipped (a non-finite C1 or C2 still makes gw_bound, and so
        `fixed`, NaN), and so is the sparse form.
        `fixed` carries the solve's per-axis shift, so logP comes out at
        most 0; a sum below SUM_FLOOR or not finite redoes the exp after a
        shift by the exact max. S is the (B, n, 1) or (B, 1, m) work stack
        of the axis: the sums (on a redo, first the max), then the scale.
        For a row step, out_rows is `out` viewed as (B n, m).
        Outputs are passed by position: the out= keyword costs ~0.07 us a
        call, and a small solve is mostly per-call cost."""
        if sparse:
            # X E2^T as (E2 X^T)^T per block, both transposes through T
            np.copyto(T_mn, np.swapaxes(X, 1, 2))
            np.copyto(T, np.swapaxes((E2 @ T_mn_rows).reshape(B, m, n), 1, 2))
            np.add((C1m2 @ T_rows).reshape(B, n, m), fixed, G)
            np.subtract(logP, G, logP)
        elif step:
            np.matmul(C1m2, X, T)
            np.matmul(T, C2T, G)
            np.add(G, fixed, G)
            np.subtract(logP, G, logP)
        else:
            np.subtract(logP, fixed, logP)
        exp_sums(out, axis, S, out_rows)
        # NaN fails the first test, inf the second
        if not (least(S, None) >= SUM_FLOOR and most(S, None) < math.inf):
            most(logP, axis, None, S, True)
            np.subtract(logP, S, logP)
            exp_sums(out, axis, S, out_rows)
        np.divide(marginal, S, S)
        np.multiply(out, S, out)
        np.log(S, S)
        np.add(logP, S, logP)
        out[out < TINY] = 0.0

    def shifted(fixed, axis):
        """`fixed` in place less its min along `axis`, plus gw_bound: the
        half-step's exponent logP - C1m2 X C2T - fixed is then at most
        logP <= 0 for a plan X of mass at most 1."""
        np.subtract(fixed, fixed.min(axis, keepdims=True), fixed)
        np.add(fixed, gw_bound, fixed)
        return fixed

    def stop(done, code, it):
        """Store the running problems in `done` as stopped at iteration
        `it`; return whether any problem is still running."""
        done &= running
        plans[done] = P[done]
        iters[done] = it
        status[done] = code
        running[done] = False
        return running.any()

    # a non-finite value, from the setup or from the loop, surfaces as a
    # non-finite Frobenius change, not through numpy warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # loop invariants: the linear cost over beta, the structure costs
        # scaled so that the tensor product comes out as 2(1-alpha)/beta
        # (L tensor P), and the marginals shaped to broadcast along a row
        # (mu) or a column (nu)
        aM = alpha * M / beta
        step = 2.0 * (1.0 - alpha) / beta
        sparse = bool(step) and sparse_structure(C1, C2)
        if sparse:
            # L(C1, C2) = L(C1 - 1, C2 - 1): the solve runs on E = C - 1
            C1, C2 = C1 - 1.0, C2 - 1.0
        C1m2, C2sq = (-2.0 * step) * C1, step * (C2 * C2)
        if sparse:
            C1m2, E2 = _block_diagonal(C1m2), _block_diagonal(C2)
        else:
            C2T = np.ascontiguousarray(np.swapaxes(C2, 1, 2))
        # |C1m2 X C2T| <= 2 |step| max|C1| max|C2| sum(X), per problem
        gw_bound = (2.0 * abs(step)) * (
            np.maximum(C1.max(axis=(1, 2)), -C1.min(axis=(1, 2)))
            * np.maximum(C2.max(axis=(1, 2)), -C2.min(axis=(1, 2))))[
                :, None, None]
        mu = np.asarray(mu, dtype=np.float64)[:, :, None]
        nu = np.asarray(nu, dtype=np.float64)[:, None, :]
        P = np.array(P0, dtype=np.float64)
        logP = np.log(P)
        # work stacks: the next iterate, the gradient, a scratch product,
        # the row and column work stacks and the squared Frobenius changes
        Q, G, T = np.empty_like(P), np.empty_like(P), np.empty_like(P)
        rows, cols = np.empty((B, n, 1)), np.empty((B, 1, m))
        T_flat, sq = T.reshape(B, -1), np.empty(B)
        T_rows, T_mn = T.reshape(-1, m), T.reshape(B, m, n)
        T_mn_rows = T.reshape(-1, n)
        P_rows, Q_rows, rows_flat = (P.reshape(-1, m), Q.reshape(-1, m),
                                     rows.reshape(-1))
        # a row step starts from columns summing to nu and a column step
        # from rows summing to mu, which fixes the terms they keep; only
        # the first row step starts from P0, whose columns are not nu
        row_fixed = shifted(aM + col_term(ones_n @ P), 2)
        col_fixed = shifted(aM + (step * (C1 * C1)) @ mu, 1)
        for it in range(1, max_iters + 1):
            half_step(P, Q, row_fixed, 2, mu, rows, Q_rows)
            half_step(Q, Q, col_fixed, 1, nu, cols)
            if it == 1:
                # into aM's buffer: neither aM nor C2sq is read again
                row_fixed = shifted(np.add(aM, col_term(nu), aM), 2)
                aM = C2sq = None
            np.subtract(Q, P, T)
            np.multiply(T, T, T)
            np.matmul(T_flat, ones_nm, sq)
            P, Q, P_rows, Q_rows = Q, P, Q_rows, P_rows
            # sqrt is monotone and correctly rounded, and min propagates
            # NaN: this holds exactly when every delta below is finite and
            # above eps, so that there is nothing to record
            if math.sqrt(sq.min()) > eps:
                continue
            delta = np.sqrt(sq)
            finite = np.isfinite(delta)
            if not finite.all() and not stop(~finite, STATUS_NON_FINITE, it):
                break
            converged = delta <= eps
            if converged.any() and not stop(converged, STATUS_CONVERGED, it):
                break
        # the capped problems; the loop's last operation is a column
        # rescale, so their columns already sum to nu
        plans[running] = P[running]
        residual = np.abs(plans.sum(axis=2) - mu[:, :, 0]).max(axis=1)
    status[(status == STATUS_CONVERGED) & (residual > eps)] = (
        STATUS_STATIONARY_INFEASIBLE)
    return plans, iters, status, residual


def bapg_numpy(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0,
               unused=None):
    """One (n, m) problem through the stacked kernel; returns the plan and
    the scalar iteration count and status code. `unused` has no effect;
    it remains because bench/tracing.py still passes it."""
    plans, iters, status, _ = bapg_batch_numpy(
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
