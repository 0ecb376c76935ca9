"""Transport solver: factorization against the naive quadruple loop,
endpoints against assignment/grid oracles, feasibility and stability."""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from fgwcl import kernels, ot
from fgwcl.kernels import (SPARSE_MIN_SIZE, STATUS_CONVERGED,
                           STATUS_MAX_ITERS, STATUS_NON_FINITE,
                           STATUS_STATIONARY_INFEASIBLE, bapg_batch_numpy,
                           get_backend, sparse_structure)
from conftest import check_grad
import oracles

# the smallest normal float64
TINY = np.finfo(np.float64).tiny


def naive_tensor_product(C1, C2, P):
    """Quadruple-loop reference for (L tensor P), L_ijkl=(C1_ik-C2_jl)^2."""
    n, m = P.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(n):
                for l in range(m):
                    acc += (C1[i, k] - C2[j, l]) ** 2 * P[k, l]
            out[i, j] = acc
    return out


def taped_reference(costs, P, alpha):
    """The FGW objective at a fixed plan from plain tape ops, with the
    factorized tensor product written out; the reference for fgw_batch."""
    p = ad.constant(P.sum(axis=1).reshape(-1, 1))
    q = ad.constant(P.sum(axis=0).reshape(-1, 1))
    term_rows = ad.matmul(ad.mul(costs.C1, costs.C1), p)
    term_cols = ad.matmul(ad.mul(costs.C2, costs.C2), q)
    cross = ad.matmul(ad.matmul(costs.C1, ad.constant(P)),
                      ad.transpose(costs.C2))
    lp = ad.add(ad.add(term_rows, ad.transpose(term_cols)),
                ad.mul(cross, ad.constant(-2.0)))
    blended = ad.add(ad.mul(costs.M, ad.constant(alpha)),
                     ad.mul(lp, ad.constant(1.0 - alpha)))
    return ad.sum_all(ad.mul(blended, ad.constant(P)))


def random_plans(rng, b, n, m):
    P = rng.random((b, n, m))
    return P / P.sum(axis=(1, 2), keepdims=True)


def random_costs(rng, n, m, tau=1.0):
    A1 = rng.random((n, n))
    A1 = (A1 + A1.T) / 2
    np.fill_diagonal(A1, 0.0)
    A2 = rng.random((m, m))
    A2 = (A2 + A2.T) / 2
    np.fill_diagonal(A2, 0.0)
    H1 = rng.standard_normal((n, 4))
    H2 = rng.standard_normal((m, 4))
    return ot.build_cost_matrices(A1, A2, H1, H2, tau)


def bounded_costs(rng, n, m):
    """Random instance with cost entries in (0, 1]; keeps the multiplicative
    updates in a well-conditioned regime."""
    M = rng.random((n, m))
    A1 = rng.random((n, n))
    A1 = (A1 + A1.T) / 2
    np.fill_diagonal(A1, 0.0)
    A2 = rng.random((m, m))
    A2 = (A2 + A2.T) / 2
    np.fill_diagonal(A2, 0.0)
    return ot.CostMatrices(M=ad.Tensor(M), C1=ad.Tensor(np.exp(-A1)),
                           C2=ad.Tensor(np.exp(-A2)), tau=1.0)


def uniform(n):
    return np.full(n, 1.0 / n)


def _reference_tensor_product(C1m2, C1sq, C2T, C2sq, P):
    rows = C1sq @ P.sum(axis=-1)[..., None]
    cols = C2sq @ P.sum(axis=-2)[..., None]
    return rows + np.swapaxes(cols, -1, -2) + C1m2 @ P @ C2T


def reference_bapg_batch(M, C1, C2, mu, nu, alpha, beta, max_iters, eps, P0):
    """Straightforward stacked BAPG, the reference for bapg_batch_numpy:
    the full gradient and numpy reductions in every half-step, two exps
    and a full-stack finiteness scan per half-step, fresh arrays every
    step. A problem that turns non-finite stores the half-step plan that
    did so."""
    plans = np.empty(M.shape)
    iters = np.empty(M.shape[0], dtype=np.int64)
    status = np.empty_like(iters)
    live = np.arange(M.shape[0])
    aM = alpha * M / beta
    step = 2.0 * (1.0 - alpha) / beta
    C1m2, C1sq, C2sq = (-2.0 * step) * C1, step * (C1 * C1), step * (C2 * C2)
    C2T = np.ascontiguousarray(np.swapaxes(C2, 1, 2))
    logmu = np.log(mu)[:, :, None]
    lognu = np.log(nu)[:, None, :]
    P = np.array(P0, dtype=np.float64)
    logP = np.log(P)

    def retire(keep, code, it, normalize):
        nonlocal live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu, mu, nu, P, logP
        gone = ~keep
        done = live[gone]
        out = P[gone]
        if normalize:
            out = out * (nu[gone] / out.sum(axis=1))[:, None, :]
        plans[done] = out
        iters[done] = it
        if code == STATUS_CONVERGED:
            residual = np.abs(out.sum(axis=2) - mu[gone]).max(axis=1)
            code = np.where(residual > eps, STATUS_STATIONARY_INFEASIBLE,
                            code)
        status[done] = code
        live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu, mu, nu, P, logP = (
            a[keep] for a in (live, aM, C1m2, C1sq, C2T, C2sq, logmu, lognu,
                              mu, nu, P, logP))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iters + 1):
            P_prev = P
            logP = logP - (aM + _reference_tensor_product(C1m2, C1sq, C2T,
                                                          C2sq, P))
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
            logP = logP - (aM + _reference_tensor_product(C1m2, C1sq, C2T,
                                                          C2sq, P))
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
                retire(~stop, STATUS_CONVERGED, it, True)
                if not live.size:
                    break
    if live.size:
        retire(np.zeros(live.size, dtype=bool), STATUS_MAX_ITERS, max_iters,
               True)
    return plans, iters, status


def mixed_stack(rng, n, m, beta=1.0):
    """Seven (n, m) problems for one BAPG call at alpha=0.5, the given
    beta, eps=1e-6 and 150 iterations. Problem 0 has constant costs, so G is
    constant and the iteration is Sinkhorn scaling of P0: it converges.
    Problem 1 weights its linear cost by 5; 3 has a row of M at inf, so
    the row step of iteration 1 turns it non-finite; 4 has a column of M
    at inf, which the row step absorbs as zeros and the column step of
    iteration 1 turns non-finite. The rest are bounded random instances.
    Returns the kernel's positional arguments."""
    M, C1, C2 = [], [], []
    for kind in range(7):
        c = bounded_costs(rng, n, m)
        Mk, C1k, C2k = c.M.data, c.C1.data, c.C2.data
        if kind == 0:
            Mk, C1k, C2k = np.ones((n, m)), np.ones((n, n)), np.ones((m, m))
        elif kind == 1:
            Mk = 5.0 * Mk
        elif kind == 3:
            Mk[0] = np.inf
        elif kind == 4:
            Mk[:, 0] = np.inf
        elif kind == 5:
            C1k, C2k = 3.0 * C1k, 3.0 * C2k
        elif kind == 6:
            Mk = 0.1 * Mk
        M.append(Mk)
        C1.append(C1k)
        C2.append(C2k)
    mu = np.tile(uniform(n), (7, 1))
    nu = np.tile(uniform(m), (7, 1))
    P0 = ot.initial_plan(mu, nu, ot.FgwConfig(alpha=0.5))
    return (np.array(M), np.array(C1), np.array(C2), mu, nu, 0.5, beta, 150,
            1e-6, P0)


class TestTensorProduct:
    def test_matches_naive_quadruple_loop(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            C1 = rng.random((n, n))
            C2 = rng.random((m, m))
            P = rng.random((n, m))
            P /= P.sum()
            got = ot.tensor_product(C1, C2, P)
            assert np.abs(got - naive_tensor_product(C1, C2, P)).max() < 1e-10

    def test_single_entry(self):
        C1 = np.array([[0.7]])
        C2 = np.array([[0.2]])
        P = np.array([[1.0]])
        assert_allclose(ot.tensor_product(C1, C2, P), (0.7 - 0.2) ** 2)

    def test_zero_plan_gives_zero(self, rng):
        C1 = rng.random((3, 3))
        C2 = rng.random((4, 4))
        assert_allclose(ot.tensor_product(C1, C2, np.zeros((3, 4))), 0.0)

    def test_taped_matches_raw(self, rng):
        # fgw_batch per problem against the quadruple loop and against the
        # same objective from plain tape ops
        b, n, m, alpha = 3, 4, 3, 0.3
        M = rng.random((b, n, m))
        C1 = rng.random((b, n, n))
        C2 = rng.random((b, m, m))
        P = random_plans(rng, b, n, m)
        fused = ot.fgw_batch(M.reshape(-1, m), C1.reshape(-1, n),
                             C2.reshape(-1, m), P, alpha)
        assert fused.shape == (b, 1)
        for i in range(b):
            naive = ((alpha * M[i] + (1.0 - alpha)
                      * naive_tensor_product(C1[i], C2[i], P[i])) * P[i]).sum()
            costs = ot.CostMatrices(M=ad.Tensor(M[i]), C1=ad.Tensor(C1[i]),
                                    C2=ad.Tensor(C2[i]), tau=1.0)
            plain = taped_reference(costs, P[i], alpha).item
            assert_allclose(fused.data[i, 0], naive, rtol=1e-12, atol=1e-12)
            assert_allclose(fused.data[i, 0], plain, rtol=1e-12, atol=1e-12)

    def test_taped_gradients(self, rng):
        # a weighted sum over a stack of problems, with costs built from
        # stacked embeddings and similarity matrices the way the loss
        # builds them; the gradients reaching H1, H2 and A2 must equal
        # those of the plain-op objective summed problem by problem
        b, n, m, d, alpha, tau = 3, 3, 4, 5, 0.4, 1.3
        P = random_plans(rng, b, n, m)
        weight = rng.standard_normal((b, 1))
        A1 = rng.random((b * n, n))
        params = {"H1": rng.standard_normal((b * n, d)),
                  "H2": rng.standard_normal((b * m, d)),
                  "A2": rng.random((b * m, m))}

        def gradients(objective):
            ad.reset_tape()
            leaves = {k: ad.Tensor(v, requires_grad=True)
                      for k, v in params.items()}
            value = objective(leaves)
            ad.backward(value)
            return value.item, {k: t.grad for k, t in leaves.items()}

        def fused(p):
            scale = ad.constant(-1.0 / tau)
            M = ad.exp(ad.mul(ad.block_matmul_t(p["H1"], p["H2"], b), scale))
            C1 = ad.exp(ad.mul(ad.constant(A1), scale))
            C2 = ad.exp(ad.mul(p["A2"], scale))
            return ad.sum_all(ad.mul(ot.fgw_batch(M, C1, C2, P, alpha),
                                     ad.constant(weight)))

        def plain(p):
            total = ad.constant(0.0)
            for i in range(b):
                rows1 = np.arange(i * n, (i + 1) * n)
                rows2 = np.arange(i * m, (i + 1) * m)
                costs = ot.build_cost_matrices(
                    A1[rows1], ad.gather_rows(p["A2"], rows2),
                    ad.gather_rows(p["H1"], rows1),
                    ad.gather_rows(p["H2"], rows2), tau)
                term = ad.mul(taped_reference(costs, P[i], alpha),
                              ad.constant(weight[i, 0]))
                total = ad.add(total, term)
            return total

        value, grads = gradients(fused)
        want_value, want = gradients(plain)
        assert_allclose(value, want_value, rtol=1e-12)
        for name in params:
            assert_allclose(grads[name], want[name], rtol=1e-12, atol=1e-12,
                            err_msg=name)


class TestCostMatrices:
    def test_zero_adjacency_gives_ones(self):
        costs = ot.build_cost_matrices(np.zeros((3, 3)), np.zeros((2, 2)),
                                       np.zeros((3, 2)), np.zeros((2, 2)), 1.0)
        assert_allclose(costs.C1.data, 1.0)
        assert_allclose(costs.C2.data, 1.0)
        assert_allclose(costs.M.data, 1.0)

    def test_orthonormal_features(self):
        H = np.eye(3)
        costs = ot.build_cost_matrices(np.zeros((3, 3)), np.zeros((3, 3)),
                                       H, H, 2.0)
        expect = np.where(np.eye(3) > 0, np.exp(-0.5), 1.0)
        assert_allclose(costs.M.data, expect)

    def test_tau_monotonicity(self, rng):
        A = rng.random((4, 4)) + 0.1
        H = rng.standard_normal((4, 3))
        c1 = ot.build_cost_matrices(A, A, H, H, 1.0)
        c2 = ot.build_cost_matrices(A, A, H, H, 2.0)
        assert (c2.C1.data > c1.C1.data).all()
        assert (c2.C1.data <= 1.0).all()

    def test_entries_positive_finite(self, rng):
        costs = random_costs(rng, 5, 4)
        for c in (costs.M, costs.C1, costs.C2):
            assert (c.data > 0).all()
            assert np.isfinite(c.data).all()

    def test_bad_tau_rejected(self, rng):
        with pytest.raises(ValueError):
            ot.build_cost_matrices(np.zeros((2, 2)), np.zeros((2, 2)),
                                   np.zeros((2, 2)), np.zeros((2, 2)), 0.0)

    def test_gradients_reach_features(self, rng):
        A1 = np.zeros((3, 3))
        A2 = np.zeros((2, 2))
        params = {"H1": rng.standard_normal((3, 4)),
                  "H2": rng.standard_normal((2, 4))}

        def build(p):
            costs = ot.build_cost_matrices(A1, A2, p["H1"], p["H2"], 1.5)
            return ad.sum_all(costs.M)

        check_grad(build, params)


class TestConfig:
    def test_valid_defaults(self):
        cfg = ot.FgwConfig(alpha=0.5)
        assert cfg.beta == 0.1
        assert cfg.max_iters == 50
        assert cfg.tol == 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 1.1}, {"alpha": 0.5, "beta": 0.0},
        {"alpha": 0.5, "max_iters": 0}, {"alpha": 0.5, "tol": 0.0},
        {"alpha": 0.5, "tau": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ot.FgwConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["beta", "tol", "tau"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and "
                                             f"finite"):
            ot.FgwConfig(alpha=0.5, **{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
    def test_non_integer_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            ot.FgwConfig(alpha=0.5, max_iters=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, True, "1"])
    def test_non_integer_seed_rejected(self, value):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ot.FgwConfig(alpha=0.5, seed=value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ot.FgwConfig(alpha=0.5, seed=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_marginal_rejected(self, rng, value):
        mu = uniform(3)
        mu[1] = value
        with pytest.raises(ValueError, match="mu must be finite"):
            ot.bapg_fgwd(random_costs(rng, 3, 4), mu, uniform(4),
                         ot.FgwConfig(alpha=0.5))


class TestBapg:
    def test_one_by_one_forced_plan(self):
        costs = ot.CostMatrices(M=ad.Tensor([[0.5]]), C1=ad.Tensor([[1.0]]),
                                C2=ad.Tensor([[0.0]]), tau=1.0)
        plan = ot.bapg_fgwd(costs, [1.0], [1.0], ot.FgwConfig(alpha=0.5))
        assert_allclose(plan.P, [[1.0]])
        assert plan.objective == pytest.approx(0.75)
        assert plan.status == STATUS_CONVERGED

    def test_capped_solve_reports_max_iters(self, rng):
        costs = random_costs(rng, 4, 5)
        plan = ot.bapg_fgwd(costs, uniform(4), uniform(5),
                            ot.FgwConfig(alpha=0.5, max_iters=1))
        assert plan.iterations == 1
        assert plan.status == STATUS_MAX_ITERS

    def test_stationary_infeasible_stop_is_reported(self, rng):
        # BAPG's limit point is only approximately feasible: the iterates
        # stop changing while the row residual stays above tol
        cfg = ot.FgwConfig(alpha=0.5, beta=1.0, max_iters=1000, tol=1e-6)
        plan = ot.bapg_fgwd(bounded_costs(rng, 3, 3), uniform(3),
                            uniform(3), cfg)
        assert plan.status == STATUS_STATIONARY_INFEASIBLE
        assert plan.residual > cfg.tol
        assert plan.iterations < cfg.max_iters

    def test_feasibility(self, rng):
        # large step denominator keeps the iterates near the balanced
        # regime, so they are stationary within tolerance of feasible
        for trial in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            alpha = float(rng.random())
            cfg = ot.FgwConfig(alpha=alpha, beta=20.0, max_iters=5000,
                               tol=1e-2, seed=trial)
            costs = bounded_costs(rng, n, m)
            plan = ot.bapg_fgwd(costs, uniform(n), uniform(m), cfg)
            assert (plan.P >= 0).all()
            assert np.abs(plan.P.sum(axis=0) - uniform(m)).max() <= 1e-12
            assert plan.residual <= cfg.tol
            assert plan.objective >= 0.0

    def test_wd_endpoint_ignores_structure_costs(self, rng):
        # alpha=1: perturbing C1, C2 must change nothing, bit for bit
        n, m = 4, 5
        costs = random_costs(rng, n, m)
        cfg = ot.FgwConfig(alpha=1.0, max_iters=100)
        plan_a = ot.bapg_fgwd(costs, uniform(n), uniform(m), cfg)
        perturbed = ot.CostMatrices(M=costs.M,
                                    C1=ad.Tensor(rng.random((n, n))),
                                    C2=ad.Tensor(rng.random((m, m))),
                                    tau=costs.tau)
        plan_b = ot.bapg_fgwd(perturbed, uniform(n), uniform(m), cfg)
        assert np.array_equal(plan_a.P, plan_b.P)
        assert plan_a.objective == plan_b.objective

    def test_gwd_endpoint_ignores_feature_costs(self, rng):
        n, m = 4, 4
        costs = random_costs(rng, n, m)
        cfg = ot.FgwConfig(alpha=0.0, max_iters=100)
        plan_a = ot.bapg_fgwd(costs, uniform(n), uniform(m), cfg)
        perturbed = ot.CostMatrices(M=ad.Tensor(rng.random((n, m))),
                                    C1=costs.C1, C2=costs.C2, tau=costs.tau)
        plan_b = ot.bapg_fgwd(perturbed, uniform(n), uniform(m), cfg)
        assert np.array_equal(plan_a.P, plan_b.P)
        assert plan_a.objective == plan_b.objective

    def test_wd_endpoint_matches_assignment(self, rng):
        # slow annealing schedule: the iterates settle on the optimal
        # permutation support for generic cost matrices
        cfg = ot.FgwConfig(alpha=1.0, beta=5.0, max_iters=100_000, tol=1e-10)
        for trial in range(5):
            n = int(rng.integers(3, 9))
            M = rng.random((n, n))
            costs = ot.CostMatrices(M=ad.Tensor(M), C1=ad.Tensor(np.eye(n)),
                                    C2=ad.Tensor(np.eye(n)), tau=1.0)
            plan = ot.bapg_fgwd(costs, uniform(n), uniform(n), cfg)
            exact = oracles.wd_exact_small(M, uniform(n), uniform(n))
            assert abs(plan.objective - exact) <= max(0.05 * exact, 1e-3)

    def test_gwd_identity_reaches_zero(self, rng):
        cfg = ot.FgwConfig(alpha=0.0, beta=1.0, max_iters=50_000, tol=1e-10,
                           seed=5)
        for n in (3, 4):
            A = (rng.random((n, n)) < 0.5).astype(float)
            A = np.triu(A, 1)
            A = A + A.T
            costs = ot.build_cost_matrices(A, A, np.zeros((n, 1)),
                                           np.zeros((n, 1)), 1.0)
            plan = ot.bapg_fgwd(costs, uniform(n), uniform(n), cfg)
            assert plan.objective <= 1e-4

    def test_two_by_two_against_grid(self, rng):
        cfg = ot.FgwConfig(alpha=0.3, beta=5.0, max_iters=100_000, tol=1e-10)
        for trial in range(5):
            costs = bounded_costs(rng, 2, 2)
            plan = ot.bapg_fgwd(costs, uniform(2), uniform(2), cfg)
            exact = oracles.fgw_brute_small(costs, cfg)
            assert abs(plan.objective - exact) <= max(0.05 * abs(exact), 1e-3)

    def test_symmetry_small(self, rng):
        cfg = ot.FgwConfig(alpha=0.5, beta=30.0, max_iters=100_000, tol=1e-10)
        for n in (3, 4):
            costs = random_costs(rng, n, n)
            swapped = ot.CostMatrices(M=ad.Tensor(costs.M.data.T.copy()),
                                      C1=costs.C2, C2=costs.C1, tau=costs.tau)
            d1 = ot.bapg_fgwd(costs, uniform(n), uniform(n), cfg).objective
            d2 = ot.bapg_fgwd(swapped, uniform(n), uniform(n), cfg).objective
            assert abs(d1 - d2) <= 1e-3

    def test_small_beta_stays_finite(self, rng):
        # log-space updates must survive steps that underflow linearly
        costs = random_costs(rng, 4, 4)
        cfg = ot.FgwConfig(alpha=0.5, beta=1e-3, max_iters=500, tol=1e-9)
        plan = ot.bapg_fgwd(costs, uniform(4), uniform(4), cfg)
        assert np.isfinite(plan.P).all()
        assert np.isfinite(plan.objective)

    def test_non_finite_costs_abort_with_iteration(self):
        M = np.full((2, 2), np.inf)
        costs = ot.CostMatrices(M=M, C1=np.eye(2), C2=np.eye(2), tau=1.0)
        with pytest.raises(ArithmeticError, match="iteration"):
            ot.bapg_fgwd(costs, uniform(2), uniform(2),
                         ot.FgwConfig(alpha=1.0))

    def test_bad_marginals_rejected(self, rng):
        costs = random_costs(rng, 3, 3)
        cfg = ot.FgwConfig(alpha=0.5)
        with pytest.raises(ValueError, match="mu"):
            ot.bapg_fgwd(costs, np.array([0.5, 0.5, 0.5]), uniform(3), cfg)
        with pytest.raises(ValueError, match="nu"):
            ot.bapg_fgwd(costs, uniform(3), np.array([1.0, 0.0, 0.0]), cfg)

    def test_jittered_init_seeded(self):
        cfg = ot.FgwConfig(alpha=0.5, seed=3)
        a = ot.initial_plan(uniform(3), uniform(4), cfg)
        b = ot.initial_plan(uniform(3), uniform(4), cfg)
        assert np.array_equal(a, b)
        assert a.sum() == pytest.approx(1.0)
        assert not np.array_equal(a, np.outer(uniform(3), uniform(4)))


class TestBapgBatch:
    def _stack(self, rng, b, n, m):
        costs = [bounded_costs(rng, n, m) for _ in range(b)]
        M, C1, C2 = (np.stack([getattr(c, f).data for c in costs])
                     for f in ("M", "C1", "C2"))
        mu = np.tile(uniform(n), (b, 1))
        nu = np.tile(uniform(m), (b, 1))
        return M, C1, C2, mu, nu

    def test_batch_matches_solo_solves(self, rng):
        n, m = 4, 5
        M, C1, C2, mu, nu = self._stack(rng, 6, n, m)
        cfg = ot.FgwConfig(alpha=0.4, beta=1.0, max_iters=250, tol=1e-6)
        P0 = ot.initial_plan(mu, nu, cfg)
        args = (cfg.alpha, cfg.beta, cfg.max_iters, cfg.tol)
        P, iters, status, _ = bapg_batch_numpy(M, C1, C2, mu, nu, *args, P0)
        # problems stop at different iterations, some at the cap
        assert len(set(iters.tolist())) > 2
        assert STATUS_MAX_ITERS in status
        assert (status != STATUS_MAX_ITERS).any()
        for i in range(len(M)):
            solo, it, code, _ = bapg_batch_numpy(
                M[i:i + 1], C1[i:i + 1], C2[i:i + 1], mu[i:i + 1],
                nu[i:i + 1], *args, P0[i:i + 1])
            assert_allclose(P[i], solo[0], rtol=0, atol=1e-12)
            assert (iters[i], status[i]) == (it[0], code[0])

    # beta=0.1 is the `fgwcl distance` default: a 10x larger structure
    # step, where the terms the kernel's half-steps omit are largest. The
    # unflushed reference returns subnormal entries in the 12-12, 9-7 and
    # both beta=0.1 cases, and many exact zeros at 40-30
    @pytest.mark.parametrize(
        "n,m,beta", [(1, 1, 1.0), (4, 4, 1.0), (12, 12, 1.0), (9, 7, 1.0),
                     (9, 7, 0.1), (40, 30, 0.1)],
        ids=["1-1", "4-4", "12-12", "9-7", "9-7-beta0.1", "40-30-beta0.1"])
    def test_matches_reference_iteration(self, rng, n, m, beta):
        args = mixed_stack(rng, n, m, beta)
        P_ref, it_ref, code_ref = reference_bapg_batch(*args)
        mu, eps = args[3], args[8]
        res_ref = np.abs(P_ref.sum(axis=2) - mu).max(axis=1)
        assert code_ref[3] == code_ref[4] == STATUS_NON_FINITE
        if n > 1:
            assert set(code_ref.tolist()) == {
                STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_NON_FINITE,
                STATUS_STATIONARY_INFEASIBLE}
            # the reference stops at the half-step that went non-finite:
            # the row step for problem 3, the column step for problem 4
            assert np.isnan(P_ref[3]).any(axis=1).tolist() == (
                [True] + [False] * (n - 1))
            assert np.isnan(P_ref[4]).any(axis=0).tolist() == (
                [True] + [False] * (m - 1))
        # the whole stack (B=7), then each problem alone (B=1)
        cases = [(args, slice(None))] + [
            (tuple(a[b:b + 1] if isinstance(a, np.ndarray) else a
                   for a in args), slice(b, b + 1)) for b in range(7)]
        for stack, part in cases:
            P, it, code, res = bapg_batch_numpy(*stack)
            assert it.tolist() == it_ref[part].tolist()
            assert code.tolist() == code_ref[part].tolist()
            finite = code != STATUS_NON_FINITE
            assert_allclose(P[finite], P_ref[part][finite], rtol=0,
                            atol=1e-12)
            # the kernel flushes entries below the smallest normal double
            # to 0, so no subnormal reaches its products or its caller
            entries = P[np.isfinite(P)]
            assert not ((entries > 0) & (entries < TINY)).any()
            # the returned residual is the row residual of the plan, and
            # status 3 marks exactly the stationary stops above eps
            assert_allclose(res[finite], res_ref[part][finite], rtol=0,
                            atol=1e-12)
            stationary = np.isin(code, [STATUS_CONVERGED,
                                        STATUS_STATIONARY_INFEASIBLE])
            assert ((code == STATUS_STATIONARY_INFEASIBLE)
                    == (stationary & (res > eps))).all()
            # a non-finite problem reports the iteration that went
            # non-finite and stores its plan as of the end of it
            assert np.isnan(P[~finite]).any(axis=(1, 2)).all()

    def test_underflowing_shift_takes_exact_path(self, rng):
        # one large structure cost puts the solve's bound on the GW term,
        # 2 step max|C1| max|C2| = 2 * 10 * 60 * 1 = 1200, far above the
        # term that the rows of problem 1 away from that entry reach (at
        # most 2 * 10 * 1 * 1 = 20): their shifted exponents lie below
        # -745, so exp underflows to 0 over each of those rows, and the
        # half-step must redo the exp after a shift by the exact row max
        n, m = 6, 5
        M, C1, C2, mu, nu = self._stack(rng, 3, n, m)
        C1[1, 0, 1] = C1[1, 1, 0] = 60.0
        args = (M, C1, C2, mu, nu, 0.5, 0.1, 60, 1e-9,
                ot.initial_plan(mu, nu, ot.FgwConfig(alpha=0.5)))
        P_ref, it_ref, code_ref = reference_bapg_batch(*args)
        assert np.isfinite(P_ref).all()
        assert (code_ref != STATUS_NON_FINITE).all()
        P, it, code, _ = bapg_batch_numpy(*args)
        assert it.tolist() == it_ref.tolist()
        assert code.tolist() == code_ref.tolist()
        assert_allclose(P, P_ref, rtol=0, atol=1e-12)

    def test_leaves_inputs_and_outputs_independent(self, rng):
        args = mixed_stack(rng, 5, 4)
        before = [np.copy(a) for a in args]
        first = bapg_batch_numpy(*args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b, equal_nan=True)
        kept = [np.copy(a) for a in first]
        for a in first:
            a[...] = -1
        second = bapg_batch_numpy(*args)
        for a, b, c in zip(second, kept, first):
            assert np.array_equal(a, b, equal_nan=True)
            assert (c == -1).all()

    def test_overflow_in_batch_raises_with_iteration(self, rng):
        M, C1, C2, mu, nu = self._stack(rng, 3, 3, 3)
        M[1] = np.inf
        cfg = ot.FgwConfig(alpha=0.5, max_iters=20)
        P, iters, status, _ = bapg_batch_numpy(
            M, C1, C2, mu, nu, cfg.alpha, cfg.beta, cfg.max_iters, cfg.tol,
            ot.initial_plan(mu, nu, cfg))
        assert status.tolist() == [STATUS_MAX_ITERS, STATUS_NON_FINITE,
                                   STATUS_MAX_ITERS]
        assert iters[1] == 1
        assert np.isfinite(P[[0, 2]]).all()
        with pytest.raises(ArithmeticError, match="problem 1 at iteration 1"):
            ot.bapg_fgwd_batch(M, C1, C2, mu, nu, cfg)

    @pytest.mark.parametrize("which", ["C1", "C2"])
    def test_structure_cost_overflow_is_non_finite(self, rng, which):
        # the entry's square overflows to inf in the setup, and the fixed
        # gradient terms carry it into the plan as NaN, with no warning
        costs = bounded_costs(rng, 3, 4)
        getattr(costs, which).data[1, 2] = 1e160
        mu, nu = uniform(3), uniform(4)
        cfg = ot.FgwConfig(alpha=0.5, max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, iters, status, _ = bapg_batch_numpy(
                costs.M.data[None], costs.C1.data[None], costs.C2.data[None],
                mu[None], nu[None], cfg.alpha, cfg.beta, cfg.max_iters,
                cfg.tol, ot.initial_plan(mu[None], nu[None], cfg))
            assert status.tolist() == [STATUS_NON_FINITE]
            assert np.isnan(P).any()
            with pytest.raises(ArithmeticError, match="non-finite plan"):
                ot.bapg_fgwd(costs, mu, nu, cfg)

    def test_linear_cost_overflow_gets_no_mass(self, rng):
        # alpha * M / beta overflows to inf in the setup, with no warning;
        # the entry is an infinite cost, so the plan puts no mass there
        costs = bounded_costs(rng, 3, 4)
        M = costs.M.data[None].copy()
        M[0, 1, 2] = 1e308
        mu, nu = uniform(3)[None], uniform(4)[None]
        cfg = ot.FgwConfig(alpha=0.5, beta=0.1, max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, _, _, _ = bapg_batch_numpy(
                M, costs.C1.data[None], costs.C2.data[None], mu, nu,
                cfg.alpha, cfg.beta, cfg.max_iters, cfg.tol,
                ot.initial_plan(mu, nu, cfg))
        assert np.isfinite(P).all()
        assert P[0, 1, 2] == 0.0

    def test_two_dimensional_call_returns_scalars(self, rng):
        costs = bounded_costs(rng, 3, 4)
        P, iters, status = get_backend().bapg(
            costs.M.data, costs.C1.data, costs.C2.data, uniform(3),
            uniform(4), 0.5, 5.0, 7, 1e-9, np.outer(uniform(3), uniform(4)),
            True)
        assert P.shape == (3, 4)
        assert type(iters) is int and type(status) is int
        assert (iters, status) == (7, STATUS_MAX_ITERS)


    def test_alpha_one_skips_structure_but_not_its_overflow(self, rng):
        # the structure step is 0 at alpha = 1, so the kernel skips its
        # products; a non-finite C1 still ends its problem as non-finite
        M, C1, C2, mu, nu = self._stack(rng, 3, 4, 5)
        cfg = ot.FgwConfig(alpha=1.0, beta=1.0, max_iters=40, tol=1e-9)
        args = (cfg.alpha, cfg.beta, cfg.max_iters, cfg.tol,
                ot.initial_plan(mu, nu, cfg))
        P_ref, it_ref, code_ref = reference_bapg_batch(M, C1, C2, mu, nu,
                                                       *args)
        P, it, code, _ = bapg_batch_numpy(M, C1, C2, mu, nu, *args)
        assert it.tolist() == it_ref.tolist()
        assert code.tolist() == code_ref.tolist()
        assert_allclose(P, P_ref, rtol=0, atol=1e-12)
        C1[1, 0, 1] = np.inf
        _, _, code, _ = bapg_batch_numpy(M, C1, C2, mu, nu, *args)
        assert code.tolist() == [code_ref[0], STATUS_NON_FINITE, code_ref[2]]

    def test_stacked_result_has_len_and_int_indexing(self, rng):
        M, C1, C2, mu, nu = self._stack(rng, 4, 3, 5)
        cfg = ot.FgwConfig(alpha=0.4, max_iters=30)
        plans = ot.bapg_fgwd_batch(M, C1, C2, mu, nu, cfg)
        assert len(plans) == 4
        assert plans.P.shape == (4, 3, 5)
        for name in ("iterations", "residual", "status"):
            assert getattr(plans, name).shape == (4,)
        # iteration runs through int indexing
        for b, plan in enumerate(plans):
            assert isinstance(plan, ot.TransportPlan)
            assert plan.objective is None
            assert np.array_equal(plan.P, plans.P[b])
            assert np.array_equal(plan.nu, nu[b])
            assert type(plan.iterations) is int
            assert plan.iterations == plans.iterations[b]
            assert type(plan.status) is int
            assert plan.status == plans.status[b]
            assert plan.residual == plans.residual[b]
        assert len(list(plans)) == 4
        assert np.array_equal(plans[-1].P, plans.P[3])
        with pytest.raises(IndexError):
            plans[4]


def graph_costs(rng, n, degree, weighted, tau=1.0):
    """exp(-A / tau) of a random undirected graph on n nodes with mean
    degree about `degree`; edge weights are 1, or uniform on [0.5, 2]."""
    A = np.triu(rng.random((n, n)) < degree / n, 1).astype(float)
    if weighted:
        A *= rng.uniform(0.5, 2.0, (n, n))
    return np.exp(-(A + A.T) / tau)


def pair_problem(rng, C1, C2, cfg):
    """One (n, m) problem on the structure costs C1 and C2 with a random
    feature cost, as the kernel's positional arguments."""
    n, m = len(C1), len(C2)
    H1, H2 = rng.standard_normal((n, 4)), rng.standard_normal((m, 4))
    mu, nu = uniform(n)[None], uniform(m)[None]
    return (np.exp(-H1 @ H2.T / 2.0)[None], C1[None], C2[None], mu, nu,
            cfg.alpha, cfg.beta, cfg.max_iters, cfg.tol,
            ot.initial_plan(mu, nu, cfg))


def in_form(args, sparse):
    """The kernel's results in the given form of the structure product,
    forced through the selection's constants, with every warning an
    error."""
    rule = (0, math.inf) if sparse else (math.inf, 0.0)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(kernels, "SPARSE_MIN_SIZE", rule[0])
        patch.setattr(kernels, "SPARSE_MAX_SHARE", rule[1])
        warnings.simplefilter("error")
        return bapg_batch_numpy(*args)


def both_forms(args):
    return in_form(args, False), in_form(args, True)


def assert_forms_agree(dense, sparse):
    (P, it, code, res), (P_s, it_s, code_s, res_s) = dense, sparse
    assert it_s.tolist() == it.tolist()
    assert code_s.tolist() == code.tolist()
    assert_allclose(P_s, P, rtol=0, atol=1e-12)
    assert_allclose(res_s, res, rtol=0, atol=1e-12)


class TestSparseStructure:
    """The sparse form of the structure product, E1 X E2^T with
    Ek = Ck - 1, against the dense form C1 X C2^T."""

    @pytest.mark.parametrize("beta", [0.1, 5.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["binary", "weighted"])
    @pytest.mark.parametrize("n,m", [(60, 51), (120, 102), (200, 170)])
    def test_forms_agree(self, rng, n, m, weighted, alpha, beta):
        cfg = ot.FgwConfig(alpha=alpha, beta=beta)
        args = pair_problem(rng, graph_costs(rng, n, 7, weighted),
                            graph_costs(rng, m, 7, weighted), cfg)
        dense, sparse = both_forms(args)
        assert_forms_agree(dense, sparse)
        P, _, code, _ = sparse
        assert np.isfinite(P).all() and STATUS_NON_FINITE not in code
        M, C1, C2 = args[:3]
        assert_allclose(ot.fgw_value(M, C1, C2, P, alpha),
                        ot.fgw_value(M, C1, C2, dense[0], alpha),
                        rtol=1e-12, atol=0)

    def test_stack_of_pairs(self, rng):
        # the sparse form stacks its blocks on one block diagonal; each
        # problem still runs as it would alone
        cfg = ot.FgwConfig(alpha=0.5, beta=0.1)
        problems = [pair_problem(rng, graph_costs(rng, 40, 5, True),
                                 graph_costs(rng, 30, 5, False), cfg)
                    for _ in range(3)]
        stack = tuple(np.concatenate(parts) if isinstance(parts[0],
                                                          np.ndarray)
                      else parts[0] for parts in zip(*problems))
        stacked = both_forms(stack)
        assert_forms_agree(*stacked)
        for b, args in enumerate(problems):
            _, solo = both_forms(args)
            assert_allclose(stacked[1][0][b], solo[0][0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["no-edges", "self-loops", "isolated",
                                      "directed"])
    def test_edge_cases(self, rng, case):
        C1 = graph_costs(rng, 50, 6, True)
        C2 = graph_costs(rng, 40, 6, False)
        if case == "no-edges":
            C1 = np.ones((50, 50))  # E1 = 0, so the product is 0
        elif case == "self-loops":
            np.fill_diagonal(C1, np.exp(-1.5))
            np.fill_diagonal(C2, np.exp(-1.0))
        elif case == "isolated":
            C1[7], C1[:, 7] = 1.0, 1.0
            C2[0], C2[:, 0] = 1.0, 1.0
        else:  # edges above the diagonal of C1, below it in C2
            below = np.tri(50, k=-1, dtype=bool)
            C1 = np.where(below, 1.0, C1)
            C2 = np.where(below[:40, :40].T, 1.0, C2)
        args = pair_problem(rng, C1, C2, ot.FgwConfig(alpha=0.3, beta=0.1))
        assert_forms_agree(*both_forms(args))

    def test_selection(self, rng):
        # training stacks of k x k blocks are far below the size rule,
        # however sparse their subgraphs are
        for k in (4, 10, 12, 30):
            C = np.ones((16, k, k))
            assert not sparse_structure(C, C)
        big = graph_costs(rng, 200, 7, False)[None]
        assert sparse_structure(big, graph_costs(rng, 170, 7, True)[None])
        # a generated view's costs are dense: every entry differs from 1
        view = np.exp(-rng.random((1, 200, 200)))
        assert not sparse_structure(big, view)
        assert not sparse_structure(view, big)
        # the size rule is on n + m, the sparse product's share of the
        # dense product's FLOPs on both graphs' nonzeros
        half = SPARSE_MIN_SIZE // 2
        assert not sparse_structure(np.ones((1, half - 1, half - 1)),
                                    np.ones((1, half, half)))
        assert sparse_structure(np.ones((1, half, half)),
                                np.ones((1, half, half)))
        C1, C2 = np.ones((2, 1, 150, 150))
        C1[0, :15] = C2[0, :, :15] = 0.5  # a tenth of E1 and of E2
        assert not sparse_structure(C1, C2)
        C2[:] = 1.0  # a twentieth of the FLOPs
        assert sparse_structure(C1, C2)

    def test_kernel_takes_the_selected_form(self, rng):
        cfg = ot.FgwConfig(alpha=0.5, beta=0.1, max_iters=20)
        small = pair_problem(rng, graph_costs(rng, 12, 3, False),
                             graph_costs(rng, 12, 3, False), cfg)
        large = pair_problem(rng, graph_costs(rng, 140, 7, False),
                             graph_costs(rng, 119, 7, False), cfg)
        for args, form in ((small, False), (large, True)):
            chosen = bapg_batch_numpy(*args)
            forced = in_form(args, form)
            for a, b in zip(chosen, forced):
                assert np.array_equal(a, b)


class TestObjectiveTape:
    def test_taped_objective_matches_solver_value(self, rng):
        costs = random_costs(rng, 4, 3)
        cfg = ot.FgwConfig(alpha=0.3, max_iters=200)
        plan = ot.bapg_fgwd(costs, uniform(4), uniform(3), cfg)
        obj = ot.fgw_objective(costs, plan.P, cfg.alpha)
        assert obj.item == pytest.approx(plan.objective, rel=1e-12)

    def test_objective_gradients_reach_inputs(self, rng):
        # plan held constant; gradient flows through M, C1, C2 only
        n, m = 3, 4
        P = rng.random((n, m))
        P /= P.sum()
        params = {"A1": rng.random((n, n)), "A2": rng.random((m, m)),
                  "H1": rng.standard_normal((n, 5)),
                  "H2": rng.standard_normal((m, 5))}

        def build(p):
            costs = ot.build_cost_matrices(p["A1"], p["A2"], p["H1"], p["H2"],
                                           1.2)
            return ot.fgw_objective(costs, P, 0.4)

        check_grad(build, params, tol=5e-6)


class TestWdOracle:
    def test_identity_cost(self):
        M = 1.0 - np.eye(4)
        assert oracles.wd_exact_small(M, uniform(4), uniform(4)) == 0.0

    def test_all_ones(self):
        M = np.ones((3, 3))
        assert oracles.wd_exact_small(M, uniform(3), uniform(3)) == pytest.approx(1.0)

    def test_matches_permutation_enumeration(self, rng):
        for _ in range(5):
            n = 4
            M = rng.random((n, n))
            best = min(sum(M[i, p[i]] for i in range(n)) / n
                       for p in itertools.permutations(range(n)))
            assert oracles.wd_exact_small(M, uniform(n), uniform(n)) == pytest.approx(best)

    def test_scope_rejections(self, rng):
        with pytest.raises(ValueError):
            oracles.wd_exact_small(rng.random((3, 4)), uniform(3), uniform(4))
        with pytest.raises(ValueError):
            oracles.wd_exact_small(rng.random((11, 11)), uniform(11), uniform(11))
        with pytest.raises(ValueError):
            oracles.wd_exact_small(rng.random((3, 3)),
                                   np.array([0.6, 0.2, 0.2]), uniform(3))


class TestBruteOracle:
    def test_alpha_one_matches_linear_closed_form(self, rng):
        # objective is affine in t, so the min sits at an endpoint
        costs = random_costs(rng, 2, 2)
        cfg = ot.FgwConfig(alpha=1.0)
        M = costs.M.data

        def linear(t):
            P = np.array([[t, 0.5 - t], [0.5 - t, t]])
            return float((M * P).sum())

        assert oracles.fgw_brute_small(costs, cfg) == pytest.approx(
            min(linear(0.0), linear(0.5)), abs=1e-9)

    def test_gw_identity_zero(self, rng):
        A = rng.random((2, 2))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        costs = ot.build_cost_matrices(A, A, np.zeros((2, 1)),
                                       np.zeros((2, 1)), 1.0)
        assert oracles.fgw_brute_small(costs, ot.FgwConfig(alpha=0.0)) == pytest.approx(
            0.0, abs=1e-7)

    def test_scope_rejection(self, rng):
        costs = random_costs(rng, 3, 3)
        with pytest.raises(ValueError):
            oracles.fgw_brute_small(costs, ot.FgwConfig(alpha=0.5))
