"""Fused Gromov-Wasserstein distances between measured subgraphs.

The distance interpolates a feature transport cost M against a structure
cost built from intra-graph cost matrices C1, C2:

    FGW(alpha) = min_P < alpha*M + (1-alpha) * (L(C1,C2) tensor P), P >

over couplings P with row marginals mu and column marginals nu, where
L_ijkl = (C1[i,k] - C2[j,l])^2. alpha=1 recovers the Wasserstein distance
of M; alpha=0 the Gromov-Wasserstein distance of (C1, C2).

The minimization runs through the BAPG kernels (see kernels.py); the
returned plan is treated as a constant, and gradients reach the encoder
only through the cost matrices in the final objective evaluation
(envelope-style differentiation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Tensor
from .kernels import STATUS_NON_FINITE, KernelBackend, get_backend
from .kernels import tensor_product_numpy as tensor_product


@dataclass
class FgwConfig:
    """Solver settings: interpolation weight, step size, iteration budget."""

    alpha: float
    beta: float = 0.1
    max_iters: int = 50
    tol: float = 1e-6
    tau: float = 1.0
    seed: int = 0
    init_jitter: float = 1e-3  # 0 starts from exactly mu nu^T
    plain_stop: bool = False  # Frobenius-change rule only, no residual check

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.init_jitter < 0:
            raise ValueError(f"init_jitter must be >= 0, got {self.init_jitter}")


@dataclass
class CostMatrices:
    """Taped cost matrices; entries are strictly positive and finite."""

    M: Tensor
    C1: Tensor
    C2: Tensor
    tau: float


@dataclass
class TransportPlan:
    P: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    objective: float
    iterations: int
    residual: float  # max abs row-marginal violation; columns are exact
    status: int  # kernels.STATUS_CONVERGED or STATUS_MAX_ITERS


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def build_cost_matrices(A1, A2, H1, H2, tau: float) -> CostMatrices:
    """Elementwise-exponential costs M=exp(-H1 H2^T / tau), Ck=exp(-Ak / tau).

    Participates in the tape: gradients flow into H1, H2 and, when A2 is a
    taped similarity matrix of a generated view, into A2 as well.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    A1, A2, H1, H2 = _lift(A1), _lift(A2), _lift(H1), _lift(H2)
    if H1.shape[1] != H2.shape[1]:
        raise ValueError(f"feature dims differ: {H1.shape} vs {H2.shape}")
    if A1.shape != (H1.shape[0],) * 2 or A2.shape != (H2.shape[0],) * 2:
        raise ValueError("adjacency shapes do not match embedding row counts")
    scale = ad.constant(-1.0 / tau)
    M = ad.exp(ad.mul(ad.matmul(H1, ad.transpose(H2)), scale))
    C1 = ad.exp(ad.mul(A1, scale))
    C2 = ad.exp(ad.mul(A2, scale))
    return CostMatrices(M=M, C1=C1, C2=C2, tau=tau)


def tensor_product_taped(C1: Tensor, C2: Tensor, P: np.ndarray) -> Tensor:
    """Taped twin of the factorized tensor product; P is a constant."""
    p = ad.constant(P.sum(axis=1).reshape(-1, 1))
    q = ad.constant(P.sum(axis=0).reshape(-1, 1))
    term_rows = ad.matmul(ad.mul(C1, C1), p)
    term_cols = ad.matmul(ad.mul(C2, C2), q)
    cross = ad.matmul(ad.matmul(C1, ad.constant(P)), ad.transpose(C2))
    return ad.add(ad.add(term_rows, ad.transpose(term_cols)),
                  ad.mul(cross, ad.constant(-2.0)))


def fgw_objective(costs: CostMatrices, P: np.ndarray, alpha: float) -> Tensor:
    """< alpha*M + (1-alpha)*(L tensor P), P > with P held constant."""
    Pc = ad.constant(P)
    blended = ad.add(ad.mul(costs.M, ad.constant(alpha)),
                     ad.mul(tensor_product_taped(costs.C1, costs.C2, P),
                            ad.constant(1.0 - alpha)))
    return ad.sum_all(ad.mul(blended, Pc))


def initial_plan(mu: np.ndarray, nu: np.ndarray, cfg: FgwConfig) -> np.ndarray:
    """Independent coupling mu nu^T, by default with a small seeded jitter.

    The jitter breaks the symmetric stationary point the plain product
    initialization sits on when C1 = C2; init_jitter=0 keeps exactly mu nu^T.
    """
    P0 = np.outer(mu, nu)
    if cfg.init_jitter == 0.0:
        return P0
    rng = np.random.default_rng(cfg.seed)
    P0 = P0 * (1.0 + cfg.init_jitter * rng.random(P0.shape))
    return P0 / P0.sum()


def _check_marginal(name: str, w: np.ndarray, size: int) -> np.ndarray:
    w = np.ascontiguousarray(w, dtype=np.float64).ravel()
    if w.shape != (size,):
        raise ValueError(f"{name} has length {w.size}, expected {size}")
    if (w <= 0).any():
        raise ValueError(f"{name} must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {w.sum()}")
    return w


def bapg_fgwd(costs: CostMatrices, mu, nu, cfg: FgwConfig,
              backend: KernelBackend | None = None) -> TransportPlan:
    """Solve for the transport plan and evaluate the FGW objective at it."""
    if backend is None:
        backend = get_backend()
    M = np.ascontiguousarray(costs.M.data if isinstance(costs.M, Tensor) else costs.M)
    C1 = np.ascontiguousarray(costs.C1.data if isinstance(costs.C1, Tensor) else costs.C1)
    C2 = np.ascontiguousarray(costs.C2.data if isinstance(costs.C2, Tensor) else costs.C2)
    n, m = M.shape
    mu = _check_marginal("mu", mu, n)
    nu = _check_marginal("nu", nu, m)
    P0 = initial_plan(mu, nu, cfg)
    P, iters, status = backend.bapg(M, C1, C2, mu, nu, float(cfg.alpha),
                                    float(cfg.beta), int(cfg.max_iters),
                                    float(cfg.tol), P0,
                                    not cfg.plain_stop)
    if status == STATUS_NON_FINITE:
        raise ArithmeticError(
            f"bapg_fgwd: non-finite plan at iteration {iters} "
            f"(beta={cfg.beta}, alpha={cfg.alpha}); consider a larger beta")
    lp = tensor_product(C1, C2, P)
    objective = float(((cfg.alpha * M + (1.0 - cfg.alpha) * lp) * P).sum())
    residual = float(np.abs(P.sum(axis=1) - mu).max())
    return TransportPlan(P=P, mu=mu, nu=nu, objective=objective,
                         iterations=int(iters), residual=residual,
                         status=int(status))


def wd_exact_small(M: np.ndarray, mu, nu) -> float:
    """Exact Wasserstein value for small square uniform problems.

    The LP optimum over the coupling polytope with uniform marginals is
    attained at a permutation vertex, so an assignment solve is exact.
    """
    M = np.asarray(M, dtype=np.float64)
    n, m = M.shape
    if n != m or n > 10:
        raise ValueError(f"oracle scope is square problems up to 10, got {M.shape}")
    mu = np.asarray(mu, dtype=np.float64).ravel()
    nu = np.asarray(nu, dtype=np.float64).ravel()
    uniform = np.full(n, 1.0 / n)
    if not (np.allclose(mu, uniform, atol=1e-12)
            and np.allclose(nu, uniform, atol=1e-12)):
        raise ValueError("oracle scope is uniform marginals")
    rows, cols = linear_sum_assignment(M)
    return float(M[rows, cols].sum() / n)


def _coupling_2x2(t: float) -> np.ndarray:
    return np.array([[t, 0.5 - t], [0.5 - t, t]])


def fgw_brute_small(costs: CostMatrices, cfg: FgwConfig) -> float:
    """Exact 2x2 FGW with uniform marginals by grid search over the single
    free coupling parameter t in P(t) = [[t, 1/2-t], [1/2-t, t]]."""
    M = costs.M.data if isinstance(costs.M, Tensor) else np.asarray(costs.M)
    C1 = costs.C1.data if isinstance(costs.C1, Tensor) else np.asarray(costs.C1)
    C2 = costs.C2.data if isinstance(costs.C2, Tensor) else np.asarray(costs.C2)
    if M.shape != (2, 2):
        raise ValueError(f"oracle scope is 2x2 problems, got {M.shape}")

    def objective(t):
        P = _coupling_2x2(t)
        lp = tensor_product(C1, C2, P)
        return float(((cfg.alpha * M + (1.0 - cfg.alpha) * lp) * P).sum())

    grid = np.linspace(0.0, 0.5, 10_000)
    values = np.array([objective(t) for t in grid])
    best = int(values.argmin())
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    fine = np.linspace(lo, hi, 2_000)
    fine_values = np.array([objective(t) for t in fine])
    return float(min(values.min(), fine_values.min()))
