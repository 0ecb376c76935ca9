"""Fused Gromov-Wasserstein distances between measured subgraphs.

The distance interpolates a feature transport cost M against a structure
cost built from intra-graph cost matrices C1, C2:

    FGW(alpha) = min_P < alpha*M + (1-alpha) * (L(C1,C2) tensor P), P >

over couplings P with row marginals mu and column marginals nu, where
L_ijkl = (C1[i,k] - C2[j,l])^2. alpha=1 recovers the Wasserstein distance
of M; alpha=0 the Gromov-Wasserstein distance of (C1, C2).

The minimization runs through the BAPG kernels (see kernels.py), on one
problem or a stack of them; a stack's plans come back as one
TransportPlans of stacked arrays. The plans are treated as constants,
and gradients reach the encoder only through the cost matrices in the
final objective evaluation (envelope-style differentiation). That
evaluation is one fused tape op for a whole stack, fgw_batch, with the
closed-form gradient of the factorized objective (Peyre, Cuturi &
Solomon, 2016); a stack's solve computes no objective of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _lift
from .config import check_integers
from .kernels import STATUS_NON_FINITE, KernelBackend, get_backend
from .kernels import tensor_product_numpy as tensor_product

# relative size of the seeded jitter on the initial coupling mu nu^T
INIT_JITTER = 1e-3


@dataclass
class FgwConfig:
    """Solver settings: interpolation weight, step size, iteration budget."""

    alpha: float
    beta: float = 0.1
    max_iters: int = 50
    tol: float = 1e-6
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("beta", "tol", "tau"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        check_integers(max_iters=self.max_iters, seed=self.seed)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    iterations: int
    residual: float  # max abs row-marginal violation; columns are exact
    status: int  # a kernels.STATUS_* code other than STATUS_NON_FINITE
    objective: Optional[float] = None  # set by bapg_fgwd only


@dataclass
class TransportPlans:
    """The solved plans of B stacked problems: P (B, n, m), the marginals
    mu (B, n) and nu (B, m), and the per-problem iteration counts, row
    residuals and status codes, each (B,). len() and int indexing (so
    iteration too) give one problem's TransportPlan, with no objective."""

    P: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return self.P.shape[0]

    def __getitem__(self, b: int) -> TransportPlan:
        return TransportPlan(P=self.P[b], mu=self.mu[b], nu=self.nu[b],
                             iterations=int(self.iterations[b]),
                             residual=float(self.residual[b]),
                             status=int(self.status[b]))


def _cost_arrays(costs: CostMatrices) -> tuple[np.ndarray, ...]:
    """M, C1 and C2 as plain contiguous arrays, taped or not."""
    return tuple(np.ascontiguousarray(x.data if isinstance(x, Tensor) else x)
                 for x in (costs.M, costs.C1, costs.C2))


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


def fgw_value(M, C1, C2, P, alpha: float):
    """< alpha*M + (1-alpha)*(L tensor P), P > on plain arrays, for one
    problem or per problem of a stack."""
    lp = tensor_product(C1, C2, P)
    return ((alpha * M + (1.0 - alpha) * lp) * P).sum(axis=(-2, -1))


def fgw_batch(M, C1, C2, P: np.ndarray, alpha: float) -> Tensor:
    """Per-problem FGW objectives < alpha*M_b + (1-alpha)*(L tensor P_b), P_b >
    of B stacked problems, as a (B, 1) tensor, with the plans P (B, n, m)
    held constant. M stacks the (n, m) blocks M_b as a (B*n, m) matrix,
    C1 the (n, n) blocks as (B*n, n) and C2 the (m, m) blocks as (B*m, m).

    One tape op. With p = P_b 1 and q = P_b^T 1 its backward is
    dM_b = alpha P_b, dC1_b = (1-alpha)(2 C1_b o pp^T - 2 P_b C2_b P_b^T)
    and dC2_b = (1-alpha)(2 C2_b o qq^T - 2 P_b^T C1_b P_b).
    """
    M, C1, C2 = _lift(M), _lift(C1), _lift(C2)
    P = np.asarray(P, dtype=np.float64)
    B, n, m = P.shape
    if (M.shape != (B * n, m) or C1.shape != (B * n, n)
            or C2.shape != (B * m, m)):
        raise ValueError(f"fgw_batch: cost shapes {M.shape}, {C1.shape}, "
                         f"{C2.shape} do not stack {B} problems of {n}x{m}")
    C13 = C1.data.reshape(B, n, n)
    C23 = C2.data.reshape(B, m, m)
    value = fgw_value(M.data.reshape(B, n, m), C13, C23, P, alpha)

    def back(g):
        gb = g.reshape(B, 1, 1)
        p = P.sum(axis=2)
        q = P.sum(axis=1)
        Pt = P.transpose(0, 2, 1)
        scale = 2.0 * (1.0 - alpha) * gb
        dM = (alpha * gb) * P
        dC1 = scale * (C13 * (p[:, :, None] * p[:, None, :]) - P @ C23 @ Pt)
        dC2 = scale * (C23 * (q[:, :, None] * q[:, None, :]) - Pt @ C13 @ P)
        return (dM.reshape(M.shape), dC1.reshape(C1.shape),
                dC2.reshape(C2.shape))

    return ad.make_op("fgw_batch", (M, C1, C2), value[:, None], back)


def fgw_objective(costs: CostMatrices, P: np.ndarray, alpha: float) -> Tensor:
    """< alpha*M + (1-alpha)*(L tensor P), P > with P held constant."""
    return fgw_batch(costs.M, costs.C1, costs.C2, np.asarray(P)[None], alpha)


def initial_plan(mu: np.ndarray, nu: np.ndarray, cfg: FgwConfig) -> np.ndarray:
    """Independent coupling mu nu^T with a small seeded jitter.

    The jitter breaks the symmetric stationary point the plain product
    initialization sits on when C1 = C2. Stacked marginals (B, n) and
    (B, m) give a (B, n, m) stack in which every problem gets the jitter a
    solo call would give it.
    """
    P0 = mu[..., :, None] * nu[..., None, :]
    rng = np.random.default_rng(cfg.seed)
    P0 = P0 * (1.0 + INIT_JITTER * rng.random(P0.shape[-2:]))
    return P0 / P0.sum(axis=(-2, -1), keepdims=True)


def _check_marginal(name: str, w: np.ndarray, size: int) -> np.ndarray:
    w = np.ascontiguousarray(w, dtype=np.float64).ravel()
    if w.shape != (size,):
        raise ValueError(f"{name} has length {w.size}, expected {size}")
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError(f"{name} must be finite and strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {w.sum()}")
    return w


def bapg_fgwd(costs: CostMatrices, mu, nu, cfg: FgwConfig,
              backend: KernelBackend | None = None) -> TransportPlan:
    """Solve for the transport plan and evaluate the FGW objective at it."""
    M, C1, C2 = (x[None] for x in _cost_arrays(costs))
    _, n, m = M.shape
    mu = _check_marginal("mu", mu, n)[None]
    nu = _check_marginal("nu", nu, m)[None]
    plan = bapg_fgwd_batch(M, C1, C2, mu, nu, cfg, backend)[0]
    plan.objective = float(fgw_value(M, C1, C2, plan.P[None], cfg.alpha)[0])
    return plan


def bapg_fgwd_batch(M: np.ndarray, C1: np.ndarray, C2: np.ndarray,
                    mu: np.ndarray, nu: np.ndarray, cfg: FgwConfig,
                    backend: KernelBackend | None = None
                    ) -> TransportPlans:
    """The BAPG plans of a stack of B problems, from one kernel call: M is
    (B, n, m), C1 (B, n, n), C2 (B, m, m), mu (B, n) and nu (B, m) hold
    valid marginals. Computes no objective."""
    if backend is None:
        backend = get_backend()
    P, iters, status, residual = backend.bapg_batch(
        M, C1, C2, mu, nu, float(cfg.alpha), float(cfg.beta),
        int(cfg.max_iters), float(cfg.tol), initial_plan(mu, nu, cfg))
    bad = np.flatnonzero(status == STATUS_NON_FINITE)
    if bad.size:
        b = int(bad[0])
        raise ArithmeticError(
            f"bapg_fgwd: non-finite plan in problem {b} at iteration "
            f"{iters[b]} (beta={cfg.beta}, alpha={cfg.alpha}); consider a "
            f"larger beta")
    return TransportPlans(P=P, mu=mu, nu=nu, iterations=iters,
                          residual=residual, status=status)
