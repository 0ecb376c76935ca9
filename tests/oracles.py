"""Exact answers for small instances, to check the library against.

The Wasserstein value of a small uniform problem by an assignment solve,
the 2x2 FGW value by grid search over its one free coupling parameter,
and a dense induced-subgraph slice of a sparse adjacency. They live with
the tests because only tests call them: the assignment solve needs
scipy.optimize, which the library itself never imports.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from fgwcl.kernels import tensor_product_numpy as tensor_product
from fgwcl.ot import CostMatrices, FgwConfig, _cost_arrays


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
    M, C1, C2 = _cost_arrays(costs)
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


def induced_subgraph(adj, indices) -> np.ndarray:
    """Dense symmetric |S| x |S| adjacency slice A[S; S]."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if np.unique(idx).size != idx.size:
        raise ValueError("induced_subgraph: duplicate indices")
    adj = sp.csr_matrix(adj)
    return np.asarray(adj[np.ix_(idx, idx)].todense(), dtype=np.float64)
