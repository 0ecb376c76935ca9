"""Shared helpers: finite-difference gradient checking against the tape."""

import numpy as np
import pytest

from fgwcl import autodiff as ad
from fgwcl.config import TrainConfig
from fgwcl.graph import CsbmParams, generate_csbm


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of scalar-valued f at array x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def check_grad(build, params, h=1e-5, tol=1e-6):
    """Compare tape gradients of ``build(tensors) -> scalar Tensor`` with
    central finite differences over every entry of every parameter array.

    ``params`` maps names to numpy arrays; ``build`` receives a dict of
    Tensor leaves keyed the same way and must evaluate the full forward
    pass from them (it runs once per perturbed entry).
    """
    ad.reset_tape()
    leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
    loss = build(leaves)
    ad.backward(loss)
    analytic = {k: leaves[k].grad for k in params}

    for name, base in params.items():
        def scalar(x, _name=name):
            ad.reset_tape()
            trial = {
                k: ad.Tensor(x if k == _name else v, requires_grad=False)
                for k, v in params.items()
            }
            return build(trial).item

        numeric = fd_gradient(scalar, np.asarray(base, dtype=np.float64), h=h)
        got = analytic[name]
        assert got is not None, f"no gradient reached parameter {name!r}"
        err = rel_err(got, numeric)
        assert err < tol, f"gradient mismatch for {name!r}: rel err {err:.3e}"


def tiny_graph(seed=0, n=60):
    return generate_csbm(CsbmParams(n=n, feature_dim=8, p=0.25, q=0.03,
                                    mu_sig=1.0, seed=seed))


def tiny_config(**kw):
    """A training config small enough for a few epochs in under a second."""
    base = dict(lr=2e-3, lr_fusion=2e-3, alpha=0.5, beta=5.0, k=4, tau=1.0,
                beta1=0.1, num_anchors=6, num_negatives=2, epochs=3,
                hidden_dim=8, out_dim=6, seed=0, bapg_iters=10)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
