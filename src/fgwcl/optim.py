"""Adam optimizer over named parameter sets.

Parameters are passed as a name -> Tensor mapping so that different groups
(for example the fusion weight networks, which train under their own
learning rate) can each hold a separate state.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"adam: learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    Gradients are left untouched; the caller resets them between steps so
    that deliberate gradient accumulation across backward calls still works.
    """
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: no gradient for parameter {missing[0]!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
