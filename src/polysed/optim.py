"""AdaDelta parameter updates.

The update is Zeiler's rule (arXiv 1212.5701) with the method's fixed decay
``RHO`` = 0.95 and conditioner ``EPSILON`` = 1e-6, and no learning-rate
multiplier (the paper's "lr 1.0"):

    E[g2]  <- rho * E[g2] + (1 - rho) * g^2
    delta  =  - sqrt(E[dx2] + eps) / sqrt(E[g2] + eps) * g
    E[dx2] <- rho * E[dx2] + (1 - rho) * delta^2

Both accumulators start at zero and stay nonnegative; a zero gradient leaves
the parameters untouched, so it is a fixed point of the update.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .tensor import Tensor

RHO = 0.95
EPSILON = 1e-6


@dataclass
class AdaDeltaState:
    """Per-parameter running averages of squared gradients and updates."""

    acc_grad_sq: dict = field(default_factory=dict)
    acc_delta_sq: dict = field(default_factory=dict)


def adadelta_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                  state: AdaDeltaState) -> dict[str, Tensor]:
    """One optimizer step; returns fresh parameter tensors, advances `state`."""
    updated: dict[str, Tensor] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=p.data.dtype)
        if g.shape != p.shape:
            raise NumericError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}; step aborted")
        eg = state.acc_grad_sq.get(name)
        ed = state.acc_delta_sq.get(name)
        if eg is None:
            eg = np.zeros_like(p.data)
            ed = np.zeros_like(p.data)
        eg = RHO * eg + (1.0 - RHO) * g * g
        delta = -np.sqrt(ed + EPSILON) / np.sqrt(eg + EPSILON) * g
        ed = RHO * ed + (1.0 - RHO) * delta * delta
        state.acc_grad_sq[name] = eg
        state.acc_delta_sq[name] = ed
        updated[name] = Tensor(p.data + delta, requires_grad=True)
    return updated
