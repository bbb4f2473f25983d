"""Finiteness checks, weight init and Adam.

Matrices are plain float64 numpy arrays; these helpers add the shape
checking and finiteness guarantees the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


class NumericError(ArithmeticError):
    pass


def check_finite(x, what="value"):
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite {what}")
    return x


def init_uniform(rng: np.random.Generator, rows: int, cols: int,
                 fan_in: int | None = None) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    fan = cols if fan_in is None else fan_in
    bound = 1.0 / np.sqrt(fan)
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def update(self, name: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One Adam update for a named parameter; returns the new value."""
        if name not in self.m:
            self.m[name] = np.zeros_like(param)
            self.v[name] = np.zeros_like(param)
        m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * grad
        v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * grad ** 2
        t = max(self.step, 1)
        mhat = m / (1 - self.beta1 ** t)
        vhat = v / (1 - self.beta2 ** t)
        return param - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def adam_step_many(params: dict, grads: dict, state: AdamState) -> None:
    """In-place Adam step over a dict of parameters (one step counter tick).

    Parameters without a gradient are skipped.  Every gradient's shape and
    finiteness is checked before anything is written, so a ShapeError or
    NumericError leaves the parameters and `state` as they were.
    """
    todo = [(name, p, grads[name]) for name, p in params.items() if name in grads]
    for name, p, g in todo:
        if p.shape != g.shape:
            raise ShapeError(f"adam: param {p.shape} vs grad {g.shape} for {name}")
        check_finite(g, f"gradient for {name}")
    state.step += 1
    for name, p, g in todo:
        p[...] = state.update(name, p, g)
