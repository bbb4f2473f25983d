"""Finiteness checks, weight init, Adam, and the finite-difference test oracle.

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

    def begin_step(self):
        self.step += 1

    def update(self, name: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One Adam update for a named parameter; returns the new value."""
        if param.shape != grad.shape:
            raise ShapeError(f"adam: param {param.shape} vs grad {grad.shape}")
        check_finite(grad, f"gradient for {name}")
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
    """In-place Adam step over a dict of parameters (one step counter tick)."""
    state.begin_step()
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        p[...] = state.update(name, p, g)


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite function value in finite differences")
        gflat[i] = (fp - fm) / (2 * h)
    return grad
