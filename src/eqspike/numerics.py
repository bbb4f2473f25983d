"""Finiteness checks, weight init, flat parameter buffers and Adam.

Matrices are plain float64 numpy arrays; these helpers add the shape
checking and finiteness guarantees the rest of the package relies on.
A model keeps its parameters as named views into one flat buffer
(`FlatParams`), so that Adam updates them all in one element-wise pass.
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
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}")
    return x


def init_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform init in [-1/sqrt(cols), +1/sqrt(cols)], cols being the fan-in."""
    bound = 1.0 / np.sqrt(cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


class FlatParams(dict):
    """Named float64 arrays kept as views into one flat buffer, `flat`.

    `FlatParams(arrays)` copies `arrays` into a new buffer, in their order;
    `layout` maps each name to its slice of `flat` and its shape.  Entries
    are written in place, never replaced, so an element-wise update of
    `flat` updates every entry and a copy of `flat` snapshots them all.
    """

    def __init__(self, arrays: dict):
        self.layout, size = {}, 0
        for name, a in arrays.items():
            shape = np.shape(a)
            n = int(np.prod(shape))
            self.layout[name] = (slice(size, size + n), shape)
            size += n
        self.flat = np.empty(size)
        super().__init__(self._views())
        for name, a in arrays.items():
            self[name][...] = a

    def _views(self) -> dict:
        return {name: self.flat[s].reshape(shape)
                for name, (s, shape) in self.layout.items()}

    def zeros(self) -> "FlatParams":
        """A zero buffer of this layout with every entry: a gradient sum's
        start."""
        out = FlatParams.__new__(FlatParams)
        out.layout, out.flat = self.layout, np.zeros(self.flat.size)
        out.update(out._views())
        return out


@dataclass
class AdamState:
    """Adam's settings, step counter and moments.

    `m` and `v` map a parameter buffer's names (the tuple of its layout's
    keys) to its first and second moments, flat arrays in its layout.
    """
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step_many(params: list, grads: list, state: AdamState) -> None:
    """One in-place Adam step (one step counter tick) over parameter buffers.

    `params` are FlatParams and `grads` their gradient buffers, in the same
    order, each a `FlatParams.zeros` of its parameters' layout.  Every
    gradient buffer's layout and finiteness is checked before anything is
    written, so a ShapeError or NumericError leaves the parameters and
    `state` as they were.  Each buffer then takes one element-wise update
    of its flat parameter, gradient and moment arrays, which is bitwise
    the update of each entry on its own.

    A parameter whose gradient and moments are zero keeps its exact value
    (`eps > 0`).  So a fresh `AdamState` per training stage leaves a
    parameter the stage's loss never reaches as it was, moments included.
    """
    if len(params) != len(grads):
        raise ShapeError(f"adam: {len(params)} parameter buffers vs "
                         f"{len(grads)} gradient buffers")
    for p, g in zip(params, grads):
        if g.layout != p.layout:
            raise ShapeError("adam: a gradient buffer's layout is not its "
                             "parameters'")
        if not np.isfinite(g.flat).all():
            bad = next(k for k, (s, _) in g.layout.items()
                       if not np.isfinite(g.flat[s]).all())
            raise NumericError(f"non-finite gradient for {bad}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1, bias2 = 1 - b1 ** state.step, 1 - b2 ** state.step
    for p, g in zip(params, grads):
        key = tuple(p.layout)
        if key not in state.m:
            state.m[key] = np.zeros(p.flat.size)
            state.v[key] = np.zeros(p.flat.size)
        grad, m, v = g.flat, state.m[key], state.v[key]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # p -= lr m^ / (sqrt(v^) + eps), operation by operation, but in
        # place and in two scratch arrays: a temporary per operation
        # took about twice as long at the default shape
        m *= b1
        tmp = (1 - b1) * grad
        m += tmp
        np.multiply(grad, grad, out=tmp)
        tmp *= 1 - b2
        v *= b2
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step = m / bias1
        step *= state.lr
        step /= tmp
        p.flat -= step
