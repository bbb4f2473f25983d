"""Minimal reverse-mode automatic differentiation over numpy arrays.

Supports exactly the operations the encoder stack needs: broadcasted
arithmetic, (batched) matmul, reductions, exp/log/sqrt/erf, softmax,
embedding lookup, and the [0,1] clip used as the spiking-rate surrogate.
A training step tapes one forward pass and runs `backward` over it once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, vjp):
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(data)


# -- primitives ---------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), vjp)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), vjp)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data ** 2), b.data.shape))

    return _make(out, (a, b), vjp)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def vjp(g):
        # promote 1-D operands so the matrix rules apply, then squeeze back
        ad_ = a.data if a.data.ndim > 1 else a.data[None, :]
        bd = b.data if b.data.ndim > 1 else b.data[:, None]
        g1 = g
        if a.data.ndim == 1:
            g1 = np.expand_dims(g1, -2)
        if b.data.ndim == 1:
            g1 = np.expand_dims(g1, -1)
        ga = g1 @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad_, -1, -2) @ g1
        if a.data.ndim == 1:
            ga = ga.reshape(-1, a.data.shape[0]).sum(axis=0)
        if b.data.ndim == 1:
            gb = gb.reshape(-1, b.data.shape[0], 1)[..., 0].sum(axis=0) \
                if gb.ndim > 2 else gb[:, 0]
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(out, (a, b), vjp)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _make(out, (a,), vjp)


def log(a):
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _make(out, (a,), vjp)


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), vjp)


def erf(a):
    a = as_tensor(a)
    out = _erf(a.data)

    def vjp(g):
        return (g * (2.0 / math.sqrt(math.pi)) * np.exp(-a.data ** 2),)

    return _make(out, (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def transpose(a, axes):
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make(out, (a,), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), vjp)


def getitem(a, idx):
    a = as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), vjp)


def take_rows(table, indices):
    """Embedding lookup: rows of `table` at integer `indices`."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    out = table.data[idx]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (table,), vjp)


def clip01(a):
    """Clip to [0,1]; subgradient 1 on the closed interval, 0 outside.

    The boundary convention (derivative 1 at exactly 0 and 1) keeps units
    trainable when a fixed point lands on the clip boundary.
    """
    a = as_tensor(a)
    out = np.clip(a.data, 0.0, 1.0)
    mask = (a.data >= 0.0) & (a.data <= 1.0)

    def vjp(g):
        return (g * mask,)

    return _make(out, (a,), vjp)


def ste(latent, forward_value):
    """Straight-through op: forward `forward_value`, backward identity to `latent`."""
    latent = as_tensor(latent)
    out = np.asarray(forward_value, dtype=np.float64)
    if out.shape != latent.data.shape:
        raise ValueError("STE forward value must match latent shape")

    def vjp(g):
        return (g,)

    return _make(out, (latent,), vjp)


# -- composites ---------------------------------------------------------

def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = sub(a, np.max(a.data, axis=axis, keepdims=True))
    e = exp(shifted)
    return div(e, tensor_sum(e, axis=axis, keepdims=True))


def gelu(a):
    a = as_tensor(a)
    return mul(mul(a, 0.5), add(erf(mul(a, 1.0 / math.sqrt(2.0))), 1.0))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then affine (gain, bias)."""
    mu = mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    inv = div(1.0, sqrt(add(var, eps)))
    return add(mul(mul(xc, inv), gain), bias)


def cross_entropy(logits, label):
    """Negative log-likelihood of `label` under softmax(logits); logits 1-D."""
    logits = as_tensor(logits)
    m = float(np.max(logits.data))
    lse = add(log(tensor_sum(exp(sub(logits, m)))), m)
    return sub(lse, getitem(logits, int(label)))


# -- backward pass ------------------------------------------------------

def _toposort(roots):
    order, seen, stack = [], set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        pending = [p for p in node._parents if id(p) not in seen]
        if pending:
            stack.append(node)
            stack.extend(pending)
        else:
            seen.add(id(node))
            order.append(node)
    return order


def backward(outputs, cotangents):
    """Accumulate grads of `outputs` (seeded with `cotangents`) into leaf .grad.

    Clears grads in the touched subgraph first, so a graph can be replayed
    with fresh cotangents.
    """
    roots = [o for o in outputs if o.requires_grad]
    order = _toposort(roots)
    for node in order:
        node.grad = None
    for out, cot in zip(outputs, cotangents):
        if out.requires_grad:
            g = np.broadcast_to(np.asarray(cot, dtype=np.float64), out.data.shape)
            out.grad = out.grad + g if out.grad is not None else np.array(g)
    for node in reversed(order):
        if node.grad is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(node.grad)):
            if not parent.requires_grad:
                continue
            parent.grad = pg.copy() if parent.grad is None else parent.grad + pg
    return None
