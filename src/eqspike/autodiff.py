"""Minimal reverse-mode automatic differentiation over numpy arrays.

Supports exactly the operations eqspike calls: broadcasted add, sub and
mul, the KD projection's matmul, sums, exp/log/erf, indexing (which is
also the embedding lookup) and the straight-through `ste`.  Four
operations are fused primitives, one tape node each with a closed-form
backward, built on `_make`:

* `linear`, the affine map x @ w.T + b, whose weight gradient is one GEMM;
* `clip01`, the spiking-rate surrogate clip(a / v_th, 0, 1) with its
  threshold folded in;
* `layer_norm`;
* `model.spiking_attention`, multi-head softmax attention.

Their forwards run in plain numpy, so the spike path calls `layer_norm`
and attention on arrays at numpy cost, and the rate path and the spike
path share one implementation.
Every op broadcasts over leading axes, so a stacked batch of examples
tapes the same graph as one example; a training step tapes one forward
pass over its whole batch and runs `backward` over it once.
"""

from __future__ import annotations

import math

import numpy as np

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


def matmul(a, b):
    """a @ b for a (..., k, n) and a matrix b (n, m), as the KD projection uses."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ValueError(f"matmul of {a.data.shape} and {b.data.shape}: "
                         "needs (..., k, n) @ (n, m)")
    out = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

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


def erf(a):
    # imported here: scipy.special adds about 25 MB and 0.2 s to a process,
    # and only the teacher's gelu needs it
    from scipy.special import erf as _erf

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


def linear(x, w, b):
    """Affine map x @ w.T + b as one tape node; w is (out, in), x (..., in).

    The weight gradient is one 2-D GEMM over all leading axes of x
    flattened.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = x.data @ w.data.T + b.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g @ w.data,
                g2.T @ x.data.reshape(-1, x.data.shape[-1]),
                g2.sum(axis=0))

    return _make(out, (x, w, b), vjp)


def getitem(a, idx):
    """a[idx]; an integer index array is an embedding lookup, and rows it
    repeats accumulate their gradients."""
    a = as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), vjp)


def clip01(a, v_th=1.0):
    """The spiking-rate surrogate clip(a / v_th, 0, 1) as one tape node.

    Subgradient 1/v_th where a / v_th lies in the closed interval [0, 1],
    0 outside.  The boundary convention (full derivative at exactly 0 and
    v_th) keeps units trainable when a fixed point lands on the clip
    boundary.  The backward builds its mask from the retained a / v_th only
    when it runs, so a no-grad pass costs one divide and one clip.
    """
    a = as_tensor(a)
    scaled = a.data / v_th
    out = np.clip(scaled, 0.0, 1.0)

    def vjp(g):
        return (g * ((scaled >= 0.0) & (scaled <= 1.0)) / v_th,)

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

def gelu(a):
    a = as_tensor(a)
    return mul(mul(a, 0.5), add(erf(mul(a, 1.0 / math.sqrt(2.0))), 1.0))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then affine (gain, bias).

    One tape node: the forward runs in numpy, and the backward is the
    closed-form layer-norm VJP.  `gain` and `bias` broadcast against the
    normalized axis.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * scale + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gxhat = g * gain.data
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        return (_unbroadcast(gx, x.data.shape),
                _unbroadcast(g * xhat, gain.data.shape),
                _unbroadcast(g, bias.data.shape))

    return _make(out, (x, gain, bias), vjp)


def cross_entropy(logits, label):
    """Negative log-likelihood of `label` under softmax(logits), summed.

    `logits` is (C,) with an int label, or (..., C) with an integer label
    array of the leading shape; the result is the sum over that batch.
    """
    logits = as_tensor(logits)
    labels = np.asarray(label, dtype=np.int64)
    if labels.shape != logits.data.shape[:-1]:
        raise ValueError(f"labels of shape {labels.shape} for logits "
                         f"{logits.data.shape}")
    m = np.max(logits.data, axis=-1, keepdims=True)
    lse = add(log(tensor_sum(exp(sub(logits, m)), axis=-1)), m[..., 0])
    picked = getitem(logits, np.indices(labels.shape, sparse=True) + (labels,))
    return tensor_sum(sub(lse, picked))


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
            # no copy: no code updates a .grad array in place
            parent.grad = pg if parent.grad is None else parent.grad + pg
    return None
