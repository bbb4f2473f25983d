"""Closed-form forward/backward pairs for the one graph eqspike trains.

The rate path is a fixed feed-forward graph: the embedding, L blocks of
linears, threshold clips, attention and layer norms, the classifier head
and a loss.  Each op here is a plain-numpy forward and a named backward
that maps the gradient on its output to the gradients on its inputs:

* `linear` / `linear_backward`, the affine map x @ w.T + b, whose weight
  gradient is one GEMM;
* `clip01` / `clip01_backward`, the spiking-rate surrogate clip(a, 0, 1),
  the long-run rate of an integrate-and-fire neuron at unit threshold;
* `layer_norm` / `layer_norm_backward`;
* `gelu` / `gelu_backward`, the teacher's activation, on a numpy `erf`;
* `cross_entropy`, which returns the loss and its gradient on the logits.

`model.spiking_attention` / `model.attention_backward` is the fifth pair.
A forward whose backward needs intermediates returns them next to its
output; the rate path keeps them only while it trains, and solves and
the spike path drop them.  Every op acts on the last axis (or the last
two) and carries any leading axis through, so a stacked batch runs the
same graph as one example.  `model` wires the pairs into each block's
forward and backward.  The ops call their ufuncs and reductions directly
(`np.add.reduce`, not `.sum` or `.mean`) and write in place only into
temporaries they allocated themselves, never into an input or an array a
caller keeps.
"""

from __future__ import annotations

import math

import numpy as np


def linear(x, w, b):
    """The affine map x @ w.T + b; w is (out, in), x (..., in)."""
    out = x @ w.T
    out += b
    return out


def linear_backward(g, x, w):
    """(gx, gw, gb) of `linear(x, w, b)` under the output gradient `g`.

    The weight gradient is one 2-D GEMM over all leading axes of x
    flattened.
    """
    g2 = g.reshape(-1, g.shape[-1])
    return g @ w, g2.T @ x.reshape(-1, x.shape[-1]), np.add.reduce(g2, axis=0)


def clip01(a):
    """The spiking-rate surrogate clip(a, 0, 1)."""
    return a.clip(0.0, 1.0)


def clip01_backward(g, a):
    """The gradient on `a` of `clip01(a)` under the output gradient `g`.

    Subgradient 1 where a lies in the closed interval [0, 1], 0 outside.
    The boundary convention (full derivative at exactly 0 and 1) keeps
    units trainable when a fixed point lands on the clip boundary.  The
    mask is built from `a` here, so a forward without a backward computes
    no mask.
    """
    return g * ((a >= 0.0) & (a <= 1.0))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then affine (gain, bias).

    Returns the output and the (normalized x, inverse deviation) pair that
    `layer_norm_backward` reads.
    """
    scale = 1.0 / x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean *= scale
    xc = x - mean
    inv = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    inv *= scale
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xc *= inv  # now x-hat
    out = xc * gain
    out += bias
    return out, (xc, inv)


def layer_norm_backward(g, saved, gain):
    """(gx, ggain, gbias) of `layer_norm` from its `saved` pair; the gain and
    bias gradients are summed over every leading axis."""
    xhat, inv = saved
    n = g.shape[-1]
    gx = g * gain
    mean = np.add.reduce(gx, axis=-1, keepdims=True)
    mean /= n
    t = gx * xhat
    proj = np.add.reduce(t, axis=-1, keepdims=True)
    proj /= n
    # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
    gx -= mean
    np.multiply(xhat, proj, out=t)
    gx -= t
    gx *= inv
    lead = tuple(range(g.ndim - 1))
    np.multiply(g, xhat, out=t)
    return gx, np.add.reduce(t, axis=lead), np.add.reduce(g, axis=lead)


# Cephes' ndtr.c (S. L. Moshier), highest power first; U and Q are monic
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
          7003.325141128051, 55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
          22629.000061389095, 49267.39426086359)
_ERF_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
          48.63719709856814, 196.5208329560771, 526.4451949954773,
          934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERF_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
          975.7085017432055, 1823.9091668790973, 2246.3376081871097,
          1656.6630919416134, 557.5353408177277)


def _polevl(x, coefs):
    """Horner's rule in Cephes' `polevl` order."""
    out = x * coefs[0] + coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def erf(x):
    """Elementwise erf as Cephes': x T(x^2) / U(x^2) up to |x| = 1, then
    1 - exp(-x^2) P(|x|) / Q(|x|) on those entries only; signed as x."""
    ax = np.abs(x)
    small = np.minimum(ax, 1.0)  # so that +-inf takes no inf / inf
    z = small * small
    out = small * _polevl(z, _ERF_T)
    out /= _polevl(z, _ERF_U)
    big = np.flatnonzero(ax > 1.0)  # flat indices: cheaper than a mask
    a = np.minimum(ax.take(big), 8.0)  # from 8 on, erf rounds to 1
    out.reshape(-1)[big] = (1.0 - np.exp(-a * a) * _polevl(a, _ERF_P)
                            / _polevl(a, _ERF_Q))
    return np.copysign(out, x, out=out)


def gelu(a):
    """0.5 a (1 + erf(a / sqrt 2)), and the intermediates its backward reads."""
    s = a * (1.0 / math.sqrt(2.0))
    half, t = a * 0.5, erf(s) + 1.0
    return half * t, (s, half, t)


def gelu_backward(g, saved):
    """The gradient on the input of `gelu` from its `saved` intermediates."""
    s, half, t = saved
    return (g * t) * 0.5 + (g * half * (2.0 / math.sqrt(math.pi))
                            * np.exp(-s ** 2)) * (1.0 / math.sqrt(2.0))


def cross_entropy(logits, labels):
    """Negative log-likelihood of `labels` under softmax(logits), summed,
    and its gradient on the logits.

    `logits` is (C,) with an int label, or (..., C) with an integer label
    array of the leading shape; the loss is the sum over that batch.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels of shape {labels.shape} for logits "
                         f"{logits.shape}")
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    grad = logits - m  # then exp, then the softmax, in place
    np.exp(grad, out=grad)
    total = np.add.reduce(grad, axis=-1)
    picked = np.indices(labels.shape, sparse=True) + (labels,)
    loss = float(np.add.reduce(np.log(total) + m[..., 0] - logits[picked],
                               axis=None))
    grad *= (1.0 / total)[..., None]
    grad[picked] -= 1.0
    return loss, grad
