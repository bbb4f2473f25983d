"""Binary and ternary weight quantization with straight-through training.

Binary: weights are mean-centered then mapped by signum to {-1, +1}
(Sign(0) = -1).  Ternary: weights are divided by their mean absolute
value, clipped to [-1, 1], and rounded (ties away from zero) to
{-1, 0, +1}; the layer output is rescaled by that mean absolute value.
Latent full-precision weights stay trainable; gradients pass through the
quantizer unchanged.  A quantization is a `Pinned` value, built by `pin`:
its codes, effective weight, output scale and nonzero codes per input
column, all fixed when it is built, and a function of the latent weight
and the mode alone.  The quantizers take one matrix or a stack of
same-shape matrices, each on its own statistic, so `pin` quantizes a
group of linears of one shape in one pass, bitwise each linear pinned
alone.  A training step, solve or simulation of an unfrozen stack pins
every linear afresh, once, one group per weight shape; a frozen stack
keeps one pin per linear until it is unfrozen.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, check_finite

TERNARY_EPSILON = 1e-6  # the ternary quantizer's zero-divide guard


class QuantMode(enum.Enum):
    FULL_PRECISION = "fp"
    BINARY_1BIT = "1bit"
    TERNARY_158BIT = "1.58bit"


def _matrix_means(w: np.ndarray) -> np.ndarray:
    """The mean of each matrix of `w` (..., out, in), shaped to broadcast
    against it; a vector or a matrix is one matrix.

    Each is one pairwise sum over the matrix's values in memory order,
    divided by their count: what a contiguous matrix's own `.mean()`
    computes, so a stacked matrix's mean is bitwise its own.
    """
    lead = w.shape[:-2]
    flat = w.reshape(lead + (-1,))
    return (np.add.reduce(flat, axis=-1) / flat.shape[-1]).reshape(
        lead + (1,) * (w.ndim - len(lead)))


def _checked(w: np.ndarray) -> np.ndarray:
    w = check_finite(np.asarray(w, dtype=np.float64), "weights")
    if w.size == 0:
        raise ShapeError("cannot quantize an empty matrix")
    return w


def _per_matrix(w: np.ndarray, m: np.ndarray):
    """`_matrix_means`-shaped `m` as a float for one matrix, else as an
    array of `w`'s leading shape."""
    m = m.reshape(w.shape[:-2])
    return float(m) if w.ndim <= 2 else m


def quantize_1bit(w: np.ndarray):
    """Mean-centered signum quantization of one matrix or a stack
    (..., out, in) with a mean per matrix; returns (codes in {-1,+1},
    alpha), alpha a float for one matrix."""
    w = _checked(w)
    alpha = _matrix_means(w)
    q = np.where(w - alpha > 0.0, 1.0, -1.0)
    return q, _per_matrix(w, alpha)


def quantize_158bit(w: np.ndarray):
    """Round-clip ternary quantization of one matrix or a stack
    (..., out, in) with an absmean per matrix; returns (codes in
    {-1,0,+1}, beta), beta a float for one matrix."""
    w = _checked(w)
    beta = _matrix_means(np.abs(w))
    # the zero-divide guard scales with beta so that codes are invariant
    # under positive rescaling of the weights
    denom = np.where(beta > 0.0, beta * (1.0 + TERNARY_EPSILON),
                     TERNARY_EPSILON)
    scaled = np.clip(w / denom, -1.0, 1.0)
    # round half away from zero (np.round would round ties to even)
    q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return q, _per_matrix(w, beta)


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class Pinned:
    """One quantization of a linear's weight, fixed, with read-only arrays.

    `codes` (out, in) are float64 in {-1, +1} (1-bit) or {-1, 0, +1}
    (1.58-bit); at full precision they are the latent weights themselves
    and `scale` is None.  Otherwise `scale` is the factor on the codes:
    beta, or 1.0 for a binary linear without an output scale.  `weight` is
    the codes times that scale, the weight the rate path multiplies by (an
    unscaled binary linear's is its codes array).  A `stack_pinned` linear
    has `parts` > 1.
    """
    codes: np.ndarray
    weight: np.ndarray
    scale: float | np.ndarray | None
    parts: int = 1

    @property
    def quantized(self) -> bool:
        """Whether the codes are integer codes, not real-valued weights."""
        return self.scale is not None

    @functools.cached_property
    def column_nnz(self) -> np.ndarray:
        """The nonzero codes per input column, what the `OpCounter`
        multiplies spikes by: (in,), or (parts, in) for a stack.  Counted
        on first use (the spike path's; training never reads it)."""
        nnz = np.count_nonzero(
            self.codes.reshape(self.parts, -1, self.codes.shape[1]), axis=1)
        return _readonly(nnz[0] if self.parts == 1 else nnz)[0]

    @functools.cached_property
    def codes_t32(self) -> np.ndarray:
        """The codes transposed (in, out), contiguous float32: the right
        operand of `quantized_forward`'s code GEMM.  Made on first use."""
        return _readonly(np.ascontiguousarray(self.codes.T,
                                              dtype=np.float32))[0]


def pin(weights: list, mode: QuantMode,
        binary_output_scale: bool = False) -> list:
    """The latent weights `weights`, all of one shape (out, in), quantized
    in `mode` in one pass, pinned: one `Pinned` per weight, in order.

    The one place that tells the modes apart.  At full precision each
    linear's codes and weight are a read-only view of its latent weight
    itself.  Otherwise the weights are stacked and quantized in one
    `quantize_1bit` or `quantize_158bit` call, each matrix on its own
    statistic, and each linear's arrays are read-only views of the
    stack's, bitwise its own quantization's.  A binary linear's codes are
    the signs about its mean, scaled by beta = mean |w| only under
    `binary_output_scale` (else by 1.0); a ternary linear's scale is its
    absmean beta.
    """
    if mode is QuantMode.FULL_PRECISION:
        return [Pinned(view, view, None)
                for view in _readonly(*(w.view() for w in weights))]
    ws = np.stack(weights)
    if mode is QuantMode.BINARY_1BIT:
        q, _alpha = quantize_1bit(ws)
        scale = _matrix_means(np.abs(ws)) if binary_output_scale else None
    else:
        q, beta = quantize_158bit(ws)
        scale = beta[:, None, None]
    codes, = _readonly(q)
    if scale is None:  # an unscaled binary linear's weight is its codes
        return [Pinned(c, c, 1.0) for c in codes]
    weight, = _readonly(codes * scale)
    return [Pinned(*arrays)
            for arrays in zip(codes, weight, scale.ravel().tolist())]


class OpCounter:
    """Counts accumulate operations actually traversed by the spike kernel."""

    def __init__(self):
        self.per_layer = {}

    def add(self, name: str, count: int):
        self.per_layer[name] = self.per_layer.get(name, 0) + int(count)


def stack_pinned(parts) -> Pinned:
    """One pinned linear whose outputs are the pinned `parts`' side by side.

    The parts share their shape, and are all quantized or all full
    precision.  Their codes and weights are concatenated; a quantized
    stack's scale is the per-output vector of each part's scale.  Its
    `parts` tell `quantized_forward` to count and compute each part as its
    own linear would.
    """
    first = parts[0]
    if any((p.codes.shape, p.quantized) != (first.codes.shape, first.quantized)
           for p in parts):
        raise ShapeError("stacked linears differ in shape or mode")
    scale = None
    if first.quantized:
        scale = np.repeat([p.scale for p in parts], first.codes.shape[0])
    codes, weight = _readonly(np.concatenate([p.codes for p in parts]),
                              np.concatenate([p.weight for p in parts]))
    return Pinned(codes, weight, scale, len(parts))


def split_last(x: np.ndarray, parts: int) -> list:
    """`x`'s `parts` equal blocks along its last axis, as views (what
    `np.split` gives, without its Python-level overhead)."""
    w = x.shape[-1] // parts
    return [x[..., j * w:(j + 1) * w] for j in range(parts)]


def quantized_forward(layer: Pinned, x: np.ndarray, bias: np.ndarray,
                      counter: OpCounter | None = None,
                      name: str | tuple = "") -> np.ndarray:
    """Spike-driven forward pass of a pinned linear plus `bias`; x is 0/1
    spikes (..., in), as `lif_step` emits, with any leading axes.

    A quantized linear computes `scale * (x @ codes.T) + bias`: with spikes
    in {0, 1} and codes in {-1, 0, +1} the matmul is signed accumulation of
    the columns whose input spiked (no multiplies are needed), and the
    output scale is applied once afterwards, in float64.  x is cast once,
    to float32 for codes and to float64 at full precision, and the
    counter reads that cast.  The code matmul runs on the float32 rows and
    the cached `codes_t32`: every partial sum is an integer of magnitude
    at most the fan-in, and float32 holds every integer below 2^24 exactly,
    so at any fan-in below 2^24 each sum is exact in any order of
    summation, and its cast to float64 (made once the rows are freed, then
    scaled in place) is the float64 matmul's result bit for bit.  The
    counter counts the accumulates, one per (nonzero input, nonzero code
    or weight) pair: the inputs' spike counts, one GEMV of ones by the
    rows (exact while a column's count stays below 2^24, by the same
    bound), times the linear's `column_nnz`.  A `stack_pinned` linear
    counts each part under its own name, `name` then being the tuple of
    the parts' names; its outputs are bitwise its parts' (exact sums for
    codes, and for full precision, whose real-valued sums depend on the
    matmul's shape, one matmul per part, written into the part's column
    block of the output).  Codes take one 2-D matmul over all of x's rows;
    full precision keeps x's own shape for the same reason.
    """
    x = np.asarray(x)
    in_dim = layer.codes.shape[1]
    if x.shape[-1] != in_dim:
        raise ShapeError(f"input width {x.shape[-1]} vs layer {in_dim}")
    rows = x.reshape(-1, in_dim).astype(
        np.float32 if layer.quantized else np.float64, copy=False)
    if counter is not None:
        active = (np.ones(len(rows), rows.dtype) @ rows).astype(np.int64)
        if layer.parts == 1:
            counter.add(name, int(active @ layer.column_nnz))
        else:
            for part, ops in zip(name, layer.column_nnz @ active, strict=True):
                counter.add(part, int(ops))
    if layer.quantized:
        # one GEMM over every row: its sums are exact small integers, so
        # they depend neither on the matmul's shape nor on its precision
        sums = rows @ layer.codes_t32
        del rows  # freed before the float64 output is built
        out = sums.astype(np.float64).reshape(x.shape[:-1] + (-1,))
        out *= layer.scale
    else:
        x64 = rows.reshape(x.shape)
        out = np.empty(x.shape[:-1] + (layer.codes.shape[0],))
        for w_t, block in zip(split_last(layer.codes.T, layer.parts),
                              split_last(out, layer.parts)):
            np.matmul(x64, w_t, block)
    out += bias
    return out


def effective_weight_tensor(layer: Pinned) -> np.ndarray:
    """The weight array a pinned linear's rate-path forward multiplies by.

    `EncoderStack.effective_weights` reads every linear's weight through
    this one call, frozen or not (the name, from when this built an
    autodiff view, is the span `eqbench` requires every workload to
    trace).  The backward is straight-through: a linear's weight gradient
    is added to the latent weights unchanged, and the scale is a constant
    of it.
    """
    return layer.weight

