"""Binary and ternary weight quantization with straight-through training.

Binary: weights are mean-centered then mapped by signum to {-1, +1}
(Sign(0) = -1).  Ternary: weights are divided by their mean absolute
value, clipped to [-1, 1], and rounded (ties away from zero) to
{-1, 0, +1}; the layer output is rescaled by that mean absolute value.
Latent full-precision weights stay trainable; gradients pass through the
quantizer unchanged.  A quantization is a `Pinned` value, built by `pin`:
its codes, effective weight, output scale and nonzero codes per input
column, all fixed when it is built, and a function of the latent weight
and the mode alone.  A training step pins each linear afresh; a frozen
stack keeps one pin per linear until it is unfrozen.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, check_finite


class QuantMode(enum.Enum):
    FULL_PRECISION = "fp"
    BINARY_1BIT = "1bit"
    TERNARY_158BIT = "1.58bit"


def quantize_1bit(w: np.ndarray):
    """Mean-centered signum quantization; returns (codes in {-1,+1}, alpha)."""
    w = check_finite(np.asarray(w, dtype=np.float64), "weights")
    if w.size == 0:
        raise ShapeError("cannot quantize an empty matrix")
    alpha = float(w.mean())
    q = np.where(w - alpha > 0.0, 1.0, -1.0)
    return q, alpha


def quantize_158bit(w: np.ndarray, epsilon: float = 1e-6):
    """Round-clip ternary quantization; returns (codes in {-1,0,+1}, beta)."""
    w = check_finite(np.asarray(w, dtype=np.float64), "weights")
    if w.size == 0:
        raise ShapeError("cannot quantize an empty matrix")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    beta = float(np.abs(w).mean())
    # the zero-divide guard scales with beta so that codes are invariant
    # under positive rescaling of the weights
    denom = beta * (1.0 + epsilon) if beta > 0.0 else epsilon
    scaled = np.clip(w / denom, -1.0, 1.0)
    # round half away from zero (np.round would round ties to even)
    q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return q, beta


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


def pin(w: np.ndarray, mode: QuantMode,
        binary_output_scale: bool = False) -> Pinned:
    """The latent weight `w` (out, in) quantized in `mode`, pinned.

    The one place that tells the modes apart.  At full precision the codes
    and the weight are a read-only view of `w` itself.  A binary linear's
    codes are the signs about its mean, scaled by beta = mean |w| only
    under `binary_output_scale` (else by 1.0); a ternary linear's scale is
    its absmean beta.
    """
    if mode is QuantMode.FULL_PRECISION:
        view, = _readonly(w.view())
        return Pinned(view, view, None)
    if mode is QuantMode.BINARY_1BIT:
        q, _alpha = quantize_1bit(w)
        scale = float(np.abs(w).mean()) if binary_output_scale else 1.0
    else:
        q, scale = quantize_158bit(w)
    weight = q if scale == 1.0 else q * scale
    q, weight = _readonly(q, weight)
    return Pinned(q, weight, scale)


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

