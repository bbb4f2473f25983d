"""Binary and ternary weight quantization with straight-through training.

Binary: weights are mean-centered then mapped by signum to {-1, +1}
(Sign(0) = -1).  Ternary: weights are divided by their mean absolute
value, clipped to [-1, 1], and rounded (ties away from zero) to
{-1, 0, +1}; the layer output is rescaled by that mean absolute value.
Latent full-precision weights stay trainable; gradients pass through the
quantizer unchanged.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass, field, replace

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


@dataclass
class QuantizedLinear:
    """A linear layer with latent full-precision weights and a quant mode.

    latent_w has shape (out, in); forward computes x @ W_eff.T + bias.
    alpha/beta hold the statistics of the most recent quantization (they
    are recomputed from the latent weights on every call during training
    and frozen for inference by `pin`).  A pinned layer keeps its float64
    codes, its effective weight and the nonzero codes per input column
    (what the `OpCounter` multiplies spikes by), all read-only.
    """
    latent_w: np.ndarray
    bias: np.ndarray
    mode: QuantMode = QuantMode.FULL_PRECISION
    alpha: float = 0.0
    beta: float = 0.0
    binary_output_scale: bool = False
    frozen_codes: np.ndarray = field(default=None, repr=False)
    frozen_weight: np.ndarray = field(default=None, repr=False)
    column_nnz: np.ndarray = field(default=None, repr=False)

    @property
    def frozen(self) -> bool:
        """Whether `pin` has fixed the codes (never for full precision)."""
        return self.frozen_weight is not None

    @property
    def out_dim(self):
        return self.latent_w.shape[0]

    @property
    def in_dim(self):
        return self.latent_w.shape[1]

    def freeze(self):
        """Pin the codes and statistics of one quantization of latent_w.

        A full-precision layer has nothing to pin and is left as it is.
        """
        if self.mode is not QuantMode.FULL_PRECISION:
            q = _requantize(self, self.latent_w)
            self.pin(q, self.alpha, self.beta)

    def pin(self, codes: np.ndarray, alpha: float, beta: float):
        """Freeze the layer on `codes` and their statistics alpha/beta.

        The float64 codes, the effective weight (codes x output scale) and
        the nonzero codes per input column are built here, once, and made
        read-only; a binary layer without an output scale uses its codes
        array as its weight.
        """
        q = np.array(codes, dtype=np.float64)
        self.alpha, self.beta = alpha, beta
        scale = _output_scale(self)
        w = q if scale == 1.0 else q * scale
        nnz = np.count_nonzero(q, axis=0)
        q.flags.writeable = w.flags.writeable = nnz.flags.writeable = False
        self.frozen_codes, self.frozen_weight, self.column_nnz = q, w, nnz

    def pinned(self) -> "QuantizedLinear":
        """This layer if pinned, else a pinned copy of it.

        A pinned layer has its `column_nnz`.  A quantized copy is frozen on
        one quantization of the current latent weights; a full-precision
        copy counts the nonzeros of its latent weights.  The layer itself
        is left untouched.
        """
        if self.column_nnz is not None:
            return self
        pin = replace(self)
        if self.mode is QuantMode.FULL_PRECISION:
            pin.column_nnz = np.count_nonzero(self.latent_w, axis=0)
        else:
            pin.freeze()
        return pin

    def codes(self) -> np.ndarray:
        if self.mode is QuantMode.FULL_PRECISION:
            raise ValueError("full-precision layer has no integer codes")
        return self.pinned().frozen_codes


def _requantize(layer: QuantizedLinear, w: np.ndarray) -> np.ndarray:
    """Codes of `w` in the layer's mode; refreshes the layer's alpha/beta."""
    if layer.mode is QuantMode.BINARY_1BIT:
        q, layer.alpha = quantize_1bit(w)
        if layer.binary_output_scale:
            layer.beta = float(np.abs(w).mean())
    else:
        q, layer.beta = quantize_158bit(w)
    return q


def _output_scale(layer: QuantizedLinear) -> float:
    """The factor on a quantized layer's codes: beta, or 1.0 for a binary
    layer without an output scale."""
    if layer.mode is QuantMode.BINARY_1BIT and not layer.binary_output_scale:
        return 1.0
    return layer.beta


class OpCounter:
    """Counts accumulate operations actually traversed by the spike kernel."""

    def __init__(self):
        self.per_layer = {}

    def add(self, name: str, count: int):
        self.per_layer[name] = self.per_layer.get(name, 0) + int(count)


def stack_pinned(layers) -> QuantizedLinear:
    """One pinned layer whose outputs are the `layers`' outputs side by side.

    The layers share their shape, mode and `binary_output_scale`.  Their
    pinned weights, codes and biases are concatenated; beta becomes the
    per-output vector of each part's output scale (a binary layer without
    an output scale ignores it).  Its `column_nnz` has one row per part,
    for `quantized_forward` to count and compute each part as its own
    layer would.
    """
    parts = [lin.pinned() for lin in layers]
    first = parts[0]
    if any((p.latent_w.shape, p.mode, p.binary_output_scale) != (
            first.latent_w.shape, first.mode, first.binary_output_scale)
           for p in parts):
        raise ShapeError("stacked layers differ in shape or mode")
    out = replace(first, latent_w=np.concatenate([p.latent_w for p in parts]),
                  bias=np.concatenate([p.bias for p in parts]),
                  column_nnz=np.stack([p.column_nnz for p in parts]))
    if first.mode is not QuantMode.FULL_PRECISION:
        out.beta = np.repeat([_output_scale(p) for p in parts], first.out_dim)
        out.frozen_codes = np.concatenate([p.frozen_codes for p in parts])
        out.frozen_weight = np.concatenate([p.frozen_weight for p in parts])
    return out


def quantized_forward(layer: QuantizedLinear, x: np.ndarray,
                      counter: OpCounter | None = None,
                      name: str | tuple = "") -> np.ndarray:
    """Spike-driven forward pass; x is 0/1 spikes (..., in), as `lif_step`
    emits, with any leading axes.

    A quantized layer computes `scale * (x @ codes.T) + bias`: with spikes
    in {0, 1} and codes in {-1, 0, +1} every partial sum is a small
    integer, so the matmul is exact signed accumulation of the columns
    whose input spiked (no multiplies are needed), and the output scale is
    applied once afterwards.  The counter counts the accumulates, one per
    (nonzero input, nonzero code or weight) pair, from the layer's
    `column_nnz`.  A `stack_pinned` layer counts each part under its own
    name, `name` then being the tuple of the parts' names; its outputs are
    bitwise its parts' (exact sums for codes, and for full precision, whose
    real-valued sums depend on the matmul's shape, one matmul per part).
    The layer runs `pinned`: an unfrozen quantized layer's alpha/beta are
    left as they were.
    """
    x = np.asarray(x)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} vs layer {layer.in_dim}")
    layer = layer.pinned()
    nnz = layer.column_nnz
    if counter is not None:
        active = (x.reshape(-1, layer.in_dim) != 0).sum(axis=0)
        if nnz.ndim == 1:
            counter.add(name, int(active @ nnz))
        else:
            for part, ops in zip(name, nnz @ active, strict=True):
                counter.add(part, int(ops))
    if layer.mode is not QuantMode.FULL_PRECISION:
        out = x @ layer.frozen_codes.T
        out *= _output_scale(layer)
    elif nnz.ndim == 1:
        out = x @ layer.latent_w.T
    else:
        parts = np.split(layer.latent_w, len(nnz))
        out = np.concatenate([x @ w.T for w in parts], axis=-1)
    out += layer.bias
    return out


def effective_weight_tensor(layer: QuantizedLinear) -> np.ndarray:
    """The weight array the layer's rate-path forward multiplies by.

    A full-precision layer's is its latent weight itself; a frozen layer
    applies its pinned effective weight; otherwise the latent weights are
    quantized afresh.  Training a stack that is left frozen therefore
    keeps its codes pinned; `EncoderStack.set_quant_mode` unfreezes it
    first, as `eqspike finetune` does.  The backward is straight-through:
    a linear's weight gradient is added to the latent weights unchanged,
    and alpha/beta are constants of it.  (The name, from when this built
    an autodiff view, is the span `eqbench` requires every workload to
    trace.)
    """
    if layer.mode is QuantMode.FULL_PRECISION:
        return layer.latent_w
    if layer.frozen:
        return layer.frozen_weight
    q = _requantize(layer, layer.latent_w)  # refreshes alpha/beta first
    return q * _output_scale(layer)


# -- 2-bit code packing (little-endian within each byte) ----------------
# code values: 0b00 -> 0, 0b01 -> +1, 0b11 -> -1; weight k occupies bits
# (k % 4) * 2 .. +1 of byte k // 4.

_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)
_FROM_BITS = np.array([0.0, 1.0, np.nan, -1.0])  # 0b10 is not a code


def pack_codes(q: np.ndarray) -> str:
    flat = q.astype(np.int64).reshape(-1)
    if not np.all(np.isin(flat, (-1, 0, 1))):
        raise ValueError("codes must lie in {-1, 0, +1}")
    bits = np.zeros(-(-flat.size // 4) * 4, dtype=np.uint8)
    bits[:flat.size] = flat & 0b11  # two's complement: -1 -> 0b11
    out = np.bitwise_or.reduce(bits.reshape(-1, 4) << _SHIFTS, axis=1)
    return base64.b64encode(out.tobytes()).decode("ascii")


def unpack_codes(packed: str, shape) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(packed.encode("ascii")), dtype=np.uint8)
    n = int(np.prod(shape))
    bits = ((raw[:, None] >> _SHIFTS) & 0b11).reshape(-1)[:n]
    if np.any(bits == 0b10):
        raise ValueError("invalid 2-bit weight code")
    return _FROM_BITS[bits].reshape(shape)
