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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
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
    and frozen for inference via `freeze`).
    """
    latent_w: np.ndarray
    bias: np.ndarray
    mode: QuantMode = QuantMode.FULL_PRECISION
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 1e-6
    binary_output_scale: bool = False
    frozen: bool = False
    frozen_codes: np.ndarray = field(default=None, repr=False)

    @property
    def out_dim(self):
        return self.latent_w.shape[0]

    @property
    def in_dim(self):
        return self.latent_w.shape[1]

    def effective_weight(self) -> np.ndarray:
        """The weight actually applied in the forward pass (numeric path)."""
        if self.mode is QuantMode.FULL_PRECISION:
            return self.latent_w
        q, scale = _codes_and_scale(self)
        return q * scale

    def freeze(self):
        """Pin the current quantization statistics and codes for inference."""
        self.frozen = True
        self.frozen_codes = None if self.mode is QuantMode.FULL_PRECISION \
            else _codes_and_scale(self, self.latent_w)[0].astype(np.int8)

    def codes(self) -> np.ndarray:
        if self.mode is QuantMode.FULL_PRECISION:
            raise ValueError("full-precision layer has no integer codes")
        stats = self.alpha, self.beta
        q, _ = _codes_and_scale(self)
        self.alpha, self.beta = stats  # reading codes leaves the statistics alone
        return q


def _codes_and_scale(layer: QuantizedLinear, w: np.ndarray | None = None):
    """(codes, output scale) of a quantized layer.

    Frozen codes are used unless a weight `w` is given; otherwise `w`
    (default: the latent weights) is quantized afresh and the layer's
    alpha/beta are refreshed from it.  Binary layers without an output
    scale use 1.0.
    """
    if w is None and layer.frozen and layer.frozen_codes is not None:
        q = layer.frozen_codes.astype(np.float64)
    else:
        w = layer.latent_w if w is None else w
        if layer.mode is QuantMode.BINARY_1BIT:
            q, layer.alpha = quantize_1bit(w)
            if layer.binary_output_scale:
                layer.beta = float(np.abs(w).mean())
        else:
            q, layer.beta = quantize_158bit(w, layer.epsilon)
    if layer.mode is QuantMode.BINARY_1BIT and not layer.binary_output_scale:
        return q, 1.0
    return q, layer.beta


class OpCounter:
    """Counts accumulate operations actually traversed by the spike kernel."""

    def __init__(self):
        self.per_layer = {}

    def add(self, name: str, count: int):
        self.per_layer[name] = self.per_layer.get(name, 0) + int(count)

    @property
    def total(self):
        return sum(self.per_layer.values())


def quantized_forward(layer: QuantizedLinear, x: np.ndarray,
                      counter: OpCounter | None = None,
                      name: str = "") -> np.ndarray:
    """Numeric forward pass; x may be (in,) or (batch, in).

    When x is a 0/1 spike array, the product is evaluated as pure signed
    accumulation over the active indices (no multiplies), which is also
    the path the energy counter instruments.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} vs layer {layer.in_dim}")
    if layer.mode is QuantMode.FULL_PRECISION:
        w_eff = layer.latent_w
    else:
        codes, scale = _codes_and_scale(layer)  # refreshes alpha/beta when not frozen
        if np.all((x == 0.0) | (x == 1.0)):
            acc = _accumulate(codes, x)
            if counter is not None:
                nnz_col = np.count_nonzero(codes, axis=0)
                counter.add(name, int((x.reshape(-1, layer.in_dim).sum(axis=0)
                                       * nnz_col).sum()))
            return scale * acc + layer.bias
        w_eff = codes * scale
    if counter is not None:
        nnz_col = np.count_nonzero(w_eff, axis=0)
        active = (x.reshape(-1, layer.in_dim) != 0.0).sum(axis=0)
        counter.add(name, int((active * nnz_col).sum()))
    return x @ w_eff.T + layer.bias


def _accumulate(codes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Signed accumulation of weight columns where the spike input is 1."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros((flat.shape[0], codes.shape[0]))
    for r in range(flat.shape[0]):
        idx = np.nonzero(flat[r])[0]
        out[r] = codes[:, idx].sum(axis=1)
    return out.reshape(x.shape[:-1] + (codes.shape[0],))


def effective_weight_tensor(layer: QuantizedLinear, latent: ad.Tensor) -> ad.Tensor:
    """Autodiff view of the effective weight with straight-through backward.

    Quantization statistics (alpha/beta) are treated as constants of the
    backward pass; upstream gradients reach the latent weights unchanged.
    """
    if layer.mode is QuantMode.FULL_PRECISION:
        return latent
    q, scale = _codes_and_scale(layer, latent.data)
    return ad.ste(latent, q * scale)


# -- 2-bit code packing (little-endian within each byte) ----------------
# code values: 0b00 -> 0, 0b01 -> +1, 0b11 -> -1; weight k occupies bits
# (k % 4) * 2 .. +1 of byte k // 4.

_TO_BITS = {0: 0b00, 1: 0b01, -1: 0b11}
_FROM_BITS = {0b00: 0, 0b01: 1, 0b11: -1}


def pack_codes(q: np.ndarray) -> str:
    flat = q.astype(np.int64).reshape(-1)
    if not np.all(np.isin(flat, (-1, 0, 1))):
        raise ValueError("codes must lie in {-1, 0, +1}")
    nbytes = (flat.size + 3) // 4
    out = bytearray(nbytes)
    for k, val in enumerate(flat):
        out[k // 4] |= _TO_BITS[int(val)] << ((k % 4) * 2)
    return base64.b64encode(bytes(out)).decode("ascii")


def unpack_codes(packed: str, shape) -> np.ndarray:
    raw = base64.b64decode(packed.encode("ascii"))
    n = int(np.prod(shape))
    flat = np.empty(n, dtype=np.float64)
    for k in range(n):
        bits = (raw[k // 4] >> ((k % 4) * 2)) & 0b11
        if bits == 0b10:
            raise ValueError("invalid 2-bit weight code")
        flat[k] = _FROM_BITS[bits]
    return flat.reshape(shape)
