"""Spiking encoder stack (quantized) and the full-precision teacher.

The student stack has two forward paths that must agree in the long run:

* a steady-state path that evaluates each block's rate equations directly
  on average spiking rates (used for equilibrium solving and training), and
* a temporal path that simulates leaky integrate-and-fire neurons step by
  step with spike-driven quantized linear layers (used for inference and
  energy accounting).

Block structure: quantized Q/K/V projections feed spiking neurons, their
rates mix through scaled dot-product attention, and the attention output
plus a residual passes through a normalization surrogate; the feed-forward
half mirrors that with an intermediate spiking layer.  Rates live in
[0, 1] by construction (the clip surrogate of the firing nonlinearity).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, clip01, layer_norm, no_grad, softmax, take_rows
from .neuron import LifConfig, LifLayerState, RunningAverage, asr, lif_step
from .numerics import ShapeError, init_uniform
from .quantizer import (OpCounter, QuantMode, QuantizedLinear,
                        effective_weight_tensor, quantized_forward)


@dataclass(frozen=True)
class StackConfig:
    vocab_size: int
    hidden_dim: int = 64
    intermediate_dim: int = 128
    num_heads: int = 2
    num_layers: int = 2
    max_len: int = 32
    num_labels: int = 2
    quant_mode: QuantMode = QuantMode.FULL_PRECISION
    gamma: float = 1.0
    v_th: float = 1.0
    binary_output_scale: bool = False
    ln_gain_init: float = 0.2
    ln_bias_init: float = 0.5

    def __post_init__(self):
        if self.hidden_dim <= 0 or self.intermediate_dim <= 0 or self.num_heads <= 0:
            raise ValueError("dimensions must be positive")
        if self.hidden_dim % self.num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if self.num_layers < 1:
            raise ValueError("need at least one encoder layer")


@dataclass
class EncoderBlock:
    q: QuantizedLinear
    k: QuantizedLinear
    v: QuantizedLinear
    o: QuantizedLinear
    ff1: QuantizedLinear
    ff2: QuantizedLinear
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray

    def linears(self):
        return {"q": self.q, "k": self.k, "v": self.v, "o": self.o,
                "ff1": self.ff1, "ff2": self.ff2}


def _make_linear(rng, out_dim, in_dim, mode, binary_output_scale):
    return QuantizedLinear(
        latent_w=init_uniform(rng, out_dim, in_dim),
        bias=np.zeros(out_dim),
        mode=mode,
        binary_output_scale=binary_output_scale,
    )


class EncoderStack:
    """Quantized spiking encoder with embedding and full-precision head."""

    def __init__(self, cfg: StackConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, inter = cfg.hidden_dim, cfg.intermediate_dim
        self.tok_emb = rng.uniform(-0.25, 0.25, size=(cfg.vocab_size, d))
        self.pos_emb = rng.uniform(-0.25, 0.25, size=(cfg.max_len, d))
        self.blocks = []
        for _ in range(cfg.num_layers):
            self.blocks.append(EncoderBlock(
                q=_make_linear(rng, d, d, cfg.quant_mode, cfg.binary_output_scale),
                k=_make_linear(rng, d, d, cfg.quant_mode, cfg.binary_output_scale),
                v=_make_linear(rng, d, d, cfg.quant_mode, cfg.binary_output_scale),
                o=_make_linear(rng, d, d, cfg.quant_mode, cfg.binary_output_scale),
                ff1=_make_linear(rng, inter, d, cfg.quant_mode, cfg.binary_output_scale),
                ff2=_make_linear(rng, d, inter, cfg.quant_mode, cfg.binary_output_scale),
                ln1_g=np.full(d, cfg.ln_gain_init),
                ln1_b=np.full(d, cfg.ln_bias_init),
                ln2_g=np.full(d, cfg.ln_gain_init),
                ln2_b=np.full(d, cfg.ln_bias_init),
            ))
        # classifier head stays full precision
        self.cls_w = init_uniform(rng, cfg.num_labels, d)
        self.cls_b = np.zeros(cfg.num_labels)

    # -- parameter plumbing --------------------------------------------
    def named_params(self) -> dict:
        out = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb,
               "cls.w": self.cls_w, "cls.b": self.cls_b}
        for i, blk in enumerate(self.blocks):
            for name, lin in blk.linears().items():
                out[f"blk{i}.{name}.w"] = lin.latent_w
                out[f"blk{i}.{name}.b"] = lin.bias
            out[f"blk{i}.ln1_g"] = blk.ln1_g
            out[f"blk{i}.ln1_b"] = blk.ln1_b
            out[f"blk{i}.ln2_g"] = blk.ln2_g
            out[f"blk{i}.ln2_b"] = blk.ln2_b
        return out

    def param_tensors(self) -> dict:
        return {k: Tensor(v, requires_grad=True)
                for k, v in self.named_params().items()}

    def set_quant_mode(self, mode: QuantMode):
        self.cfg = dataclasses.replace(self.cfg, quant_mode=mode)
        for blk in self.blocks:
            for lin in blk.linears().values():
                lin.mode = mode
                lin.frozen = False
                lin.frozen_codes = None

    def freeze_quantization(self):
        for blk in self.blocks:
            for lin in blk.linears().values():
                if lin.mode is not QuantMode.FULL_PRECISION:
                    lin.freeze()

    # -- steady-state (rate) path --------------------------------------
    def encoding(self, tokens, leaves) -> Tensor:
        """Token + positional embedding, affinely shifted into [0,1]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or len(tokens) > self.cfg.max_len:
            raise ShapeError("tokens must be a 1-D sequence within max_len")
        e = take_rows(leaves["tok_emb"], tokens)
        pos = ad.getitem(leaves["pos_emb"], slice(0, len(tokens)))
        return clip01(e + pos + 0.5)

    def _lin(self, i: int, name: str, leaves, x: Tensor) -> Tensor:
        lin = self.blocks[i].linears()[name]
        w = effective_weight_tensor(lin, leaves[f"blk{i}.{name}.w"])
        return x @ ad.transpose(w, (1, 0)) + leaves[f"blk{i}.{name}.b"]

    def block_forward(self, i: int, a_prev: Tensor, leaves,
                      record: dict | None = None) -> Tensor:
        cfg = self.cfg
        vth = cfg.v_th
        aq = clip01(self._lin(i, "q", leaves, a_prev) / vth)
        ak = clip01(self._lin(i, "k", leaves, a_prev) / vth)
        av = clip01(self._lin(i, "v", leaves, a_prev) / vth)
        mixed = spiking_attention(aq, ak, av, cfg.num_heads)
        a_attn = clip01(mixed / vth)
        r1 = self._lin(i, "o", leaves, a_attn) + a_prev
        h1 = clip01(layer_norm(r1, leaves[f"blk{i}.ln1_g"],
                               leaves[f"blk{i}.ln1_b"]) / vth)
        ai = clip01(self._lin(i, "ff1", leaves, h1) / vth)
        r2 = self._lin(i, "ff2", leaves, ai) + h1
        out = clip01(layer_norm(r2, leaves[f"blk{i}.ln2_g"],
                                leaves[f"blk{i}.ln2_b"]) / vth)
        if record is not None:
            record[f"blk{i}.q"] = aq.data
            record[f"blk{i}.k"] = ak.data
            record[f"blk{i}.v"] = av.data
            record[f"blk{i}.attn"] = a_attn.data
            record[f"blk{i}.h1"] = h1.data
            record[f"blk{i}.int"] = ai.data
            record[f"blk{i}.out"] = out.data
        return out

    def classifier_logits(self, a_final: Tensor, leaves) -> Tensor:
        cls = ad.getitem(a_final, 0)  # first position carries the CLS token
        return leaves["cls.w"] @ cls + leaves["cls.b"]

    def sweep(self, a0: Tensor, state: list[np.ndarray], leaves,
              record: dict | None = None):
        """One Gauss-Seidel sweep of the rate equations from the encoding a0.

        Returns (new state, sup-norm residual of the update against `state`).
        """
        prev, new_state, residual = a0, [], 0.0
        for i in range(self.cfg.num_layers):
            prev = self.block_forward(i, prev, leaves, record=record)
            residual = max(residual, float(np.max(np.abs(prev.data - state[i]))))
            new_state.append(prev.data)
        return new_state, residual

    def rate_map(self, tokens, state: list[np.ndarray]) -> list[np.ndarray]:
        """The undamped Jacobi update f(state); fixed points satisfy f(a)=a."""
        with no_grad():
            leaves = self.param_tensors()
            inputs = [self.encoding(tokens, leaves)] + [Tensor(a) for a in state[:-1]]
            return [self.block_forward(i, inputs[i], leaves).data
                    for i in range(self.cfg.num_layers)]

    def initial_state(self, seq_len: int) -> list[np.ndarray]:
        return [np.zeros((seq_len, self.cfg.hidden_dim))
                for _ in range(self.cfg.num_layers)]

    # -- temporal (spiking) path ---------------------------------------
    def temporal_simulate(self, tokens, T: int, counter: OpCounter | None = None,
                          trace: list | None = None,
                          trace_targets: dict | None = None):
        """Full LIF simulation for T steps.

        Returns (logits, per-layer ASR dict, per-layer per-neuron spike
        count dict).  `trace`, when given, collects (step, layer, mean_asr,
        residual) rows; residuals are against `trace_targets` mean rates.
        """
        if T < 1:
            raise ValueError("T must be >= 1")
        cfg = self.cfg
        lif = LifConfig(cfg.gamma, cfg.v_th)
        tokens = np.asarray(tokens, dtype=np.int64)
        seq = len(tokens)
        d, inter = cfg.hidden_dim, cfg.intermediate_dim
        drive = np.clip(self.tok_emb[tokens] + self.pos_emb[:seq] + 0.5, 0.0, 1.0)

        def st(shape):
            return LifLayerState.zeros(shape)

        layers = {"input": st((seq, d))}
        for i in range(cfg.num_layers):
            for nm in ("q", "k", "v", "attn", "h1", "out"):
                layers[f"blk{i}.{nm}"] = st((seq, d))
            layers[f"blk{i}.int"] = st((seq, inter))
        r1_avg = [RunningAverage(cfg.gamma) for _ in range(cfg.num_layers)]
        r2_avg = [RunningAverage(cfg.gamma) for _ in range(cfg.num_layers)]
        spike_counts = {name: np.zeros(stt.u.shape) for name, stt in layers.items()}

        # Nonlinear surrogates (attention mix, normalization) are driven so
        # that their integrated input current through step t equals
        # t * phi(running averages at t): the per-step current telescopes,
        # which keeps the temporal path converging at the 1/T rate of the
        # rate averages themselves instead of accumulating burn-in error.
        prev_phi: dict = {}

        def telescoped(name, value, t):
            prev = prev_phi.get(name)
            prev_phi[name] = value
            if prev is None:
                return value
            return t * value - (t - 1) * prev

        for t in range(1, T + 1):
            lif_step(layers["input"], drive, lif)
            s_prev = layers["input"].s
            for i, blk in enumerate(self.blocks):
                pre = f"blk{i}"
                lif_step(layers[f"{pre}.q"],
                         quantized_forward(blk.q, s_prev, counter, f"{pre}.q"), lif)
                lif_step(layers[f"{pre}.k"],
                         quantized_forward(blk.k, s_prev, counter, f"{pre}.k"), lif)
                lif_step(layers[f"{pre}.v"],
                         quantized_forward(blk.v, s_prev, counter, f"{pre}.v"), lif)
                with no_grad():
                    attn_current = spiking_attention(
                        Tensor(asr(layers[f"{pre}.q"])),
                        Tensor(asr(layers[f"{pre}.k"])),
                        Tensor(asr(layers[f"{pre}.v"])),
                        cfg.num_heads).data
                lif_step(layers[f"{pre}.attn"],
                         telescoped(f"{pre}.attn", attn_current, t), lif)
                r1 = (quantized_forward(blk.o, layers[f"{pre}.attn"].s,
                                        counter, f"{pre}.o") + s_prev)
                with no_grad():
                    h1_current = layer_norm(Tensor(r1_avg[i].push(r1)),
                                            Tensor(blk.ln1_g), Tensor(blk.ln1_b)).data
                lif_step(layers[f"{pre}.h1"],
                         telescoped(f"{pre}.h1", h1_current, t), lif)
                lif_step(layers[f"{pre}.int"],
                         quantized_forward(blk.ff1, layers[f"{pre}.h1"].s,
                                           counter, f"{pre}.ff1"), lif)
                r2 = (quantized_forward(blk.ff2, layers[f"{pre}.int"].s,
                                        counter, f"{pre}.ff2") + layers[f"{pre}.h1"].s)
                with no_grad():
                    out_current = layer_norm(Tensor(r2_avg[i].push(r2)),
                                             Tensor(blk.ln2_g), Tensor(blk.ln2_b)).data
                lif_step(layers[f"{pre}.out"],
                         telescoped(f"{pre}.out", out_current, t), lif)
                s_prev = layers[f"{pre}.out"].s
            for name, stt in layers.items():
                spike_counts[name] += stt.s
            if trace is not None:
                for name, stt in layers.items():
                    m = float(np.mean(asr(stt)))
                    target = trace_targets.get(name) if trace_targets else None
                    resid = abs(m - target) if target is not None else float("nan")
                    trace.append((t, name, m, resid))

        asrs = {name: asr(stt) for name, stt in layers.items()}
        final = asrs[f"blk{cfg.num_layers - 1}.out"]
        logits = self.cls_w @ final[0] + self.cls_b
        return logits, asrs, spike_counts

    # -- energy bookkeeping --------------------------------------------
    def linear_op_table(self, seq_len: int) -> list:
        """(driving spiking layer, consuming op name, synaptic op count).

        Dense fan-in x fan-out counts per linear sublayer; attention score
        and mix matrices are counted as equivalent accumulates driven by
        the Q and V neuron layers respectively.  The classifier head is
        included (driven by the final block's output layer).
        """
        cfg = self.cfg
        d, inter = cfg.hidden_dim, cfg.intermediate_dim
        rows = []
        for i in range(cfg.num_layers):
            src = "input" if i == 0 else f"blk{i - 1}.out"
            for nm in ("q", "k", "v"):
                rows.append((src, f"blk{i}.{nm}", seq_len * d * d))
            rows.append((f"blk{i}.q", f"blk{i}.score", seq_len * seq_len * d))
            rows.append((f"blk{i}.v", f"blk{i}.mix", seq_len * seq_len * d))
            rows.append((f"blk{i}.attn", f"blk{i}.o", seq_len * d * d))
            rows.append((f"blk{i}.h1", f"blk{i}.ff1", seq_len * d * inter))
            rows.append((f"blk{i}.int", f"blk{i}.ff2", seq_len * inter * d))
        rows.append((f"blk{cfg.num_layers - 1}.out", "classifier",
                     d * cfg.num_labels))
        return rows


def spiking_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Scaled dot-product attention over rate tensors, split by head.

    Rows of the score matrix are softmax-normalized; with rate values in
    [0,1] the mixed output stays in [0,1] (convex combination).
    """
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    seq, d = q.data.shape
    if d % num_heads or k.data.shape != (seq, d) or v.data.shape != (seq, d):
        raise ShapeError("attention shapes inconsistent with num_heads")
    dh = d // num_heads

    def split(x):
        return ad.transpose(ad.reshape(x, (seq, num_heads, dh)), (1, 0, 2))

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ ad.transpose(kh, (0, 2, 1))) * (1.0 / math.sqrt(dh))
    weights = softmax(scores, axis=-1)
    mixed = weights @ vh
    return ad.reshape(ad.transpose(mixed, (1, 0, 2)), (seq, d))


# -- teacher ------------------------------------------------------------

@dataclass(frozen=True)
class TeacherConfig:
    vocab_size: int
    hidden_dim: int = 64
    intermediate_dim: int = 128
    num_heads: int = 2
    num_layers: int = 2
    max_len: int = 32
    num_labels: int = 2

    def __post_init__(self):
        if self.hidden_dim % self.num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")


class TeacherModel:
    """Small non-spiking transformer encoder (softmax attention, GELU FFN)."""

    def __init__(self, cfg: TeacherConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, inter = cfg.hidden_dim, cfg.intermediate_dim
        self.params = {"tok_emb": rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, d)),
                       "pos_emb": rng.uniform(-0.1, 0.1, size=(cfg.max_len, d)),
                       "cls.w": init_uniform(rng, cfg.num_labels, d),
                       "cls.b": np.zeros(cfg.num_labels)}
        for i in range(cfg.num_layers):
            for nm, (o, ii) in {"q": (d, d), "k": (d, d), "v": (d, d),
                                "o": (d, d), "ff1": (inter, d),
                                "ff2": (d, inter)}.items():
                self.params[f"blk{i}.{nm}.w"] = init_uniform(rng, o, ii)
                self.params[f"blk{i}.{nm}.b"] = np.zeros(o)
            self.params[f"blk{i}.ln1_g"] = np.ones(d)
            self.params[f"blk{i}.ln1_b"] = np.zeros(d)
            self.params[f"blk{i}.ln2_g"] = np.ones(d)
            self.params[f"blk{i}.ln2_b"] = np.zeros(d)

    def named_params(self) -> dict:
        return self.params

    def param_tensors(self) -> dict:
        return {k: Tensor(v, requires_grad=True) for k, v in self.params.items()}

    def forward(self, tokens, leaves=None):
        """Returns (per-block hidden state Tensors, logit Tensor)."""
        cfg = self.cfg
        if leaves is None:
            leaves = self.param_tensors()
        tokens = np.asarray(tokens, dtype=np.int64)
        if np.any(tokens < 0) or np.any(tokens >= cfg.vocab_size):
            raise ValueError("token id outside teacher vocabulary")
        h = take_rows(leaves["tok_emb"], tokens) + ad.getitem(
            leaves["pos_emb"], slice(0, len(tokens)))
        hiddens = []
        for i in range(cfg.num_layers):
            def lin(nm, x):
                return x @ ad.transpose(leaves[f"blk{i}.{nm}.w"], (1, 0)) \
                    + leaves[f"blk{i}.{nm}.b"]

            attn = spiking_attention(lin("q", h), lin("k", h), lin("v", h),
                                     cfg.num_heads)
            h = layer_norm(lin("o", attn) + h,
                           leaves[f"blk{i}.ln1_g"], leaves[f"blk{i}.ln1_b"])
            ff = lin("ff2", ad.gelu(lin("ff1", h)))
            h = layer_norm(ff + h,
                           leaves[f"blk{i}.ln2_g"], leaves[f"blk{i}.ln2_b"])
            hiddens.append(h)
        logits = leaves["cls.w"] @ ad.getitem(h, 0) + leaves["cls.b"]
        return hiddens, logits


def teacher_forward(teacher: TeacherModel, tokens):
    """Numeric teacher pass: per-block hidden arrays and logits."""
    with no_grad():
        hiddens, logits = teacher.forward(tokens)
    return [h.data for h in hiddens], logits.data
