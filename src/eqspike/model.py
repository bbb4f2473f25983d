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
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, clip01, layer_norm, no_grad
from .neuron import LifConfig, LifLayerState, RunningAverage, lif_step
from .numerics import ShapeError, check_finite, init_uniform
from .quantizer import (OpCounter, QuantMode, QuantizedLinear,
                        effective_weight_tensor, quantized_forward,
                        stack_pinned)


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

    def __post_init__(self):
        # a mode may arrive as its value, from a YAML config or a checkpoint
        object.__setattr__(self, "quant_mode", QuantMode(self.quant_mode))
        _check_shape(self)
        LifConfig(self.gamma, self.v_th)  # raises on a gamma or v_th out of range


def _check_shape(cfg):
    """Raises ValueError on a block shape no encoder can take."""
    if cfg.hidden_dim <= 0 or cfg.intermediate_dim <= 0 or cfg.num_heads <= 0:
        raise ValueError("dimensions must be positive")
    if cfg.hidden_dim % cfg.num_heads:
        raise ValueError("hidden_dim must be divisible by num_heads")
    if cfg.num_layers < 1:
        raise ValueError("need at least one encoder layer")


def _add_blocks(params: dict, cfg, rng, ln_gain: float, ln_bias: float) -> list:
    """Adds every block's parameters to `params`; returns its linears' names.

    Block i's linear nm is "blk{i}.{nm}", for nm in q, k, v, o, ff1, ff2:
    a weight ".w" of shape (out, in), drawn in that order, and a zero bias
    ".b".  Its layer norms "blk{i}.ln1_g" ... "blk{i}.ln2_b" start at gain
    `ln_gain` and bias `ln_bias`.
    """
    d, inter = cfg.hidden_dim, cfg.intermediate_dim
    names = []
    for i in range(cfg.num_layers):
        for nm, (rows, cols) in {"q": (d, d), "k": (d, d), "v": (d, d),
                                 "o": (d, d), "ff1": (inter, d),
                                 "ff2": (d, inter)}.items():
            names.append(f"blk{i}.{nm}")
            params[names[-1] + ".w"] = init_uniform(rng, rows, cols)
            params[names[-1] + ".b"] = np.zeros(rows)
        for ln in ("ln1", "ln2"):
            params[f"blk{i}.{ln}_g"] = np.full(d, ln_gain)
            params[f"blk{i}.{ln}_b"] = np.full(d, ln_bias)
    return names


# The gain and bias every student layer norm starts from.
LN_GAIN_INIT = 0.2
LN_BIAS_INIT = 0.5

# Neuron rows (batch x sequence positions) x timesteps in one window of
# `EncoderStack.temporal_simulate`: 20 steps for one 12-token sentence, and
# one step at a time once a batch has WINDOW_ROWS rows.  A longer window
# pays the per-call overhead less often but holds more of its steps in
# memory at once.
WINDOW_ROWS = 240


class EncoderStack:
    """Quantized spiking encoder with embedding and full-precision head."""

    def __init__(self, cfg: StackConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.hidden_dim
        p = self.params = {
            "tok_emb": rng.uniform(-0.25, 0.25, size=(cfg.vocab_size, d)),
            "pos_emb": rng.uniform(-0.25, 0.25, size=(cfg.max_len, d))}
        names = _add_blocks(p, cfg, rng, LN_GAIN_INIT, LN_BIAS_INIT)
        # classifier head stays full precision
        p["cls.w"] = init_uniform(rng, cfg.num_labels, d)
        p["cls.b"] = np.zeros(cfg.num_labels)
        # every quantized linear under its name, holding its ".w"/".b" arrays
        self.linears = {k: QuantizedLinear(
            p[k + ".w"], p[k + ".b"], mode=cfg.quant_mode,
            binary_output_scale=cfg.binary_output_scale) for k in names}
        # every parameter is updated in place, so these stay its entries
        self.tok_emb, self.pos_emb = p["tok_emb"], p["pos_emb"]
        self.cls_w, self.cls_b = p["cls.w"], p["cls.b"]

    # -- parameter plumbing --------------------------------------------
    def named_params(self) -> dict:
        return self.params

    def param_tensors(self) -> dict:
        return {k: Tensor(v, requires_grad=True) for k, v in self.params.items()}

    def set_quant_mode(self, mode: QuantMode):
        self.cfg = dataclasses.replace(self.cfg, quant_mode=mode)
        for lin in self.linears.values():
            lin.mode = mode
            lin.frozen_codes = lin.frozen_weight = lin.column_nnz = None

    def freeze_quantization(self):
        for lin in self.linears.values():
            lin.freeze()

    # -- steady-state (rate) path --------------------------------------
    # Rate tensors are (seq, d) for one sentence or (B, seq, d) for a
    # stacked batch of equal-length sentences; every rate-path function
    # acts on the last two axes and carries any leading axis through.
    def encoding(self, tokens, leaves) -> Tensor:
        """Token + positional embedding, affinely shifted into [0,1].

        `tokens` is (seq,) or (B, seq); the result is (seq, d) or (B, seq, d).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim not in (1, 2) or tokens.shape[-1] > self.cfg.max_len:
            raise ShapeError("tokens must be (seq,) or (B, seq) within max_len")
        e = ad.getitem(leaves["tok_emb"], tokens)
        pos = ad.getitem(leaves["pos_emb"], slice(0, tokens.shape[-1]))
        return clip01(e + pos + 0.5)

    def effective_weights(self, leaves) -> dict:
        """Each linear's effective weight Tensor, keyed "blk{i}.{name}".

        Built from the "blk{i}.{name}.w" leaves by `effective_weight_tensor`
        (quantized afresh unless the layer is frozen).
        """
        return {name: effective_weight_tensor(lin, leaves[f"{name}.w"])
                for name, lin in self.linears.items()}

    def block_forward(self, i: int, a_prev: Tensor, leaves, weights: dict,
                      record: dict | None = None) -> Tensor:
        """Block i's rate equations on the block input `a_prev`.

        `weights` are the `effective_weights` of `leaves`.  Each linear is
        one `ad.linear` node and each spiking nonlinearity one threshold
        `clip01(·, v_th)` node; with attention, the two layer norms and the
        two residual adds, a block tapes 18 op nodes over its 16 parameter
        leaves (plus one straight-through view per quantized linear).
        """
        cfg = self.cfg
        vth = cfg.v_th

        def lin(name, x):
            key = f"blk{i}.{name}"
            return ad.linear(x, weights[key], leaves[f"{key}.b"])

        aq = clip01(lin("q", a_prev), vth)
        ak = clip01(lin("k", a_prev), vth)
        av = clip01(lin("v", a_prev), vth)
        mixed = spiking_attention(aq, ak, av, cfg.num_heads)
        a_attn = clip01(mixed, vth)
        r1 = lin("o", a_attn) + a_prev
        h1 = clip01(layer_norm(r1, leaves[f"blk{i}.ln1_g"],
                               leaves[f"blk{i}.ln1_b"]), vth)
        ai = clip01(lin("ff1", h1), vth)
        r2 = lin("ff2", ai) + h1
        out = clip01(layer_norm(r2, leaves[f"blk{i}.ln2_g"],
                                leaves[f"blk{i}.ln2_b"]), vth)
        if record is not None:
            record[f"blk{i}.q"] = aq.data
            record[f"blk{i}.k"] = ak.data
            record[f"blk{i}.v"] = av.data
            record[f"blk{i}.attn"] = a_attn.data
            record[f"blk{i}.h1"] = h1.data
            record[f"blk{i}.int"] = ai.data
            record[f"blk{i}.out"] = out.data
        return out

    def sweep(self, tokens, leaves, record: dict | None = None) -> list[Tensor]:
        """The block outputs of one forward pass over `leaves`.

        The one rate-path forward: the equilibrium solve runs it untaped,
        training on the tape.  Block i reads only block i-1, so one pass in
        block order from the encoding lands on the fixed point of the rate
        equations.  The encoding and each linear's effective weight are
        built once.  `record`, when given, collects every spiking layer's
        rates ("input" and per block).  Raises NumericError on a non-finite
        rate.
        """
        prev = self.encoding(tokens, leaves)
        if record is not None:
            record["input"] = prev.data
        weights = self.effective_weights(leaves)
        outs = []
        for i in range(self.cfg.num_layers):
            prev = self.block_forward(i, prev, leaves, weights, record)
            check_finite(prev.data, f"rates of block {i}")
            outs.append(prev)
        return outs

    def rate_map(self, tokens, state: list[np.ndarray]) -> list[np.ndarray]:
        """The undamped Jacobi update f(state); fixed points satisfy f(a)=a."""
        with no_grad():
            leaves = self.param_tensors()
            weights = self.effective_weights(leaves)
            inputs = [self.encoding(tokens, leaves)] + [Tensor(a) for a in state[:-1]]
            return [self.block_forward(i, inputs[i], leaves, weights).data
                    for i in range(self.cfg.num_layers)]

    def logits(self, final: np.ndarray) -> np.ndarray:
        """Numeric logits (..., C) of final-block rates (..., seq, d).

        The CLS row (position 0) takes one matrix-vector product per
        sentence, so a sentence's logits do not depend on its batch.
        """
        return (self.cls_w @ final[..., 0, :, None])[..., 0] + self.cls_b

    # -- temporal (spiking) path ---------------------------------------
    def temporal_simulate(self, tokens, T: int, counter: OpCounter | None = None,
                          trace: list | None = None,
                          trace_targets: dict | None = None):
        """Full LIF simulation for T steps, a window of steps at a time.

        `tokens` is (seq,) or (B, seq): a batch runs in one pass, each row
        bitwise equal to its own run.  Returns (logits (..., C), per-layer
        ASR dict, per-layer per-neuron spike count dict), ASRs and counts
        (..., seq, width).  `trace`, when given, collects (step, layer,
        mean_asr, residual) rows; residuals are against `trace_targets`.

        The steps run in windows of WINDOW_ROWS // (B * seq) steps (at
        least one).  Within a window the sublayers go in block order, each
        over all the window's steps in one call.  A block's q, k and v
        linears read the same spikes and drive independent neurons, so they
        run as one layer: one `quantized_forward` on their `stack_pinned`
        linear and one `lif_step` on their neurons side by side.  So a
        window makes 4 `quantized_forward` calls per block (`counter` still
        gets one `add` per linear, summed over the batch) and 1 + 5 * L
        `lif_step` calls, and runs attention, layer norm and the telescoped
        currents on whole windows.  Within a step every dependency runs
        from one sublayer to the next, and across steps only through each
        layer's own state, so this is bitwise the step-by-step simulation.
        Linears are `pinned` once (an unfrozen layer is quantized once, its
        alpha/beta left as they were), and finiteness is checked once, on
        every membrane potential at the end (a non-finite current leaves it
        non-finite for good), raising NumericError.
        """
        if T < 1:
            raise ValueError("T must be >= 1")
        cfg, p = self.cfg, self.params
        lif = LifConfig(cfg.gamma, cfg.v_th)
        drive = self.encoding(tokens, p).data
        layers = {"input": LifLayerState.zeros(drive.shape, cfg.gamma)}
        parts = {"input": ("input",)}  # per neuron layer, the layers it reports
        d, inter = cfg.hidden_dim, cfg.intermediate_dim
        # per block: its layer-name prefix, its stacked q/k/v linear, its
        # other linears pinned, the residual averages and the telescoped
        # surrogates
        runs = []
        for i in range(cfg.num_layers):
            pre = f"blk{i}."
            for nm, width in (("qkv", 3 * d), ("attn", d), ("h1", d),
                              ("out", d), ("int", inter)):
                layers[pre + nm] = LifLayerState.zeros(
                    drive.shape[:-1] + (width,), cfg.gamma)
                parts[pre + nm] = (pre + nm,)
            parts[pre + "qkv"] = (pre + "q", pre + "k", pre + "v")
            runs.append((pre, stack_pinned([self.linears[pre + nm]
                                            for nm in ("q", "k", "v")]),
                         {nm: self.linears[pre + nm].pinned()
                          for nm in ("o", "ff1", "ff2")},
                         RunningAverage(cfg.gamma), RunningAverage(cfg.gamma),
                         {nm: _Telescoped() for nm in ("attn", "h1", "out")}))
        tracing = trace is not None
        step = max(1, WINDOW_ROWS // (drive.size // drive.shape[-1]))

        def split(name, x):
            """{reported layer: its part of x (..., width)} for layer `name`."""
            return {part: np.ascontiguousarray(a) for part, a in zip(
                parts[name], np.split(x, len(parts[name]), axis=-1))}

        # `fire` and `block` read the current window's `steps` and `means`,
        # which the window loop below binds
        def fire(name, currents, per_step_asr=False):
            """Advance layer `name` over the window; its (spikes, ASRs)."""
            spikes, asrs = lif_step(layers[name], currents, lif,
                                    per_step_asr or tracing)
            if tracing:
                for part, a in split(name, asrs).items():
                    means[part] = a.reshape(len(a), -1).mean(axis=1)
            return spikes, asrs

        def block(pre, qkv, pinned, r1_avg, r2_avg, tele, s_in):
            """Advance a block over the window; its output spikes.

            Each window-sized intermediate is passed straight on, so that
            few of them are alive at once.
            """
            def linear(nm, x):  # the currents of linear nm under spikes x
                return quantized_forward(pinned[nm], x, counter, pre + nm)

            def surrogate(nm, phi):  # the spikes of the neurons behind phi
                return fire(pre + nm, tele[nm](phi, steps))[0]

            def norm(ln, r):  # layer norm ln of the residual average r
                return layer_norm(r, p[pre + ln + "_g"], p[pre + ln + "_b"]).data

            _, aqkv = fire(pre + "qkv", quantized_forward(
                qkv, s_in, counter, parts[pre + "qkv"]), True)
            sa = surrogate("attn", spiking_attention(
                *np.split(aqkv, 3, axis=-1), cfg.num_heads).data)
            del aqkv
            sh = surrogate("h1", norm("ln1", r1_avg.push(linear("o", sa) + s_in)))
            si, _ = fire(pre + "int", linear("ff1", sh))
            return surrogate("out", norm("ln2", r2_avg.push(linear("ff2", si) + sh)))

        reported = [part for names in parts.values() for part in names]
        for t0 in range(0, T, step):
            steps = np.arange(t0 + 1, min(t0 + step, T) + 1, dtype=np.float64)
            means = dict.fromkeys(reported)
            s_in, _ = fire("input", np.broadcast_to(drive, steps.shape
                                                    + drive.shape))
            for run in runs:
                s_in = block(*run, s_in)
            if tracing:
                for k in range(len(steps)):
                    for name, m in means.items():
                        m = float(m[k])
                        target = trace_targets.get(name) if trace_targets else None
                        resid = abs(m - target) if target is not None else float("nan")
                        trace.append((t0 + 1 + k, name, m, resid))

        asrs, spike_counts = {}, {}
        for name, st in layers.items():
            check_finite(st.u, f"membrane potential of {name}")
            asrs.update(split(name, st.rate.value))
            spike_counts.update(split(name, st.count))
        final = asrs[f"blk{cfg.num_layers - 1}.out"]
        return self.logits(final), asrs, spike_counts

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


class _Telescoped:
    """Input currents of the neurons behind a nonlinear surrogate.

    The surrogates (attention mix, normalization) are driven so that their
    integrated input current through step t equals t * phi_t, phi_t the
    surrogate of the running averages at t: the current at step t is
    t * phi_t - (t - 1) * phi_{t-1}.  That telescoping keeps the temporal
    path converging at the 1/T rate of the rate averages themselves
    instead of accumulating burn-in error.
    """

    def __init__(self):
        self.last = None  # phi at the step before the next window

    def __call__(self, phi: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The currents of a window: `phi` (C, ...) at the steps `steps` (C,)."""
        ts = steps.reshape((-1,) + (1,) * (phi.ndim - 1))
        current = ts * phi
        current[1:] -= (ts[1:] - 1.0) * phi[:-1]
        if self.last is not None:  # at step 1 the current is phi_1 itself
            current[0] -= (ts[0] - 1.0) * self.last
        self.last = phi[-1].copy()
        return current


def spiking_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Scaled dot-product attention over rate tensors, split by head.

    q, k and v are (..., seq, d) Tensors or arrays; attention runs within
    each sequence, and leading axes are a batch.  Rows of the score matrix
    are softmax-normalized; with rate values in [0,1] the mixed output
    stays in [0,1] (convex combination).  One autodiff primitive: the
    forward is plain numpy in the operation order of the composite
    split/matmul/softmax/merge graph (bitwise equal to it), and the
    backward is the closed-form softmax-attention VJP.
    """
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    shape = q.data.shape
    d = shape[-1]
    if len(shape) < 2 or d % num_heads or k.data.shape != shape \
            or v.data.shape != shape:
        raise ShapeError("attention shapes inconsistent with num_heads")
    dh = d // num_heads
    by_head = shape[:-1] + (num_heads, dh)
    heads_first, keys_last = _head_axes(len(shape) - 2)
    qh, kh, vh = (x.data.reshape(by_head).transpose(heads_first)
                  for x in (q, k, v))
    scale = 1.0 / math.sqrt(dh)
    scores = (qh @ kh.transpose(keys_last)) * scale
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    total = e.sum(axis=-1, keepdims=True)
    weights = e / total
    mixed = (weights @ vh).transpose(heads_first).reshape(shape)

    def vjp(g):
        gh = g.reshape(by_head).transpose(heads_first)
        gw = gh @ vh.transpose(keys_last)
        gv = weights.transpose(keys_last) @ gh
        # quotient rule through e / total, then exp and the score scale
        ge = gw / total + (-gw * e / total ** 2).sum(axis=-1, keepdims=True)
        gs = ge * e * scale
        gq = gs @ kh
        gk = (qh.transpose(keys_last) @ gs).transpose(keys_last)
        return tuple(x.transpose(heads_first).reshape(shape)
                     for x in (gq, gk, gv))

    return ad._make(mixed, (q, k, v), vjp)


@functools.cache
def _head_axes(lead: int):
    """Transpose axes behind `spiking_attention` for `lead` batch axes.

    The first swaps (..., seq, h, dh) and (..., h, seq, dh), and is its own
    inverse; the second swaps the last two axes.
    """
    b = tuple(range(lead))
    return b + (lead + 1, lead, lead + 2), b + (lead, lead + 2, lead + 1)


def classifier_logits(a_final: Tensor, leaves) -> Tensor:
    """Logits (..., C) = cls @ W^T + b from final states (..., seq, d).

    The first position carries the CLS token; W and b are the "cls.w" and
    "cls.b" leaves.
    """
    cls = ad.getitem(a_final, (Ellipsis, 0, slice(None)))
    return ad.linear(cls, leaves["cls.w"], leaves["cls.b"])


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
        _check_shape(self)


class TeacherModel:
    """Small non-spiking transformer encoder (softmax attention, GELU FFN)."""

    def __init__(self, cfg: TeacherConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.hidden_dim
        self.params = {"tok_emb": rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, d)),
                       "pos_emb": rng.uniform(-0.1, 0.1, size=(cfg.max_len, d)),
                       "cls.w": init_uniform(rng, cfg.num_labels, d),
                       "cls.b": np.zeros(cfg.num_labels)}
        _add_blocks(self.params, cfg, rng, 1.0, 0.0)

    def named_params(self) -> dict:
        return self.params

    def param_tensors(self) -> dict:
        return {k: Tensor(v, requires_grad=True) for k, v in self.params.items()}

    def forward(self, tokens, leaves=None):
        """Returns (per-block hidden state Tensors, logit Tensor).

        `tokens` is (seq,) or (B, seq); hiddens are then (seq, d) or
        (B, seq, d) and logits (C,) or (B, C).
        """
        cfg = self.cfg
        if leaves is None:
            leaves = self.param_tensors()
        tokens = np.asarray(tokens, dtype=np.int64)
        if np.any(tokens < 0) or np.any(tokens >= cfg.vocab_size):
            raise ValueError("token id outside teacher vocabulary")
        h = ad.getitem(leaves["tok_emb"], tokens) + ad.getitem(
            leaves["pos_emb"], slice(0, tokens.shape[-1]))
        hiddens = []
        for i in range(cfg.num_layers):
            def lin(nm, x):
                return ad.linear(x, leaves[f"blk{i}.{nm}.w"],
                                 leaves[f"blk{i}.{nm}.b"])

            attn = spiking_attention(lin("q", h), lin("k", h), lin("v", h),
                                     cfg.num_heads)
            h = layer_norm(lin("o", attn) + h,
                           leaves[f"blk{i}.ln1_g"], leaves[f"blk{i}.ln1_b"])
            ff = lin("ff2", ad.gelu(lin("ff1", h)))
            h = layer_norm(ff + h,
                           leaves[f"blk{i}.ln2_g"], leaves[f"blk{i}.ln2_b"])
            hiddens.append(h)
        return hiddens, classifier_logits(h, leaves)


def teacher_forward(teacher: TeacherModel, tokens):
    """Numeric teacher pass: per-block hidden arrays and logits."""
    with no_grad():
        hiddens, logits = teacher.forward(tokens)
    return [h.data for h in hiddens], logits.data
