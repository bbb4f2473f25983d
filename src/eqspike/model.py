"""The spiking student encoder and the full-precision teacher, on one skeleton.

The student is the teacher's encoder with two changes: threshold neurons
in place of its activations, and 1-bit or 1.58-bit weights.  So the rate
path is written once and both models bind it: `sweep`, `block_forward`,
`block_backward`, `backward` and the classifier head `logits`.  A model
brings only its `neurons`, one (forward, backward) pair per site, and its
`effective_weights`:

* the student fires `clip01` at q/k/v, attn, h1, int and out and
  `clip01(· + 0.5)` at the input, and runs on its pinned (quantized)
  weights;
* the teacher is the identity at every site but int, where it is GELU,
  and runs on its latent weights.

Block structure: q/k/v projections feed neurons, their outputs mix
through scaled dot-product attention, and the attention output plus a
residual passes through a layer norm; the feed-forward half mirrors that
with an intermediate neuron layer.  Student rates live in [0, 1] by
construction.

Why the rate equilibrium is one sweep: block i reads only block i-1,
never itself or a later block, so the rate map's Jacobian in the block
state is strictly lower triangular.  One forward pass in block order
lands on the fixed point a* = f(a*) exactly, and one backward pass
through that pass's caches solves the implicit-function adjoint
v = dL/da* + (df/da)^T v exactly.  SpikingBERT (Bal & Sengupta, AAAI
2024) trains its spiking equilibrium by implicit differentiation, with
iterative fixed-point and adjoint solves; this architecture needs
neither.

The student also has a temporal path that simulates integrate-and-fire
neurons at unit threshold step by step with spike-driven quantized
linears (inference and energy accounting); it agrees with the rate path
in the long run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (clip01, clip01_backward, gelu, gelu_backward,
                       layer_norm, layer_norm_backward, linear,
                       linear_backward)
from .neuron import LifLayerState, lif_step, running_means, telescoped
from .numerics import FlatParams, ShapeError, check_finite, init_uniform
from .quantizer import (OpCounter, QuantMode, effective_weight_tensor, pin,
                        quantized_forward, split_last, stack_pinned)


@dataclass(frozen=True)
class TeacherConfig:
    """An encoder's shape: the teacher's config, and the first fields of
    the student's."""
    vocab_size: int
    hidden_dim: int = 64
    intermediate_dim: int = 128
    num_heads: int = 2
    num_layers: int = 2
    max_len: int = 32
    num_labels: int = 2

    def __post_init__(self):
        if self.hidden_dim <= 0 or self.intermediate_dim <= 0 \
                or self.num_heads <= 0:
            raise ValueError("dimensions must be positive")
        if self.hidden_dim % self.num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if self.num_layers < 1:
            raise ValueError("need at least one encoder layer")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class StackConfig(TeacherConfig):
    quant_mode: QuantMode = QuantMode.FULL_PRECISION
    binary_output_scale: bool = False

    def __post_init__(self):
        # a mode may arrive as its value, from a YAML config or a checkpoint
        object.__setattr__(self, "quant_mode", QuantMode(self.quant_mode))
        super().__post_init__()


# the shape fields two stacks share to run side by side or be compared:
# all of TeacherConfig's, which StackConfig extends, but the vocabulary
# size.  The op table reads the simulated length, not `max_len`, which
# stays as the position table's.
ARCHITECTURE_FIELDS = tuple(f.name for f in dataclasses.fields(TeacherConfig)
                            if f.name != "vocab_size")


def architecture_differences(cfg, other) -> list:
    """The `ARCHITECTURE_FIELDS` on which configs `cfg` and `other` differ."""
    return [f for f in ARCHITECTURE_FIELDS
            if getattr(cfg, f) != getattr(other, f)]


def _token_ids(tokens, cfg) -> np.ndarray:
    """`tokens` as int64 ids.  Raises ShapeError unless they are (seq,) or
    (B, seq) with seq <= `cfg.max_len`, ValueError on an id outside
    [0, `cfg.vocab_size`)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.shape[-1] > cfg.max_len:
        raise ShapeError("tokens must be (seq,) or (B, seq) within max_len")
    if np.any((tokens < 0) | (tokens >= cfg.vocab_size)):
        raise ValueError("token id outside the model's vocabulary of "
                         f"{cfg.vocab_size}")
    return tokens


def _embed(params, tokens: np.ndarray) -> np.ndarray:
    """Token plus position embedding of checked `tokens`, (..., seq, d)."""
    return params["tok_emb"][tokens] + params["pos_emb"][:tokens.shape[-1]]


def _block_input_grad(g_res, g_loss, g_qkv):
    """The gradient on a block's input, summed in one fixed order.

    The residual's term, then the loss's own gradient on that input (None
    when the loss does not read it), then the q, k and v terms: the order
    in which the taped reference in `tests/oracles.py` sums them, so
    training stays bitwise equal to it.
    """
    g = g_res if g_loss is None else g_res + g_loss
    for term in g_qkv:
        g = g + term
    return g


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


# -- neurons: per site, forward(a) -> (output, saved) and
# backward(g, saved) -> the gradient on a

# A block's neuron sites, in the order `block_forward` records them.
SITES = ("q", "k", "v", "attn", "h1", "int", "out")


def _identity(a):
    # `a` itself, not a copy, and a backward that passes `g` on: so the
    # teacher runs exactly the operations of a plain GELU encoder
    return a, None


def _identity_backward(g, _saved):
    return g


def _shifted_clip(e):
    """The student's input neuron: clip01(e + 0.5), saving e + 0.5."""
    x = e + 0.5
    return clip01(x), x


def _clip(a):
    """The student's block neuron: clip01(a), saving a."""
    return clip01(a), a


# -- the rate-path skeleton, bound by both model classes ----------------
# Rate tensors are (seq, d) for one sentence or (B, seq, d) for a stacked
# batch of equal-length sentences; every rate-path function acts on the
# last two axes and carries any leading axis through.

def _sweep(self, tokens, record: dict | None = None,
           caches: list | None = None) -> list[np.ndarray]:
    """The block outputs of one forward pass.

    The one rate-path forward, shared by the student's equilibrium solve,
    training and the teacher; it lands on the fixed point of the rate
    equations (the module docstring says why).  The input and each
    linear's effective weight are built once.  `record`, when given,
    collects every neuron site's output ("input" and per block); `caches`,
    when given, gets what `backward` reads (the tokens and the input
    neuron's saved value, then each block's cache).  Raises NumericError
    on a non-finite block output.
    """
    tokens = _token_ids(tokens, self.cfg)
    prev, saved = self.neurons["input"][0](_embed(self.params, tokens))
    if record is not None:
        record["input"] = prev
    if caches is not None:
        caches.append((tokens, saved))
    weights = self.effective_weights()
    outs = []
    for i in range(self.cfg.num_layers):
        prev = self.block_forward(i, prev, weights, record, caches)
        check_finite(prev, f"rates of block {i}")
        outs.append(prev)
    return outs


def _block_forward(self, i: int, a_prev: np.ndarray, weights: dict,
                   record: dict | None = None,
                   caches: list | None = None) -> np.ndarray:
    """Block i's rate equations on the block input `a_prev`.

    `weights` are the `effective_weights`.  Each linear feeds its neuron
    site; attention mixes the q/k/v outputs, and two layer norms close the
    residual halves.  `record`, when given, collects the block's neuron
    outputs; `caches`, when given, gets the cache `block_backward` reads.
    Without it each site's saved intermediates are dropped as soon as the
    site returns, and attention saves none.
    """
    p, pre, fire = self.params, f"blk{i}.", self.neurons
    saved = [] if caches is not None else None

    def lin(name, x):
        return linear(x, weights[pre + name], p[pre + name + ".b"])

    def keep(out_and_saved):
        out, s = out_and_saved
        if saved is not None:
            saved.append(s)
        return out

    aq, ak, av = (keep(fire[nm][0](lin(nm, a_prev))) for nm in ("q", "k", "v"))
    a_attn = keep(fire["attn"][0](keep(spiking_attention(
        aq, ak, av, self.cfg.num_heads, save=saved is not None))))
    h1 = keep(fire["h1"][0](keep(layer_norm(
        lin("o", a_attn) + a_prev, p[pre + "ln1_g"], p[pre + "ln1_b"]))))
    ai = keep(fire["int"][0](lin("ff1", h1)))
    out = keep(fire["out"][0](keep(layer_norm(
        lin("ff2", ai) + h1, p[pre + "ln2_g"], p[pre + "ln2_b"]))))
    if record is not None:
        record.update({pre + "q": aq, pre + "k": ak, pre + "v": av,
                       pre + "attn": a_attn, pre + "h1": h1,
                       pre + "int": ai, pre + "out": out})
    if caches is not None:
        sq, sk, sv, att, s_attn, ln1, s_h1, s_int, ln2, s_out = saved
        caches.append((weights, a_prev, (sq, sk, sv), att, s_attn, a_attn,
                       ln1, s_h1, h1, s_int, ai, ln2, s_out))
    return out


def _block_backward(self, i: int, g: np.ndarray, cache: tuple, grads: dict,
                    g_loss: np.ndarray | None = None):
    """The gradient on block i's input from `g` on its output.

    `cache` is `block_forward`'s.  Each parameter's gradient is added into
    its `grads` view (a quantized linear's straight through to its latent
    weight).  `g_loss` is the loss's own gradient on the block's input
    (`_block_input_grad` fixes the summation order).
    """
    (weights, a_prev, s_qkv, att, s_attn, a_attn, ln1, s_h1, h1, s_int, ai,
     ln2, s_out) = cache
    p, pre, fire = self.params, f"blk{i}.", self.neurons

    def lin(name, g, x):
        gx, gw, gb = linear_backward(g, x, weights[pre + name])
        grads[pre + name + ".w"] += gw
        grads[pre + name + ".b"] += gb
        return gx

    def norm(name, g, saved):
        gx, ggain, gbias = layer_norm_backward(g, saved, p[pre + name + "_g"])
        grads[pre + name + "_g"] += ggain
        grads[pre + name + "_b"] += gbias
        return gx

    g_r2 = norm("ln2", fire["out"][1](g, s_out), ln2)
    g_h1 = g_r2 + lin("ff1", fire["int"][1](lin("ff2", g_r2, ai), s_int), h1)
    g_r1 = norm("ln1", fire["h1"][1](g_h1, s_h1), ln1)
    g_qkv = attention_backward(fire["attn"][1](lin("o", g_r1, a_attn), s_attn),
                               att)
    return _block_input_grad(g_r1, g_loss, [
        lin(nm, fire[nm][1](ga, s), a_prev)
        for nm, ga, s in zip(("q", "k", "v"), g_qkv, s_qkv)])


def _backward(self, caches: list, g_blocks: list, grads: dict):
    """Adds the gradient of a loss into `grads`, a gradient buffer's views.

    `grads` maps names to those views; only the model's own are written,
    so it may hold a loss's other entries too.  `caches` is a `sweep`'s.
    `g_blocks` is the loss's gradient on each block output, None where the
    loss does not read it; it must read the last one.  Each block's
    backward runs in reverse order, then the input neuron's, then the
    embeddings': rows that the tokens repeat accumulate from zero, in
    position order (one `np.bincount` over the flat (token, column) cells,
    the order of `np.add.at`), before the table is added, as each position
    contributes once per sentence.
    """
    g = g_blocks[-1]
    for i in reversed(range(len(caches) - 1)):
        g = self.block_backward(i, g, caches[i + 1], grads,
                                g_blocks[i - 1] if i else None)
    tokens, saved = caches[0]
    g = self.neurons["input"][1](g, saved)
    table = grads["tok_emb"]
    cells = tokens[..., None] * table.shape[1] + np.arange(table.shape[1])
    table += np.bincount(cells.ravel(), g.ravel(),
                         table.size).reshape(table.shape)
    grads["pos_emb"][:tokens.shape[-1]] += g.sum(axis=tuple(range(g.ndim - 2)))


def _logits(self, final: np.ndarray) -> np.ndarray:
    """Numeric logits (..., C) of final-block outputs (..., seq, d).

    The CLS row (position 0) takes one matrix-vector product per sentence,
    so a sentence's logits do not depend on its batch.
    """
    p = self.params
    return (p["cls.w"] @ final[..., 0, :, None])[..., 0] + p["cls.b"]


# The gain and bias every student layer norm starts from.
LN_GAIN_INIT = 0.2
LN_BIAS_INIT = 0.5

# The bytes a window of `EncoderStack.temporal_simulate` may give its
# widest array, at the default shapes the float64 q/k/v currents (M x B x
# seq x 3d per step, M the stacks run side by side): a window holds as
# many steps as fit, and at least one.  For one 12-token d=32 sentence
# that is 80 steps of one stack, three windows for T=200, or 40 steps of
# two; a 64-sentence batch runs one step at a time.  The budget is shared
# by the stacks side by side: a budget per stack would double the largest
# window array, and peak memory with it.  A longer window pays the
# per-call overhead less often but holds more of its steps in memory at
# once.  The budget stays under the heap's mmap threshold
# (`eqspike.MMAP_THRESHOLD`), so a window's arrays reuse freed heap pages.
WINDOW_BYTES = 720 << 10

# The fewest steps a window shared by several stacks must hold for them to
# run side by side.  Side by side, one `lif_step` loop iteration advances
# every stack, but the shared budget halves each stack's window, so each
# stack makes twice the `quantized_forward` calls.  Measured on two
# default-shape students at T=200 (thread time of `energy_compare`, one
# BLAS thread, side by side against one after another): -14% at 40 steps
# (one sentence), -8% at 20, -2% at 13 and even at 10; +0.3 to +1.3% at
# 4 to 6 steps, +7% at 3, +14% at 1 and 2 (16 and 32 sentences) and +4%
# at 64 sentences.  Below 10 steps side by side gains nothing, so the
# stacks run one after another.
SIDE_BY_SIDE_STEPS = 10


class EncoderStack:
    """Quantized spiking encoder with embedding and full-precision head."""

    sweep = _sweep
    block_forward = _block_forward
    block_backward = _block_backward
    backward = _backward
    logits = _logits
    # `clip01` at every block site, saving the pre-activation, and
    # `_shifted_clip` at the input
    neurons = {"input": (_shifted_clip, clip01_backward),
               **dict.fromkeys(SITES, (_clip, clip01_backward))}

    def __init__(self, cfg: StackConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.hidden_dim
        p = {"tok_emb": rng.uniform(-0.25, 0.25, size=(cfg.vocab_size, d)),
             "pos_emb": rng.uniform(-0.25, 0.25, size=(cfg.max_len, d))}
        self.linear_names = _add_blocks(p, cfg, rng, LN_GAIN_INIT,
                                        LN_BIAS_INIT)
        # classifier head stays full precision
        p["cls.w"] = init_uniform(rng, cfg.num_labels, d)
        p["cls.b"] = np.zeros(cfg.num_labels)
        p = self.params = FlatParams(p)
        # each linear's `Pinned` by name while the quantization is frozen
        self.frozen = None
        # every parameter is updated in place, so these stay its entries
        self.cls_w, self.cls_b = p["cls.w"], p["cls.b"]

    # -- quantization ---------------------------------------------------
    def set_quant_mode(self, mode: QuantMode):
        """Switches every linear to `mode`, unfrozen."""
        self.cfg = dataclasses.replace(self.cfg, quant_mode=mode)
        self.frozen = None

    def freeze_quantization(self):
        """Pins every linear on one quantization of its current latent
        weight, until `set_quant_mode` unfreezes the stack."""
        self.frozen = self.pin_latent()

    def pin_latent(self) -> dict:
        """Each linear's quantization of its latent weight now, by name,
        frozen or not: one `pin` call per weight shape (q/k/v/o, ff1 and
        ff2, three groups at any depth)."""
        cfg, groups = self.cfg, {}
        for k in self.linear_names:
            groups.setdefault(self.params[k + ".w"].shape, []).append(k)
        pins = {}
        for names in groups.values():
            pins.update(zip(names, pin(
                [self.params[k + ".w"] for k in names], cfg.quant_mode,
                cfg.binary_output_scale)))
        return {k: pins[k] for k in self.linear_names}

    def pinned(self) -> dict:
        """Each linear's `Pinned` by name: the frozen ones, else a fresh
        `pin_latent()` (the stack is left as it is)."""
        return self.pin_latent() if self.frozen is None else self.frozen

    # -- steady-state (rate) path --------------------------------------
    def encoding(self, tokens) -> np.ndarray:
        """The input neuron's rates: token + positional embedding, shifted
        into [0, 1].

        `tokens` is (seq,) or (B, seq); the result is (seq, d) or (B, seq, d).
        """
        e = _embed(self.params, _token_ids(tokens, self.cfg))
        return self.neurons["input"][0](e)[0]

    def effective_weights(self) -> dict:
        """Each linear's effective weight, keyed "blk{i}.{name}": that of
        its `pinned` value (quantized afresh unless the stack is frozen)."""
        return {name: effective_weight_tensor(p)
                for name, p in self.pinned().items()}

    def rate_map(self, tokens, state: list[np.ndarray]) -> list[np.ndarray]:
        """The undamped Jacobi update f(state); fixed points satisfy f(a)=a."""
        weights = self.effective_weights()
        inputs = [self.encoding(tokens)] + list(state[:-1])
        return [self.block_forward(i, inputs[i], weights)
                for i in range(self.cfg.num_layers)]

    # -- temporal (spiking) path ---------------------------------------
    def temporal_simulate(self, tokens, T: int, counter: OpCounter | None = None,
                          trace: list | None = None,
                          peers: list | None = None):
        """Full spiking simulation for T steps, a window of steps at a time.

        `tokens` is (seq,) or (B, seq): a batch runs in one pass, each row
        bitwise equal to its own run.  Returns (logits (..., C), per-layer
        per-neuron spike count dict), the counts (..., seq, width); a
        layer's ASRs are its counts / T, and the logits are the final
        block's.  `trace`, when given, collects (step, layer, mean_asr)
        rows.

        `peers`, when given, are (stack, counter) pairs to simulate on the
        same tokens: stacks of this one's `ARCHITECTURE_FIELDS`, else a
        ShapeError before any step runs.  The result is then a list of
        (logits, counts), this stack's first, each bitwise that stack's
        own run, and each counter is filled as by that run.  A trace
        follows one stack, so `trace` with peers is a ValueError.  The
        stacks run side by side, M of them in one pass, when a window
        shared by them holds at least SIDE_BY_SIDE_STEPS steps, and one
        after another otherwise.

        The steps run in windows of as many steps as keep the widest window
        array (M * B * seq rows of max(3d, intermediate, heads * seq)
        float64 values per step) within WINDOW_BYTES, and at least one.
        Within a window the sublayers go in block order, each over all the
        window's steps in one call, and each window-sized array is dropped
        once its consumer has run; a layer's per-step ASRs overwrite its
        currents.  Side by side, every window array has a model axis after
        its step axis, (C, M, ...): `lif_step`, `telescoped`,
        `running_means`, attention and layer norm (on gains and biases
        stacked to (M, 1, ..., d)) each run once for all the stacks, and
        a linear runs one `quantized_forward` per stack, on its slice and
        with its counter (a full-precision sum depends on the matmul's
        shape).  A block's q, k and v linears read the same spikes and
        drive independent neurons, so they run as one layer: one
        `quantized_forward` on their `stack_pinned` linear and one
        `lif_step` on their neurons side by side.  So a window makes
        4 * M `quantized_forward` calls per block (a counter still gets one
        `add` per linear, summed over the batch) and 1 + 5 * L `lif_step`
        calls, and runs attention, layer norm and the telescoped currents
        on whole windows.  Within a step every dependency runs from one
        sublayer to the next, and across steps only through each layer's
        own state, so this is bitwise the step-by-step simulation.
        Linears are `pinned` once (an unfrozen stack quantizes each linear
        once, not once per step), and finiteness is checked once, on every
        membrane potential at the end (a non-finite current leaves it
        non-finite for good), raising NumericError.
        """
        if T < 1:
            raise ValueError("T must be >= 1")
        runs = [(self, counter), *(peers or ())]
        for peer, _ in runs[1:]:
            differ = architecture_differences(self.cfg, peer.cfg)
            if differ:
                raise ShapeError("stacks simulated together need matching "
                                 f"architectures; {', '.join(differ)} differ")
        if trace is not None and len(runs) > 1:
            raise ValueError("a trace follows one stack; run peers untraced")
        drives = [stack.encoding(tokens) for stack, _ in runs]
        if _window_steps(self.cfg, (len(runs),) + drives[0].shape) \
                >= SIDE_BY_SIDE_STEPS:
            results = _simulate(runs, drives, T, trace)
        else:
            results = [r for run, drive in zip(runs, drives)
                       for r in _simulate([run], [drive], T, trace)]
        return results if peers is not None else results[0]


def _window_steps(cfg, shape: tuple) -> int:
    """The steps a window holds within WINDOW_BYTES, possibly 0, for neuron
    layers of `shape` (..., seq, d): the widest window array per step and
    neuron row is the float64 q/k/v currents, the intermediate layer's or
    the attention scores."""
    widest = max(3 * cfg.hidden_dim, cfg.intermediate_dim,
                 cfg.num_heads * shape[-2])
    return WINDOW_BYTES // (8 * widest * math.prod(shape[:-1]))


def _simulate(runs: list, drives: list, T: int, trace: list | None) -> list:
    """`temporal_simulate` of the (stack, counter) pairs `runs`, side by side
    on their input neurons' `drives`: one (logits, counts) per stack.

    One stack runs without a model axis, as `temporal_simulate` describes.
    """
    cfg = runs[0][0].cfg
    d, inter = cfg.hidden_dim, cfg.intermediate_dim
    lead = (len(runs),) if len(runs) > 1 else ()  # the model axis
    drive = np.stack(drives).reshape(lead + drives[0].shape)
    models = [(stack.pinned(), stack.params, counter)
              for stack, counter in runs]
    layers = {"input": LifLayerState.zeros(drive.shape)}
    parts = {"input": ("input",)}  # per neuron layer, the layers it reports

    def each(x):
        """Each model's part of a window array (C, *lead, ...)."""
        return [x[:, m] for m in range(len(runs))] if lead else [x]

    def joined(xs):
        """The models' window arrays `xs` (C, ...) as one (C, *lead, ...).

        The kernels write each model's array whole and the join copies it:
        arithmetic in place on a strided slice of the joint array costs
        about twice as much.
        """
        return np.stack(xs, axis=1) if lead else xs[0]

    def stacked(name):
        """Every model's parameter `name` (width,), shaped to broadcast
        over the neurons of a window array (C, *lead, ..., width)."""
        if not lead:
            return models[0][1][name]
        return np.stack([p[name] for _, p, _ in models]).reshape(
            lead + (1,) * (drives[0].ndim - 1) + (-1,))

    # per block: its layer-name prefix, each linear's counter name and
    # (pinned, bias, counter) per model (q/k/v stacked as "qkv"), each layer
    # norm's gain and bias, the residual sums and each telescoped
    # surrogate's last value
    blocks = []
    for i in range(cfg.num_layers):
        pre = f"blk{i}."
        for nm, width in (("qkv", 3 * d), ("attn", d), ("h1", d),
                          ("out", d), ("int", inter)):
            layers[pre + nm] = LifLayerState.zeros(
                drive.shape[:-1] + (width,))
            parts[pre + nm] = (pre + nm,)
        qkv = parts[pre + "qkv"] = (pre + "q", pre + "k", pre + "v")
        linears = {nm: (pre + nm, [(pins[pre + nm], p[pre + nm + ".b"],
                                    counter) for pins, p, counter in models])
                   for nm in ("o", "ff1", "ff2")}
        linears["qkv"] = (qkv, [(stack_pinned([pins[k] for k in qkv]),
                                 np.concatenate([p[k + ".b"] for k in qkv]),
                                 counter) for pins, p, counter in models])
        norms = {ln: (stacked(pre + ln + "_g"), stacked(pre + ln + "_b"))
                 for ln in ("ln1", "ln2")}
        blocks.append((pre, linears, norms,
                       np.zeros(drive.shape), np.zeros(drive.shape),
                       {nm: np.zeros(drive.shape)
                        for nm in ("attn", "h1", "out")}))
    tracing = trace is not None
    step = max(1, _window_steps(cfg, drive.shape))

    def split(name, x):
        """{reported layer: its part of x (..., width)} for layer `name`."""
        return {part: np.ascontiguousarray(a) for part, a in zip(
            parts[name], split_last(x, len(parts[name])))}

    # `fire` and `block` read the current window's `steps` and `means`,
    # which the window loop below binds
    def fire(name, currents, per_step_asr=False):
        """Advance layer `name` over the window; its (spikes, ASRs).

        The ASRs overwrite the currents, unless those are the input's
        read-only drive.
        """
        spikes, asrs = lif_step(
            layers[name], currents,
            steps if per_step_asr or tracing else None,
            currents if currents.flags.writeable else None)
        if tracing:
            for part, a in split(name, asrs).items():
                means[part] = a.reshape(len(a), -1).mean(axis=1)
        return spikes, asrs

    def block(pre, linears, norms, r1_sum, r2_sum, phi_last, s_in):
        """Advance a block over the window; its output spikes.

        Each window-sized intermediate is passed straight on, so that
        few of them are alive at once.
        """
        def linear(nm, x):  # the currents of linear nm under spikes x
            name, per_model = linears[nm]
            return joined([quantized_forward(layer, xm, bias, counter, name)
                           for (layer, bias, counter), xm
                           in zip(per_model, each(x))])

        def surrogate(nm, phi):  # the spikes of the neurons behind phi
            return fire(pre + nm, telescoped(phi, steps, phi_last[nm]))[0]

        def norm(ln, r):  # layer norm ln of the residual average r
            return layer_norm(r, *norms[ln])[0]

        def residual(nm, x, skip, total):  # running mean of nm(x) + skip
            r = linear(nm, x)
            r += skip
            return running_means(r, total, steps)

        _, aqkv = fire(pre + "qkv", linear("qkv", s_in), True)
        mixed = spiking_attention(*split_last(aqkv, 3), cfg.num_heads,
                                  save=False)[0]
        del aqkv  # freed before the attention neurons' currents
        sa = surrogate("attn", mixed)
        sh = surrogate("h1", norm("ln1", residual("o", sa, s_in, r1_sum)))
        si, _ = fire(pre + "int", linear("ff1", sh))
        return surrogate("out", norm("ln2", residual("ff2", si, sh, r2_sum)))

    reported = [part for names in parts.values() for part in names]
    for t0 in range(0, T, step):
        steps = np.arange(t0 + 1, min(t0 + step, T) + 1, dtype=np.float64)
        means = dict.fromkeys(reported)
        s_in, _ = fire("input", np.broadcast_to(drive, steps.shape
                                                + drive.shape))
        for blk in blocks:
            s_in = block(*blk, s_in)
        if tracing:
            trace.extend((t0 + 1 + k, name, float(m[k]))
                         for k in range(len(steps))
                         for name, m in means.items())

    # each layer's state is dropped once checked and split, so that not
    # every state and count is alive at once
    results = [{} for _ in runs]
    for name in list(layers):
        st = layers.pop(name)
        check_finite(st.u, f"membrane potential of {name}")
        for counts, count in zip(results, st.count if lead else [st.count]):
            counts.update(split(name, count))
    final = f"blk{cfg.num_layers - 1}.out"
    return [(stack.logits(counts[final] / T), counts)
            for (stack, _), counts in zip(runs, results)]


def spiking_attention(q, k, v, num_heads: int, save: bool = True):
    """Scaled dot-product attention over rate arrays, split by head.

    q, k and v are (..., seq, d); attention runs within each sequence, and
    leading axes are a batch.  Rows of the score matrix are
    softmax-normalized; with rate values in [0,1] the mixed output stays in
    [0,1] (convex combination).  The operation order is that of the
    composite split/matmul/softmax/merge graph (bitwise equal to it).
    The heads are mixed straight into the output's (..., seq, d) layout.
    Returns the mixed output and the intermediates `attention_backward`
    reads.  Without `save` those are None and the softmax is normalized in
    place, so that only the scores and the output are allocated: the same
    bits, with less memory.
    """
    shape = q.shape
    d = shape[-1]
    if len(shape) < 2 or d % num_heads or k.shape != shape \
            or v.shape != shape:
        raise ShapeError("attention shapes inconsistent with num_heads")
    dh = d // num_heads
    by_head = shape[:-1] + (num_heads, dh)
    heads_first, keys_last = _head_axes(len(shape) - 2)
    qh, kh, vh = (x.reshape(by_head).transpose(heads_first) for x in (q, k, v))
    e = qh @ kh.transpose(keys_last)  # the scores, then exp in place
    e *= 1.0 / math.sqrt(dh)
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    weights = e / total if save else np.divide(e, total, out=e)
    mixed = np.empty(shape)
    np.matmul(weights, vh, mixed.reshape(by_head).transpose(heads_first))
    return mixed, ((qh, kh, vh, e, total, weights) if save else None)


def attention_backward(g, saved) -> tuple:
    """(gq, gk, gv) of `spiking_attention` from its `saved` intermediates:
    the closed-form softmax-attention VJP."""
    qh, kh, vh, e, total, weights = saved
    heads_first, keys_last = _head_axes(qh.ndim - 3)
    by_head = g.shape[:-1] + (qh.shape[-3], qh.shape[-1])
    gh = g.reshape(by_head).transpose(heads_first)
    gw = gh @ vh.transpose(keys_last)
    gv = weights.transpose(keys_last) @ gh
    # quotient rule through e / total, then exp and the score scale:
    # gs = (gw / total + sum(-gw * e / total ** 2)) * e * (1 / sqrt(dh))
    t = -gw
    t *= e
    t /= total ** 2
    gs = gw  # gw's own buffer, made the score gradient in place
    gs /= total
    gs += np.add.reduce(t, axis=-1, keepdims=True)
    gs *= e
    gs *= 1.0 / math.sqrt(qh.shape[-1])
    gq = gs @ kh
    gk = (qh.transpose(keys_last) @ gs).transpose(keys_last)
    return tuple(x.transpose(heads_first).reshape(g.shape) for x in (gq, gk, gv))


@functools.cache
def _head_axes(lead: int):
    """Transpose axes behind `spiking_attention` for `lead` batch axes.

    The first swaps (..., seq, h, dh) and (..., h, seq, dh), and is its own
    inverse; the second swaps the last two axes.
    """
    b = tuple(range(lead))
    return b + (lead + 1, lead, lead + 2), b + (lead, lead + 2, lead + 1)


# -- teacher ------------------------------------------------------------

class TeacherModel:
    """Small non-spiking transformer encoder (softmax attention, GELU FFN)
    on the student's rate-path skeleton."""

    sweep = _sweep
    block_forward = _block_forward
    block_backward = _block_backward
    backward = _backward
    logits = _logits
    # the identity at every site but the intermediate layer's GELU
    neurons = {**dict.fromkeys(("input",) + SITES,
                               (_identity, _identity_backward)),
               "int": (gelu, gelu_backward)}

    def __init__(self, cfg: TeacherConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.hidden_dim
        p = {"tok_emb": rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, d)),
             "pos_emb": rng.uniform(-0.1, 0.1, size=(cfg.max_len, d)),
             "cls.w": init_uniform(rng, cfg.num_labels, d),
             "cls.b": np.zeros(cfg.num_labels)}
        self.linear_names = _add_blocks(p, cfg, rng, 1.0, 0.0)
        self.params = FlatParams(p)

    def effective_weights(self) -> dict:
        """Each linear's latent weight, keyed "blk{i}.{name}"."""
        return {name: self.params[name + ".w"] for name in self.linear_names}


def teacher_forward(teacher: TeacherModel, tokens):
    """Numeric teacher pass: per-block hidden arrays and logits."""
    hiddens = teacher.sweep(tokens)
    return hiddens, teacher.logits(hiddens[-1])
