"""Test oracles: slow, independent references the tests check eqspike against."""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from eqspike import autodiff as ad
from eqspike.autodiff import erf as _erf, layer_norm
from eqspike.data import batches, stack_by_length
from eqspike.distill import (KdReport, default_layer_map, evaluate_kd_loss,
                             kd_loss_builder)
from eqspike.implicit_grad import example_gradients, training_step
from eqspike.model import _head_axes, _token_ids, spiking_attention, teacher_forward
from eqspike.numerics import NumericError, ShapeError, check_finite
from eqspike.quantizer import QuantMode


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite function value in finite differences")
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def dense_adjoint_solve(g: list, jacobian_vjp) -> list:
    """Assemble (I - J^T) column by column and solve (I - J^T) v = g densely."""
    shapes = [x.shape for x in g]
    sizes = [int(np.prod(s)) for s in shapes]
    n = sum(sizes)
    jt = np.zeros((n, n))
    for col in range(n):
        basis = np.zeros(n)
        basis[col] = 1.0
        parts, off = [], 0
        for s, sz in zip(shapes, sizes):
            parts.append(basis[off:off + sz].reshape(s))
            off += sz
        jv = jacobian_vjp(parts)
        jt[:, col] = np.concatenate([x.reshape(-1) for x in jv])
    rhs = np.concatenate([x.reshape(-1) for x in g])
    sol = np.linalg.solve(np.eye(n) - jt, rhs)
    out, off = [], 0
    for s, sz in zip(shapes, sizes):
        out.append(sol[off:off + sz].reshape(s))
        off += sz
    return out


def uncached_distillation(stack, teacher, dataset, epochs, projections,
                          optimizer, batch_size=16):
    """`distill.run_distillation` with a fresh teacher pass at every use.

    Every training step and every evaluation group calls `teacher_forward`
    again, as distillation did before its targets were shared per run.
    """
    def targets(tokens):
        return teacher_forward(teacher, tokens)[0]

    loss = kd_loss_builder(projections, targets)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:
            for start in range(0, len(dataset), batch_size):
                training_step(stack, dataset[start:start + batch_size],
                              optimizer, loss=loss,
                              extra_params=projections)
        total, pairs = evaluate_kd_loss(stack, dataset, projections, targets)
        report.epochs.append((epoch, pairs, total))
    return report


def inline_teacher_gradients(teacher, batch) -> dict:
    """One taped loss over the whole batch: the teacher's own step.

    The length groups' cross-entropy sums are added on one tape and scaled
    by 1 / len(batch) before a single backward, as teacher training did
    before it shared the student's per-group gradient function.
    """
    leaves = param_tensors(teacher)
    total = None
    for tokens, labels in stack_by_length(batch):
        logits = taped_logits(taped_teacher_sweep(teacher, tokens, leaves)[-1],
                              leaves)
        loss = taped_cross_entropy(logits, labels)
        total = loss if total is None else add(total, loss)
    backward([mul(total, 1.0 / len(batch))], [1.0])
    return {k: leaf.grad for k, leaf in leaves.items() if leaf.grad is not None}


def inline_teacher_training(cfg, teacher, train_items) -> None:
    """`pipeline.train_teacher`'s Adam steps on `inline_teacher_gradients`,
    taken by the per-tensor `TensorAdam`."""
    t = cfg["teacher"]
    adam = TensorAdam(lr=t["lr"])
    for _epoch in range(t["epochs"]):
        for batch in batches(train_items, t["batch_size"]):
            adam.step_many(teacher.params,
                           inline_teacher_gradients(teacher, batch))


# -- per-tensor Adam and per-name averaging: the reference for the flat step

@dataclass
class TensorAdam:
    """Adam with one update per named tensor and moments per name."""
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def update(self, name, param, grad):
        """One Adam update for a named parameter; returns the new value."""
        if name not in self.m:
            self.m[name] = np.zeros_like(param)
            self.v[name] = np.zeros_like(param)
        m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * grad
        v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * grad ** 2
        t = max(self.step, 1)
        mhat = m / (1 - self.beta1 ** t)
        vhat = v / (1 - self.beta2 ** t)
        return param - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def step_many(self, params: dict, grads: dict) -> None:
        """In-place step over a dict of parameters; those without a gradient
        are skipped, and every gradient is checked before any write."""
        todo = [(name, p, grads[name]) for name, p in params.items()
                if name in grads]
        for name, p, g in todo:
            if p.shape != g.shape:
                raise ShapeError(f"adam: param {p.shape} vs grad {g.shape} "
                                 f"for {name}")
            check_finite(g, f"gradient for {name}")
        self.step += 1
        for name, p, g in todo:
            p[...] = self.update(name, p, g)


def example_gradient_dict(model, tokens, labels, loss, extra_params):
    """`implicit_grad.example_gradients` into new zero buffers: the loss
    and a dict of every trained parameter's gradient, the model's then
    the `extra_params`' (a `FlatParams`, or empty)."""
    owners = [model.params] + ([extra_params] if extra_params else [])
    params = {name: a for p in owners for name, a in p.items()}
    grads = {name: g for p in owners for name, g in p.zeros().items()}
    return example_gradients(model, tokens, labels, loss, params, grads), grads


def per_name_batch_gradients(model, batch, loss, extra_params):
    """`implicit_grad.batch_gradients` as a sum per name over the length
    groups' `example_gradient_dict`s, each sum divided by the batch size:
    (mean loss, name -> gradient)."""
    grad_sum, loss_sum = {}, 0.0
    for tokens, labels in stack_by_length(batch):
        value, grads = example_gradient_dict(model, tokens, labels, loss,
                                             extra_params)
        loss_sum += value
        for k, grad in grads.items():
            grad_sum[k] = grad_sum.get(k, 0.0) + grad
    n = len(batch)
    return loss_sum / n, {k: g / n for k, g in grad_sum.items()}


def per_tensor_training_step(stack, batch, adam: TensorAdam, loss,
                             extra_params):
    """`implicit_grad.training_step` on `per_name_batch_gradients` and
    `TensorAdam`: (mean loss, name -> gradient)."""
    value, grads = per_name_batch_gradients(stack, batch, loss, extra_params)
    adam.step_many({**stack.params, **extra_params}, grads)
    return value, grads


# -- the step-major spike path: the reference for the windowed one --------

@dataclass
class _StepLif:
    """One integrate-and-fire layer at unit threshold, advanced one
    timestep at a time, with its ASR sums."""
    u: np.ndarray
    s: np.ndarray
    asr_num: np.ndarray
    asr_den: float = 0.0

    @classmethod
    def zeros(cls, shape):
        return cls(u=np.zeros(shape), s=np.zeros(shape, dtype=bool),
                   asr_num=np.zeros(shape))

    def step(self, current):
        u_mid = self.u + current
        spikes = u_mid > 1.0
        self.u = u_mid - spikes
        self.s = spikes
        self.asr_num = self.asr_num + spikes
        self.asr_den = self.asr_den + 1.0

    def asr(self):
        return self.asr_num / self.asr_den


@dataclass
class _StepAverage:
    """Running average, pushed one timestep at a time."""
    num: np.ndarray = field(default=None)
    den: float = 0.0

    def push(self, value):
        if self.num is None:
            self.num = np.zeros_like(value)
        self.num = self.num + value
        self.den = self.den + 1.0
        return self.num / self.den


def dense_spike_linear(pinned, x, bias, counter=None, name=""):
    """`quantizer.quantized_forward` in float64: x (..., in) 0/1 spikes
    through the pinned linear, `x @ codes.T * scale + bias` (codes) or
    `x @ w.T + bias` (full precision), counting one accumulate per
    (spiking input, nonzero code or weight) pair into `counter`."""
    x = np.asarray(x).astype(float)
    out = x @ pinned.codes.T
    if pinned.quantized:
        out = out * pinned.scale
    if counter is not None:
        active = np.count_nonzero(x.reshape(-1, x.shape[-1]), axis=0)
        counter.add(name, int(active @ np.count_nonzero(pinned.codes, axis=0)))
    return out + bias


def masked_erf(x):
    """`autodiff.erf` with its |x| > 1 branch gathered and scattered by a
    boolean mask, as it was written before it took flat indices."""
    ax = np.abs(x)
    small = np.minimum(ax, 1.0)
    z = small * small
    out = small * ad._polevl(z, ad._ERF_T)
    out /= ad._polevl(z, ad._ERF_U)
    big = ax > 1.0
    a = np.minimum(ax[big], 8.0)
    out[big] = 1.0 - np.exp(-a * a) * ad._polevl(a, ad._ERF_P) \
        / ad._polevl(a, ad._ERF_Q)
    return np.copysign(out, x, out=out)


def per_matrix_quantization(w, mode, binary_output_scale=False):
    """(codes, weight, scale) of one latent weight (out, in), from its own
    `.mean()` statistics with Python-float scales, as `quantizer.pin`
    computed them one linear at a time (scale None at full precision)."""
    if mode is QuantMode.FULL_PRECISION:
        return w, w, None
    if mode is QuantMode.BINARY_1BIT:
        q = np.where(w - float(w.mean()) > 0.0, 1.0, -1.0)
        scale = float(np.abs(w).mean()) if binary_output_scale else 1.0
    else:
        scale = float(np.abs(w).mean())
        denom = scale * (1.0 + 1e-6) if scale > 0.0 else 1e-6
        scaled = np.clip(w / denom, -1.0, 1.0)
        q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return q, q * scale, scale


def step_major_simulate(stack, tokens, T, counter=None, trace=None,
                        membranes=None):
    """`EncoderStack.temporal_simulate` as one loop over timesteps.

    Each step runs every sublayer of every block once, in block order, with
    one float64 `dense_spike_linear` per linear and one neuron update per
    layer.
    Returns (logits, ASR dict, spike-count dict) and fills `counter` and
    `trace` as `temporal_simulate` does; `membranes`, when given, gets each
    layer's final membrane potential under its layer name.
    """
    cfg = stack.cfg
    drive = stack.encoding(tokens)
    source = _StepLif.zeros(drive.shape)
    layers = {"input": source}
    runs, pins = [], stack.pinned()
    for i in range(cfg.num_layers):
        pre = f"blk{i}."
        neurons = {nm: _StepLif.zeros(drive.shape[:-1] + (
            cfg.intermediate_dim if nm == "int" else cfg.hidden_dim,))
            for nm in ("q", "k", "v", "attn", "h1", "out", "int")}
        layers.update((pre + nm, st) for nm, st in neurons.items())
        blk = {nm: pins[pre + nm] for nm in ("q", "k", "v", "o", "ff1", "ff2")}
        blk.update((nm + "_b", stack.params[pre + nm + ".b"])
                   for nm in list(blk))
        blk.update((ln, stack.params[pre + ln])
                   for ln in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"))
        runs.append((SimpleNamespace(**blk),
                     {nm: pre + nm for nm in (*blk, *neurons)}, neurons,
                     _StepAverage(), _StepAverage()))
    spike_counts = {name: np.zeros(st.u.shape) for name, st in layers.items()}
    prev_phi = {}

    def telescoped(name, value, t):
        prev = prev_phi.get(name)
        prev_phi[name] = value
        if prev is None:
            return value
        return t * value - (t - 1) * prev

    for t in range(1, T + 1):
        source.step(drive)
        s_in = source.s
        for blk, key, n, r1_avg, r2_avg in runs:
            def linear(nm, x, blk=blk, key=key):
                return dense_spike_linear(getattr(blk, nm), x,
                                          getattr(blk, nm + "_b"), counter,
                                          key[nm])

            n["q"].step(linear("q", s_in))
            n["k"].step(linear("k", s_in))
            n["v"].step(linear("v", s_in))
            attn_current = spiking_attention(
                n["q"].asr(), n["k"].asr(), n["v"].asr(), cfg.num_heads)[0]
            n["attn"].step(telescoped(key["attn"], attn_current, t))
            r1 = linear("o", n["attn"].s) + s_in
            h1_current = layer_norm(r1_avg.push(r1), blk.ln1_g, blk.ln1_b)[0]
            n["h1"].step(telescoped(key["h1"], h1_current, t))
            n["int"].step(linear("ff1", n["h1"].s))
            r2 = linear("ff2", n["int"].s) + n["h1"].s
            out_current = layer_norm(r2_avg.push(r2), blk.ln2_g, blk.ln2_b)[0]
            n["out"].step(telescoped(key["out"], out_current, t))
            s_in = n["out"].s
        for name, st in layers.items():
            spike_counts[name] += st.s
        if trace is not None:
            trace.extend((t, name, float(np.mean(st.asr())))
                         for name, st in layers.items())

    if membranes is not None:
        membranes.update((name, st.u) for name, st in layers.items())
    asrs = {name: st.asr() for name, st in layers.items()}
    final = asrs[f"blk{cfg.num_layers - 1}.out"]
    return stack.logits(final), asrs, spike_counts


# -- the reverse-mode tape: the reference for the closed-form backward ----
#
# A minimal tape over numpy arrays, with the rate path, the teacher and the
# two losses written on it as eqspike computed them before each op got its
# named backward.  `taped_example_gradients` is the reference the
# closed-form gradients are checked against bitwise.

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

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

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


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    """a @ b for a (..., k, n) and a matrix b (n, m), as the KD projection uses."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ValueError(f"matmul of {a.data.shape} and {b.data.shape}: "
                         "needs (..., k, n) @ (n, m)")
    return _make(a.data @ b.data, (a, b), lambda g: (
        g @ b.data.T,
        _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def erf(a):
    a = as_tensor(a)
    return _make(_erf(a.data), (a,), lambda g: (
        g * (2.0 / math.sqrt(math.pi)) * np.exp(-a.data ** 2),))


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def getitem(a, idx):
    """a[idx]; rows an index array repeats accumulate their gradients."""
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(a.data[idx], (a,), vjp)


def ste(latent, forward_value):
    """Straight-through op: forward `forward_value`, backward identity to `latent`."""
    latent = as_tensor(latent)
    out = np.asarray(forward_value, dtype=np.float64)
    if out.shape != latent.data.shape:
        raise ValueError("STE forward value must match latent shape")
    return _make(out, (latent,), lambda g: (g,))


def taped_linear(x, w, b):
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g @ w.data, g2.T @ x.data.reshape(-1, x.data.shape[-1]),
                g2.sum(axis=0))

    return _make(x.data @ w.data.T + b.data, (x, w, b), vjp)


def taped_clip01(a):
    a = as_tensor(a)
    x = a.data
    return _make(np.clip(x, 0.0, 1.0), (a,), lambda g: (
        g * ((x >= 0.0) & (x <= 1.0)),))


def taped_layer_norm(x, gain, bias, eps=1e-5):
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * scale + eps)
    xhat = xc * inv

    def vjp(g):
        gxhat = g * gain.data
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        return (_unbroadcast(gx, x.data.shape),
                _unbroadcast(g * xhat, gain.data.shape),
                _unbroadcast(g, bias.data.shape))

    return _make(xhat * gain.data + bias.data, (x, gain, bias), vjp)


def taped_attention(q, k, v, num_heads):
    """`model.spiking_attention` as one tape node with its VJP closure."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    shape = q.data.shape
    dh = shape[-1] // num_heads
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
        ge = gw / total + (-gw * e / total ** 2).sum(axis=-1, keepdims=True)
        gs = ge * e * scale
        gq = gs @ kh
        gk = (qh.transpose(keys_last) @ gs).transpose(keys_last)
        return tuple(x.transpose(heads_first).reshape(shape)
                     for x in (gq, gk, gv))

    return _make(mixed, (q, k, v), vjp)


def taped_gelu(a):
    a = as_tensor(a)
    return mul(mul(a, 0.5), add(erf(mul(a, 1.0 / math.sqrt(2.0))), 1.0))


def taped_cross_entropy(logits, label):
    """Negative log-likelihood of `label` under softmax(logits), summed."""
    logits = as_tensor(logits)
    labels = np.asarray(label, dtype=np.int64)
    m = np.max(logits.data, axis=-1, keepdims=True)
    lse = add(log(tensor_sum(exp(sub(logits, m)), axis=-1)), m[..., 0])
    picked = getitem(logits, np.indices(labels.shape, sparse=True) + (labels,))
    return tensor_sum(sub(lse, picked))


def taped_mse(pred, target):
    diff = sub(pred, np.asarray(target, dtype=np.float64))
    per_example = int(np.prod(diff.data.shape[-2:]))
    return tensor_sum(mul(diff, diff)) * (1.0 / per_example)


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
    """Accumulate grads of `outputs` (seeded with `cotangents`) into leaf
    .grad, summing a node's incoming gradients in reverse topological
    order.  Clears grads in the touched subgraph first, so a graph can be
    replayed with fresh cotangents."""
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
            if parent.requires_grad:
                parent.grad = pg if parent.grad is None else parent.grad + pg


# -- the models and losses on the tape

def param_tensors(model) -> dict:
    return {k: Tensor(v, requires_grad=True) for k, v in model.params.items()}


def taped_weights(stack, leaves) -> dict:
    """Each linear's effective weight as a straight-through view of its leaf."""
    out = {}
    for name, pinned in stack.pinned().items():
        latent = leaves[f"{name}.w"]
        out[name] = ste(latent, pinned.weight) if pinned.quantized else latent
    return out


def taped_encoding(stack, tokens, leaves):
    tokens = _token_ids(tokens, stack.cfg)
    e = getitem(leaves["tok_emb"], tokens)
    pos = getitem(leaves["pos_emb"], slice(0, tokens.shape[-1]))
    return taped_clip01(e + pos + 0.5)


def taped_block(stack, i, a_prev, leaves, weights):
    """Block i of the student's rate path on the tape."""
    pre = f"blk{i}."

    def lin(name, x):
        return taped_linear(x, weights[pre + name], leaves[pre + name + ".b"])

    aq = taped_clip01(lin("q", a_prev))
    ak = taped_clip01(lin("k", a_prev))
    av = taped_clip01(lin("v", a_prev))
    a_attn = taped_clip01(taped_attention(aq, ak, av, stack.cfg.num_heads))
    h1 = taped_clip01(taped_layer_norm(lin("o", a_attn) + a_prev,
                                       leaves[pre + "ln1_g"],
                                       leaves[pre + "ln1_b"]))
    ai = taped_clip01(lin("ff1", h1))
    return taped_clip01(taped_layer_norm(lin("ff2", ai) + h1,
                                         leaves[pre + "ln2_g"],
                                         leaves[pre + "ln2_b"]))


def taped_sweep(stack, tokens, leaves) -> list:
    prev, weights, outs = taped_encoding(stack, tokens, leaves), \
        taped_weights(stack, leaves), []
    for i in range(stack.cfg.num_layers):
        prev = taped_block(stack, i, prev, leaves, weights)
        outs.append(prev)
    return outs


def taped_teacher_sweep(teacher, tokens, leaves) -> list:
    cfg = teacher.cfg
    tokens = _token_ids(tokens, cfg)
    h = getitem(leaves["tok_emb"], tokens) + getitem(
        leaves["pos_emb"], slice(0, tokens.shape[-1]))
    hiddens = []
    for i in range(cfg.num_layers):
        def lin(nm, x):
            return taped_linear(x, leaves[f"blk{i}.{nm}.w"],
                                leaves[f"blk{i}.{nm}.b"])

        attn = taped_attention(lin("q", h), lin("k", h), lin("v", h),
                               cfg.num_heads)
        h = taped_layer_norm(lin("o", attn) + h, leaves[f"blk{i}.ln1_g"],
                             leaves[f"blk{i}.ln1_b"])
        ff = lin("ff2", taped_gelu(lin("ff1", h)))
        h = taped_layer_norm(ff + h, leaves[f"blk{i}.ln2_g"],
                             leaves[f"blk{i}.ln2_b"])
        hiddens.append(h)
    return hiddens


def taped_logits(a_final, leaves):
    cls = getitem(a_final, (Ellipsis, 0, slice(None)))
    return taped_linear(cls, leaves["cls.w"], leaves["cls.b"])


def taped_ce_loss(tokens, labels, a_blocks, leaves):
    return taped_cross_entropy(taped_logits(a_blocks[-1], leaves), labels)


def taped_kd_loss_builder(targets):
    """`distill.kd_loss_builder` on the tape; the projections are the
    `kd.proj{i}` leaves."""

    def loss(tokens, labels, a_blocks, leaves):
        hiddens, total = targets(tokens), None
        layer_map = default_layer_map(len(a_blocks), len(hiddens))
        for i, t_idx in enumerate(layer_map):
            term = taped_mse(as_tensor(a_blocks[i]) @ leaves[f"kd.proj{i}"],
                             hiddens[t_idx])
            total = term if total is None else add(total, term)
        return total

    return loss


def taped_example_gradients(model, tokens, labels, loss, extra_params):
    """One taped forward and one backward: `example_gradients` as the tape
    computed it, returning the loss and each reached leaf's gradient.
    `model` is an `EncoderStack` or a `TeacherModel`, and `loss` a taped
    one: (tokens, labels, a_blocks, leaves) -> loss Tensor, reading its
    parameters from `leaves`, the model's and the `extra_params`'."""
    leaves = param_tensors(model)
    sweep = taped_sweep if hasattr(model, "pinned") else taped_teacher_sweep
    a_blocks = sweep(model, tokens, leaves)
    leaves.update({name: Tensor(arr, requires_grad=True)
                   for name, arr in extra_params.items()})
    value = loss(tokens, labels, a_blocks, leaves)
    backward([value], [1.0])
    return float(value.data), {name: leaf.grad for name, leaf in leaves.items()
                               if leaf.grad is not None}
