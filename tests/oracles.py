"""Test oracles: slow, independent references the tests check eqspike against."""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from eqspike import autodiff as ad
from eqspike.autodiff import layer_norm
from eqspike.data import batches, stack_by_length
from eqspike.distill import KdReport, evaluate_kd_loss, kd_loss_builder
from eqspike.implicit_grad import GradientBundle, example_gradients, training_step
from eqspike.model import classifier_logits, spiking_attention, teacher_forward
from eqspike.neuron import LifConfig
from eqspike.numerics import NumericError, ShapeError, check_finite
from eqspike.quantizer import quantized_forward


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


def uncached_distillation(stack, teacher, dataset, epochs, cfg, optimizer,
                          solver_cfg, batch_size=16):
    """`distill.run_distillation` with a fresh teacher pass at every use.

    Every training step and every evaluation group calls `teacher_forward`
    again, as distillation did before its targets were shared per run.
    """
    def targets(tokens):
        return teacher_forward(teacher, tokens)[0]

    builder = kd_loss_builder(cfg, targets)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:
            for start in range(0, len(dataset), batch_size):
                training_step(stack, dataset[start:start + batch_size],
                              optimizer, loss_builder=builder,
                              extra_params=cfg.projections)
        total, pairs = evaluate_kd_loss(stack, dataset, cfg, solver_cfg,
                                        targets)
        report.append(epoch, pairs, total)
    return report


def inline_teacher_gradients(teacher, batch) -> dict:
    """One taped loss over the whole batch: the teacher's own step.

    The length groups' cross-entropy sums are added on one tape and scaled
    by 1 / len(batch) before a single backward, as teacher training did
    before it shared the student's per-group gradient function.
    """
    leaves = teacher.param_tensors()
    total = None
    for tokens, labels in stack_by_length(batch):
        logits = classifier_logits(teacher.sweep(tokens, leaves)[-1], leaves)
        loss = ad.cross_entropy(logits, labels)
        total = loss if total is None else ad.add(total, loss)
    ad.backward([ad.mul(total, 1.0 / len(batch))], [1.0])
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


def per_name_batch_gradients(model, batch, loss_builder, extra_params):
    """`implicit_grad.batch_gradients` as a sum per name over the length
    groups' `example_gradients`, each sum divided by the batch size."""
    grad_sum, loss_sum, term_sum = {}, 0.0, {}
    for tokens, labels in stack_by_length(batch):
        bundle = example_gradients(model, tokens, labels, loss_builder,
                                   extra_params)
        loss_sum += bundle.loss
        for k, val in bundle.loss_terms.items():
            term_sum[k] = term_sum.get(k, 0.0) + val
        for k, grad in bundle.grads.items():
            grad_sum[k] = grad_sum.get(k, 0.0) + grad
    n = len(batch)
    return GradientBundle(grads={k: g / n for k, g in grad_sum.items()},
                          loss=loss_sum / n,
                          loss_terms={k: v / n for k, v in term_sum.items()})


def per_tensor_training_step(stack, batch, adam: TensorAdam, loss_builder,
                             extra_params) -> GradientBundle:
    """`implicit_grad.training_step` on `per_name_batch_gradients` and
    `TensorAdam`."""
    bundle = per_name_batch_gradients(stack, batch, loss_builder, extra_params)
    adam.step_many({**stack.params, **extra_params}, bundle.grads)
    return bundle


# -- the step-major spike path: the reference for the windowed one --------

@dataclass
class _StepLif:
    """One LIF layer advanced one timestep at a time, with its ASR sums."""
    u: np.ndarray
    s: np.ndarray
    asr_num: np.ndarray
    asr_den: float = 0.0

    @classmethod
    def zeros(cls, shape):
        return cls(u=np.zeros(shape), s=np.zeros(shape, dtype=bool),
                   asr_num=np.zeros(shape))

    def step(self, current, cfg):
        u_mid = cfg.gamma * self.u + current
        spikes = u_mid > cfg.v_th
        self.u = u_mid - cfg.v_th * spikes
        self.s = spikes
        self.asr_num = cfg.gamma * self.asr_num + spikes
        self.asr_den = cfg.gamma * self.asr_den + 1.0

    def asr(self):
        return self.asr_num / self.asr_den


@dataclass
class _StepAverage:
    """Leak-weighted running average, pushed one timestep at a time."""
    gamma: float
    num: np.ndarray = field(default=None)
    den: float = 0.0

    def push(self, value):
        if self.num is None:
            self.num = np.zeros_like(value)
        self.num = self.gamma * self.num + value
        self.den = self.gamma * self.den + 1.0
        return self.num / self.den


def step_major_simulate(stack, tokens, T, counter=None, trace=None,
                        trace_targets=None, membranes=None):
    """`EncoderStack.temporal_simulate` as one loop over timesteps.

    Each step runs every sublayer of every block once, in block order, with
    one `quantized_forward` per linear and one neuron update per layer.
    Returns (logits, ASR dict, spike-count dict) and fills `counter` and
    `trace` as `temporal_simulate` does; `membranes`, when given, gets each
    layer's final membrane potential under its layer name.
    """
    cfg = stack.cfg
    lif = LifConfig(cfg.gamma, cfg.v_th)
    drive = stack.encoding(tokens, stack.params).data
    source = _StepLif.zeros(drive.shape)
    layers = {"input": source}
    runs = []
    for i in range(cfg.num_layers):
        pre = f"blk{i}."
        neurons = {nm: _StepLif.zeros(drive.shape[:-1] + (
            cfg.intermediate_dim if nm == "int" else cfg.hidden_dim,))
            for nm in ("q", "k", "v", "attn", "h1", "out", "int")}
        layers.update((pre + nm, st) for nm, st in neurons.items())
        blk = {nm: stack.linears[pre + nm].pinned()
               for nm in ("q", "k", "v", "o", "ff1", "ff2")}
        blk.update((ln, stack.params[pre + ln])
                   for ln in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"))
        runs.append((SimpleNamespace(**blk),
                     {nm: pre + nm for nm in (*blk, *neurons)}, neurons,
                     _StepAverage(cfg.gamma), _StepAverage(cfg.gamma)))
    spike_counts = {name: np.zeros(st.u.shape) for name, st in layers.items()}
    prev_phi = {}

    def telescoped(name, value, t):
        prev = prev_phi.get(name)
        prev_phi[name] = value
        if prev is None:
            return value
        return t * value - (t - 1) * prev

    for t in range(1, T + 1):
        source.step(drive, lif)
        s_in = source.s
        for blk, key, n, r1_avg, r2_avg in runs:
            n["q"].step(quantized_forward(blk.q, s_in, counter, key["q"]), lif)
            n["k"].step(quantized_forward(blk.k, s_in, counter, key["k"]), lif)
            n["v"].step(quantized_forward(blk.v, s_in, counter, key["v"]), lif)
            attn_current = spiking_attention(
                n["q"].asr(), n["k"].asr(), n["v"].asr(), cfg.num_heads).data
            n["attn"].step(telescoped(key["attn"], attn_current, t), lif)
            r1 = quantized_forward(blk.o, n["attn"].s, counter, key["o"]) + s_in
            h1_current = layer_norm(r1_avg.push(r1), blk.ln1_g, blk.ln1_b).data
            n["h1"].step(telescoped(key["h1"], h1_current, t), lif)
            n["int"].step(quantized_forward(blk.ff1, n["h1"].s, counter,
                                            key["ff1"]), lif)
            r2 = quantized_forward(blk.ff2, n["int"].s, counter,
                                   key["ff2"]) + n["h1"].s
            out_current = layer_norm(r2_avg.push(r2), blk.ln2_g, blk.ln2_b).data
            n["out"].step(telescoped(key["out"], out_current, t), lif)
            s_in = n["out"].s
        for name, st in layers.items():
            spike_counts[name] += st.s
        if trace is not None:
            for name, st in layers.items():
                m = float(np.mean(st.asr()))
                target = trace_targets.get(name) if trace_targets else None
                resid = abs(m - target) if target is not None else float("nan")
                trace.append((t, name, m, resid))

    if membranes is not None:
        membranes.update((name, st.u) for name, st in layers.items())
    asrs = {name: st.asr() for name, st in layers.items()}
    final = asrs[f"blk{cfg.num_layers - 1}.out"]
    return stack.logits(final), asrs, spike_counts
