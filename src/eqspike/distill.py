"""Intermediate-layer distillation from the teacher into the spiking student.

Student block i's equilibrium rate matrix is projected by `kd.proj{i}`
into the teacher's hidden width and pulled toward teacher block
`default_layer_map(Ls, Lt)[i]` under an MSE loss, where Ls and Lt are the
two models' depths; every pair weighs 1.  The projections train jointly
with the student and are the only distillation state.  The teacher is
frozen, so its hiddens are a fixed function of the tokens: a run makes
one teacher pass per length group of its dataset, and its training
batches and evaluations read rows of those passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import batches, stack_by_length
from .equilibrium import solve_fixed_point
from .implicit_grad import training_step
from .model import TeacherModel, teacher_forward
from .numerics import AdamState, FlatParams


def default_layer_map(num_student: int, num_teacher: int) -> list[int]:
    """Uniform-stride mapping: student block i -> teacher block ceil((i+1)*Lt/Ls)."""
    return [math.ceil((i + 1) * num_teacher / num_student) - 1
            for i in range(num_student)]


def init_projections(ds: int, dt: int, num_student: int,
                     rng: np.random.Generator) -> FlatParams:
    """One (ds, dt) `kd.proj{i}` per student block, drawn in block order."""
    return FlatParams({f"kd.proj{i}": _init_projection(ds, dt, rng)
                       for i in range(num_student)})


def _init_projection(ds: int, dt: int, rng: np.random.Generator) -> np.ndarray:
    """Identity-padded when the student width nests in the teacher's."""
    if ds <= dt:
        w = np.zeros((ds, dt))
        w[:, :ds] = np.eye(ds)
        return w
    return rng.uniform(-1.0, 1.0, size=(ds, dt)) / np.sqrt(ds)


def kd_loss(student_asrs: list, teacher_hiddens: list, projections,
            grads: dict | None = None):
    """Sum of per-pair MSE terms and, given `grads`, its gradients.

    Pair i projects student block i by `projections["kd.proj{i}"]` and
    compares it with teacher block `default_layer_map(len(student_asrs),
    len(teacher_hiddens))[i]`.  Block outputs are (seq, d) for one example
    or (B, seq, d) for a batch; each term is then the sum over the batch
    of per-example MSE means.  Returns the
    total, the per-pair terms and the total's gradient on each student
    block.  The gradients are computed only when `grads` is given: each
    projection's, summed over the batch, is added into its `grads` entry;
    otherwise the block gradients are None.
    """
    total, per_pair = 0.0, []
    g_blocks = None if grads is None else []
    layer_map = default_layer_map(len(student_asrs), len(teacher_hiddens))
    for i, t_idx in enumerate(layer_map):
        name, s = f"kd.proj{i}", student_asrs[i]
        proj = projections[name]
        diff = s @ proj - teacher_hiddens[t_idx]
        scale = 1.0 / int(np.prod(diff.shape[-2:]))
        term = float((diff * diff).sum() * scale)
        per_pair.append(term)
        total += term
        if grads is not None:
            g = scale * diff
            g = g + g
            gp = np.swapaxes(s, -1, -2) @ g
            grads[name] += gp.sum(axis=tuple(range(gp.ndim - 2)))
            g_blocks.append(g @ proj.T)
    return float(total), per_pair, g_blocks


@dataclass
class KdReport:
    epochs: list = field(default_factory=list)  # (epoch, per-pair mse, total)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,pair_index,mse,total\n")
            for epoch, pairs, total in self.epochs:
                for j, val in enumerate(pairs):
                    fh.write(f"{epoch},{j},{val:.12g},{total:.12g}\n")


def teacher_targets(teacher: TeacherModel, dataset=(), batch_size: int = 16):
    """tokens -> the frozen teacher's per-block hiddens, read-only.

    The teacher runs once per length group of `dataset`, up front.  Each
    group of each batch of `batch_size` items (`data.batches`) takes its
    rows of that pass as views: a batch is a contiguous item range and
    `stack_by_length` keeps item order, so its group is a run of the
    dataset group's rows, and the teacher's pass is per sentence, so those
    rows are bitwise the batch's own pass.  Other tokens take one pass of
    their own, on first use.  Every use of the same tokens shares one
    result.
    """
    memo = {}

    def remember(tokens, hiddens):
        for hidden in hiddens:
            hidden.flags.writeable = False
        memo[_key(tokens)] = hiddens
        return hiddens

    passes = {tokens.shape[-1]: remember(tokens,
                                         teacher_forward(teacher, tokens)[0])
              for tokens, _labels in stack_by_length(dataset)}
    taken = dict.fromkeys(passes, 0)  # per length, the rows batches took
    for batch in batches(dataset, batch_size):
        for tokens, _labels in stack_by_length(batch):
            seq = tokens.shape[-1]
            rows = slice(taken[seq], taken[seq] + len(tokens))
            taken[seq] = rows.stop
            remember(tokens, [h[rows] for h in passes[seq]])

    def targets(tokens):
        hiddens = memo.get(_key(tokens))
        if hiddens is None:
            hiddens = remember(tokens, teacher_forward(teacher, tokens)[0])
        return hiddens

    return targets


def _key(tokens):
    return tokens.shape, tokens.dtype.str, tokens.tobytes()


def kd_loss_builder(projections, targets):
    """The distillation loss of `training_step` (stage 1): `kd_loss` on
    the teacher's hiddens, with `projections`, the views `training_step`
    trains as `extra_params`.

    `targets` maps stacked tokens to the teacher's hiddens, as
    `teacher_targets` does.
    """

    def loss(tokens, labels, a_blocks, params, grads):
        total, _per_pair, g_blocks = kd_loss(a_blocks, targets(tokens),
                                             projections, grads)
        return total, g_blocks

    return loss


def evaluate_kd_loss(stack, dataset, projections,
                     targets) -> tuple[float, list]:
    """Mean distillation loss over a dataset (no training).

    One solve and one `targets` call per sequence length.
    """
    total = 0.0
    pair_sum = None
    for tokens, _labels in stack_by_length(dataset):
        sol = solve_fixed_point(stack, tokens)
        t, per_pair, _ = kd_loss(sol.asr_star, targets(tokens), projections)
        total += t
        pair_sum = per_pair if pair_sum is None else \
            [a + b for a, b in zip(pair_sum, per_pair)]
    n = len(dataset)
    return total / n, [p / n for p in pair_sum]


def run_distillation(stack, teacher: TeacherModel, dataset, epochs: int,
                     projections, optimizer: AdamState,
                     batch_size: int = 16) -> KdReport:
    """Stage-1 training: minimize the distillation loss over the dataset.

    The report's epoch 0 row holds the pre-training loss; with epochs=0 the
    student is untouched and only that row is emitted.  The steps and the
    evaluations share one teacher pass per length group of the dataset
    (`teacher_targets`).
    """
    targets = teacher_targets(teacher, dataset, batch_size)
    loss = kd_loss_builder(projections, targets)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:  # epoch 0 reports the loss before any step
            for batch in batches(dataset, batch_size):
                training_step(stack, batch, optimizer, loss=loss,
                              extra_params=projections)
        total, pairs = evaluate_kd_loss(stack, dataset, projections, targets)
        report.epochs.append((epoch, pairs, total))
    return report
