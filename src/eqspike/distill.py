"""Intermediate-layer distillation from the teacher into the spiking student.

Student block i's equilibrium rate matrix is projected by `kd.proj{i}`
into the teacher's hidden width and pulled toward teacher block
`default_layer_map(Ls, Lt)[i]` under an MSE loss, where Ls and Lt are the
two models' depths; every pair weighs 1.  The projections train jointly
with the student and are the only distillation state.  The teacher is
frozen, so its hiddens are a fixed function of the tokens: a run stacks
its dataset once and keeps the teacher's pass over it as plain arrays,
one per teacher block.  A training batch takes its rows of them by item
position, and an evaluation scores the whole set against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import batches, stack_items
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


def kd_loss_builder(hiddens):
    """The distillation loss of `training_step` (stage 1): `kd_loss` on
    the teacher's `hiddens` of the distillation set, one (N, seq, d)
    array per teacher block.

    The labels are item positions, so a batch's targets are the rows
    `[h[labels] for h in hiddens]`.  The `kd.proj{i}` are read from
    `params`, where `training_step` puts its `extra_params`.
    """

    def loss(labels, a_blocks, params, grads):
        total, _per_pair, g_blocks = kd_loss(
            a_blocks, [h[labels] for h in hiddens], params, grads)
        return total, g_blocks

    return loss


def evaluate_kd_loss(stack, tokens, projections,
                     hiddens) -> tuple[float, list]:
    """Mean distillation loss of stacked sentences (N, seq) against the
    teacher's `hiddens` of them (no training): one solve, one `kd_loss`.
    """
    sol = solve_fixed_point(stack, tokens)
    total, per_pair, _ = kd_loss(sol.asr_star, hiddens, projections)
    n = len(tokens)
    return total / n, [p / n for p in per_pair]


def run_distillation(stack, teacher: TeacherModel, dataset, epochs: int,
                     projections, optimizer: AdamState,
                     batch_size: int = 16) -> KdReport:
    """Stage-1 training: minimize the distillation loss over the dataset.

    The report's epoch 0 row holds the pre-training loss; with epochs=0 the
    student is untouched and only that row is emitted.  The dataset is
    stacked once and the frozen teacher runs once over it; the loss reads
    no class labels, so the items are relabelled by position.  Each step
    reads its batch's rows of that one pass and each evaluation all of it.
    """
    tokens, _labels = stack_items(dataset)
    hiddens = teacher_forward(teacher, tokens)[0]
    items = [(sentence, i) for i, sentence in enumerate(tokens)]
    loss = kd_loss_builder(hiddens)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:  # epoch 0 reports the loss before any step
            for batch in batches(items, batch_size):
                training_step(stack, batch, optimizer, loss=loss,
                              extra_params=projections)
        total, pairs = evaluate_kd_loss(stack, tokens, projections, hiddens)
        report.epochs.append((epoch, pairs, total))
    return report
