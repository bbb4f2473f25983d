"""Intermediate-layer distillation from the teacher into the spiking student.

Student block i's equilibrium rate matrix is projected by `kd.proj{i}`
into the teacher's hidden width and pulled toward teacher block
`default_layer_map(Ls, Lt)[i]` under an MSE loss, where Ls and Lt are the
two models' depths; every pair weighs 1.  The projections train jointly
with the student and are the only distillation state.  The teacher is
frozen, so its hiddens are a fixed function of the tokens: a run makes
one teacher pass over its dataset, and its training batches and
evaluations take their rows of that pass by item position.
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


def teacher_targets(teacher: TeacherModel, items):
    """`targets(tokens, positions)`: the teacher's hiddens by item position.

    `items` are (tokens, position) pairs, the i-th at position i.  The
    teacher runs once over the stacked `items` (`data.stack_items`), up
    front, and `targets` takes a stacked batch's rows of that pass as
    read-only views: bitwise the batch's own pass, since the teacher's
    pass is per sentence.  The batch's positions must be consecutive
    items, in order, as in every contiguous batch and the whole set;
    else a ValueError.
    """
    tokens, order = stack_items(items)
    hiddens = teacher_forward(teacher, tokens)[0]
    for hidden in hiddens:  # every batch shares it
        hidden.flags.writeable = False

    def targets(tokens, positions):
        rows = slice(positions[0], positions[0] + len(positions))
        if order[rows].tobytes() != positions.tobytes():
            raise ValueError("targets take consecutive items, in order")
        return [hidden[rows] for hidden in hiddens]

    return targets


def kd_loss_builder(projections, targets):
    """The distillation loss of `training_step` (stage 1): `kd_loss` on
    the teacher's hiddens, with `projections`, the views `training_step`
    trains as `extra_params`.

    The labels are item positions: `targets(tokens, positions)` gives the
    teacher's hiddens of a stacked batch, as `teacher_targets` does.
    """

    def loss(tokens, positions, a_blocks, params, grads):
        total, _per_pair, g_blocks = kd_loss(
            a_blocks, targets(tokens, positions), projections, grads)
        return total, g_blocks

    return loss


def evaluate_kd_loss(stack, dataset, projections,
                     targets) -> tuple[float, list]:
    """Mean distillation loss over (tokens, position) items (no training).

    One solve and one `targets` call on the stacked items.
    """
    tokens, positions = stack_items(dataset)
    sol = solve_fixed_point(stack, tokens)
    total, per_pair, _ = kd_loss(sol.asr_star, targets(tokens, positions),
                                 projections)
    n = len(dataset)
    return total / n, [p / n for p in per_pair]


def run_distillation(stack, teacher: TeacherModel, dataset, epochs: int,
                     projections, optimizer: AdamState,
                     batch_size: int = 16) -> KdReport:
    """Stage-1 training: minimize the distillation loss over the dataset.

    The report's epoch 0 row holds the pre-training loss; with epochs=0 the
    student is untouched and only that row is emitted.  The loss reads no
    class labels, so the items are relabelled by position, and the steps
    and the evaluations share one teacher pass over the dataset
    (`teacher_targets`).
    """
    items = [(tokens, i) for i, (tokens, _label) in enumerate(dataset)]
    targets = teacher_targets(teacher, items)
    loss = kd_loss_builder(projections, targets)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:  # epoch 0 reports the loss before any step
            for batch in batches(items, batch_size):
                training_step(stack, batch, optimizer, loss=loss,
                              extra_params=projections)
        total, pairs = evaluate_kd_loss(stack, items, projections, targets)
        report.epochs.append((epoch, pairs, total))
    return report
