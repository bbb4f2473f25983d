"""Intermediate-layer distillation from the teacher into the spiking student.

Each mapped student block's equilibrium rate matrix is linearly projected
into the teacher's hidden width and pulled toward the corresponding
teacher block output under an MSE loss; the projections train jointly
with the student.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import batches, stack_by_length
from .equilibrium import SolverConfig, solve_fixed_point
from .implicit_grad import mse, training_step
from .model import TeacherModel, teacher_forward
from .numerics import AdamState


class KdConfigError(ValueError):
    pass


def default_layer_map(num_student: int, num_teacher: int) -> list[int]:
    """Uniform-stride mapping: student block i -> teacher block ceil((i+1)*Lt/Ls)."""
    return [math.ceil((i + 1) * num_teacher / num_student) - 1
            for i in range(num_student)]


@dataclass
class KdConfig:
    layer_map: list[int]
    projections: dict = field(default_factory=dict)  # "kd.proj{i}" -> (ds, dt)
    loss_weights: list[float] = None

    def __post_init__(self):
        if not all(isinstance(t, (int, np.integer)) and t >= 0
                   for t in self.layer_map):
            raise KdConfigError("layer map entries must be teacher block indices")
        if any(b > a for a, b in zip(self.layer_map[1:], self.layer_map[:-1])):
            raise KdConfigError("layer map must be nondecreasing")
        if self.loss_weights is None:
            self.loss_weights = [1.0] * len(self.layer_map)
        if len(self.loss_weights) != len(self.layer_map):
            raise KdConfigError("one loss weight per mapped pair required")
        weights = np.asarray(self.loss_weights, dtype=np.float64)
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise KdConfigError("loss weights must be finite and >= 0")

    @classmethod
    def build(cls, student_dim: int, teacher_dim: int, num_student: int,
              num_teacher: int, rng: np.random.Generator,
              layer_map: list[int] | None = None,
              loss_weights: list[float] | None = None) -> "KdConfig":
        layer_map = layer_map if layer_map is not None else \
            default_layer_map(num_student, num_teacher)
        if len(layer_map) != num_student:
            raise KdConfigError("one layer map entry per student block required")
        cfg = cls(layer_map=layer_map, loss_weights=loss_weights)
        if any(t >= num_teacher for t in layer_map):
            raise KdConfigError("layer map entries must be teacher block indices")
        for i in range(num_student):
            cfg.projections[f"kd.proj{i}"] = _init_projection(
                student_dim, teacher_dim, rng)
        return cfg


def _init_projection(ds: int, dt: int, rng: np.random.Generator) -> np.ndarray:
    """Identity-padded when the student width nests in the teacher's."""
    if ds <= dt:
        w = np.zeros((ds, dt))
        w[:, :ds] = np.eye(ds)
        return w
    return rng.uniform(-1.0, 1.0, size=(ds, dt)) / np.sqrt(ds)


def kd_loss(student_asrs: list, teacher_hiddens: list, cfg: KdConfig,
            proj_leaves: dict | None = None):
    """Weighted sum of per-pair MSE terms; returns (Tensor, per-pair floats).

    `student_asrs` entries may be Tensors (training) or arrays (reporting),
    (seq, d) for one example or (B, seq, d) for a batch; each term is then
    the sum over the batch of per-example MSE means.
    """
    if len(cfg.layer_map) != len(student_asrs):
        raise KdConfigError("every student block needs a teacher mapping")
    total = None
    per_pair = []
    for i, t_idx in enumerate(cfg.layer_map):
        proj = proj_leaves[f"kd.proj{i}"] if proj_leaves is not None \
            else Tensor(cfg.projections[f"kd.proj{i}"])
        s = ad.as_tensor(student_asrs[i])
        term = mse(s @ proj, teacher_hiddens[t_idx])
        per_pair.append(float(term.data))
        weighted = ad.mul(term, cfg.loss_weights[i])
        total = weighted if total is None else ad.add(total, weighted)
    return total, per_pair


@dataclass
class KdReport:
    epochs: list = field(default_factory=list)  # (epoch, per-pair mse, total)

    def append(self, epoch: int, per_pair: list, total: float):
        self.epochs.append((epoch, list(per_pair), total))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,pair_index,mse,total\n")
            for epoch, pairs, total in self.epochs:
                for j, val in enumerate(pairs):
                    fh.write(f"{epoch},{j},{val:.12g},{total:.12g}\n")


def teacher_targets(teacher: TeacherModel):
    """tokens -> the frozen teacher's per-block hiddens, one pass per batch."""
    memo = {}

    def targets(tokens):
        key = (tokens.shape, tokens.dtype.str, tokens.tobytes())
        if key not in memo:
            memo[key] = teacher_forward(teacher, tokens)[0]
            for hidden in memo[key]:  # shared by every use of this batch
                hidden.flags.writeable = False
        return memo[key]

    return targets


def kd_loss_builder(cfg: KdConfig, targets):
    """Loss builder for training_step: distillation only (stage 1).

    `targets` maps stacked tokens to the teacher's hiddens, as
    `teacher_targets` does.
    """

    def build(tokens, label, a_blocks, head_leaves):
        total, per_pair = kd_loss(a_blocks, targets(tokens), cfg,
                                  proj_leaves=head_leaves)
        return total, {"kd": float(total.data),
                       **{f"kd_pair{j}": v for j, v in enumerate(per_pair)}}

    return build


def evaluate_kd_loss(stack, dataset, cfg: KdConfig, solver_cfg: SolverConfig,
                     targets) -> tuple[float, list]:
    """Mean distillation loss over a dataset (no training).

    One solve and one `targets` call per sequence length.
    """
    total = 0.0
    pair_sum = None
    for tokens, _labels in stack_by_length(dataset):
        sol = solve_fixed_point(stack, tokens, solver_cfg)
        t, per_pair = kd_loss(sol.asr_star, targets(tokens), cfg)
        total += float(t.data)
        pair_sum = per_pair if pair_sum is None else \
            [a + b for a, b in zip(pair_sum, per_pair)]
    n = len(dataset)
    return total / n, [p / n for p in pair_sum]


def run_distillation(stack, teacher: TeacherModel, dataset, epochs: int,
                     cfg: KdConfig, optimizer: AdamState,
                     solver_cfg: SolverConfig | None = None,
                     batch_size: int = 16) -> KdReport:
    """Stage-1 training: minimize the distillation loss over the dataset.

    The report's epoch 0 row holds the pre-training loss; with epochs=0 the
    student is untouched and only that row is emitted.  The steps and the
    evaluations share one teacher pass per distinct stacked batch.
    """
    solver_cfg = solver_cfg or SolverConfig(tol=1e-8)
    targets = teacher_targets(teacher)
    builder = kd_loss_builder(cfg, targets)
    report = KdReport()
    for epoch in range(epochs + 1):
        if epoch:  # epoch 0 reports the loss before any step
            for batch in batches(dataset, batch_size):
                training_step(stack, batch, optimizer, loss_builder=builder,
                              extra_params=cfg.projections)
        total, pairs = evaluate_kd_loss(stack, dataset, cfg, solver_cfg,
                                        targets)
        report.append(epoch, pairs, total)
    return report
