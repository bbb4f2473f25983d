"""The benchmark's workloads: set-up, one closed-loop call, and its checks.

Each workload builds its inputs from the seed alone and hands eqspike only
those inputs.  `setup` is what `setup_s` times; `op` is one timed call into
eqspike (the loop sends the next one only after it returns); `check` runs
outside the timed region and returns the names of the checks that failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from calibrate import interval, mark

# Calls go through module attributes so that the traced run's wrappers,
# installed after this import, see them.
from eqspike import checkpoint, data, equilibrium
from eqspike import pipeline as pl


@dataclass
class OpResult:
    units: float              # examples or sequence-timesteps this call did
    # (wall start, wall end, CPU s) intervals behind `units`; None: the call
    busy: list | None = None
    out: object = None
    info: dict = field(default_factory=dict)


def _round_trip(stack, stage, workdir, name):
    """save_student + load_student, the way the CLI commands hand over."""
    path = os.path.join(workdir, name)
    checkpoint.save_student(stack, stage, path)
    return checkpoint.load_student(path)


class Train:
    """The staged pipeline: teacher, KD, checkpoint hand-over, fine-tune, eval."""

    name = "train"
    fresh_setup_per_op = True   # each chain trains freshly built models
    traced_ops = 2              # 2 x 56 training steps, enough for a p90

    def __init__(self, seed, workdir, tiny=False):
        over = {"seed": seed, "train": {"finetune_epochs": 2}}
        if tiny:
            over = {"seed": seed,
                    "model": {"hidden_dim": 8, "intermediate_dim": 12,
                              "max_len": 8},
                    "teacher": {"hidden_dim": 8, "intermediate_dim": 12,
                                "epochs": 1},
                    "train": {"kd_epochs": 1, "finetune_epochs": 1},
                    "data": {"train_size": 8, "dev_size": 8}}
        self.cfg = pl.load_config(None, over)
        self.workdir = workdir

    def setup(self):
        tok, train, dev, labels = pl.make_dataset(self.cfg)
        teacher = pl.build_teacher(self.cfg, tok, num_labels=len(labels))
        stack = pl.build_student(self.cfg, tok, num_labels=len(labels))
        return {"train": train, "dev": dev, "teacher": teacher, "stack": stack}

    def op(self, ctx, i):
        cfg, train, dev = self.cfg, ctx["train"], ctx["dev"]
        pl.train_teacher(cfg, ctx["teacher"], train, dev)
        t1 = mark()
        report, _kd = pl.distill_student(cfg, ctx["stack"], ctx["teacher"], train)
        t2 = mark()
        ctx["stack"].freeze_quantization()
        stack, stage = _round_trip(ctx["stack"], "kd", self.workdir,
                                   f"student_kd_{i}.json")
        stack.set_quant_mode(stack.cfg.quant_mode)  # unfreeze, as `finetune`
        t3 = mark()
        history = pl.finetune_student(cfg, stack, train, dev)
        t4 = mark()
        stack.freeze_quantization()
        acc = pl.student_accuracy(stack, dev, pl.solver_config(cfg))
        t = cfg["train"]
        units = (t["kd_epochs"] + t["finetune_epochs"]) * len(train)
        return OpResult(units=units, busy=[interval(t1, t2), interval(t3, t4)],
                        out=(report, stage, history, acc),
                        info={"dev_accuracy": acc})

    def check(self, ctx, res):
        report, stage, history, acc = res.out
        failed = []
        first, last = report.epochs[0][2], report.epochs[-1][2]
        # test_kd_efficacy's per-seed bound
        if not last <= 0.5 * first:
            failed.append(f"kd loss {first:.4f} -> {last:.4f} not halved")
        if stage != "kd":
            failed.append(f"checkpoint stage {stage!r} after round trip")
        if not 0.0 <= acc <= 1.0 or len(history) != self.cfg["train"][
                "finetune_epochs"] + 1:
            failed.append("malformed fine-tune history")
        return failed

    def expected_counts(self, ops):
        """Call counts the chain implies, for the traced run's assertions."""
        cfg = self.cfg
        steps = math.ceil(cfg["data"]["train_size"] / cfg["train"]["batch_size"])
        teacher_steps = math.ceil(cfg["data"]["train_size"]
                                  / cfg["teacher"]["batch_size"])
        kd, ft = cfg["train"]["kd_epochs"], cfg["train"]["finetune_epochs"]
        return {"pipeline.train_teacher": ops,
                "pipeline.distill_student": ops,
                "pipeline.finetune_student": ops,
                "pipeline.student_accuracy": ops * (ft + 1),
                "checkpoint.save_student": ops,
                "checkpoint.load_student": ops,
                "implicit_grad.training_step": ops * (kd + ft) * steps,
                "numerics.adam_step_many":
                    ops * (cfg["teacher"]["epochs"] * teacher_steps
                           + (kd + ft) * steps)}

    # layers whose names are bound in several modules and must be seen here
    must_trace = ("equilibrium.solve_fixed_point", "implicit_grad.training_step",
                  "numerics.adam_step_many", "model.teacher_forward",
                  "quantizer.effective_weight_tensor")


class InferLong:
    """A frozen 1-bit student classifying a stream of 30-word sentences."""

    name = "infer-long"
    fresh_setup_per_op = False
    traced_ops = 256
    stream_size = 256

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir = seed, workdir
        self.length, max_len = (6, 8) if tiny else (30, 32)
        model = ({"hidden_dim": 8, "intermediate_dim": 12, "num_layers": 2}
                 if tiny else {"hidden_dim": 64, "intermediate_dim": 128,
                               "num_layers": 4})
        self.cfg = pl.load_config(None, {"seed": seed, "model": {
            **model, "max_len": max_len, "quant_mode": "1bit"}})

    def setup(self):
        task = self.cfg["data"]["task"]
        corpus = data.synth_task(task, 64, self.seed, length=self.length)
        tok = data.Tokenizer.build(corpus, max_len=self.cfg["model"]["max_len"])
        stream = data.encode_corpus(tok, data.synth_task(
            task, self.stream_size, self.seed + 1000, length=self.length))
        stack = pl.build_student(self.cfg, tok)
        stack.freeze_quantization()
        stack, _stage = _round_trip(stack, "finetuned", self.workdir,
                                    "student_1bit.json")
        return {"stack": stack, "stream": stream,
                "scfg": pl.solver_config(self.cfg)}

    def op(self, ctx, i):
        stack = ctx["stack"]
        tokens, _label = ctx["stream"][i % len(ctx["stream"])]
        sol = equilibrium.solve_fixed_point(stack, tokens, ctx["scfg"])
        logits = stack.cls_w @ sol.asr_star[-1][0] + stack.cls_b
        return OpResult(units=1, out=(tokens, sol, logits))

    def check(self, ctx, res):
        tokens, sol, logits = res.out
        failed = []
        if not sol.converged:
            failed.append("solve did not converge")
        # certify a* independently through the public rate map
        fa = ctx["stack"].rate_map(tokens, sol.asr_star)
        resid = max(float(np.max(np.abs(f - a))) for f, a in zip(fa, sol.asr_star))
        if not resid <= ctx["scfg"].tol:
            failed.append(f"max|rate_map(a*) - a*| = {resid:.3e} > tol")
        if not np.all(np.isfinite(logits)):
            failed.append("non-finite logits")
        return failed

    def expected_counts(self, ops):
        return {"equilibrium.solve_fixed_point": ops,
                "checkpoint.save_student": 1, "checkpoint.load_student": 1}

    must_trace = ("equilibrium.solve_fixed_point",
                  "quantizer.effective_weight_tensor")


class Simulate:
    """The spike path: `eqspike energy` per sentence, plus one `simulate` trace."""

    name = "simulate"
    fresh_setup_per_op = False
    traced_ops = 8

    def __init__(self, seed, workdir, tiny=False):
        over = {"seed": seed}
        if tiny:
            over.update({"model": {"hidden_dim": 8, "intermediate_dim": 12,
                                   "max_len": 8},
                         "data": {"train_size": 8, "dev_size": 8},
                         "energy": {"timesteps": 30}})
        self.cfg = pl.load_config(None, over)
        self.T = self.cfg["energy"]["timesteps"]
        self.workdir = workdir

    def setup(self):
        tok, _train, dev, labels = pl.make_dataset(self.cfg)
        quant = pl.build_student(self.cfg, tok, num_labels=len(labels))
        full = pl.build_student(self.cfg, tok, quant_mode="fp",
                                num_labels=len(labels))
        quant.freeze_quantization()
        quant, _ = _round_trip(quant, "finetuned", self.workdir, "student_q.json")
        full, _ = _round_trip(full, "finetuned", self.workdir, "student_fp.json")
        return {"quant": quant, "full": full, "dev": dev}

    def op(self, ctx, i):
        item = ctx["dev"][i % len(ctx["dev"])]
        result = pl.energy_compare(self.cfg, ctx["quant"], ctx["full"], [item],
                                   self.T)
        return OpResult(units=2 * self.T, out=result)

    def check(self, ctx, res):
        result, failed = res.out, []
        # both bounds as test_energy_accounting states them
        if result["quantized"]["kernel_ops"] != result["quantized"]["expected_ops"]:
            failed.append("kernel and spike-log op counts disagree")
        want = result["norm_ops_ratio"] / 9.0
        if not abs(result["energy_ratio"] - want) <= 1e-9 * abs(want):
            failed.append(f"energy ratio {result['energy_ratio']!r} != "
                          f"Norm#OPS ratio / 9 = {want!r}")
        return failed

    def finish(self, ctx):
        """One `eqspike simulate` convergence trace; returns failed checks."""
        rows, summary = pl.simulate(self.cfg, ctx["quant"], ctx["dev"][0][0],
                                    self.T)
        if len(rows) < self.T or not math.isfinite(
                summary["max_mean_abs_deviation"]):
            return ["malformed convergence trace"]
        return []

    def expected_counts(self, ops):
        return {"pipeline.energy_compare": ops, "pipeline.simulate": 1,
                "checkpoint.save_student": 2, "checkpoint.load_student": 2}

    must_trace = ("neuron.lif_step", "quantizer.quantized_forward",
                  "quantizer.effective_weight_tensor",
                  "equilibrium.solve_fixed_point")


WORKLOADS = {w.name: w for w in (Train, InferLong, Simulate)}

