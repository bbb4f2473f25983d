"""Config handling and staged training orchestration behind the CLI.

Stage 1 distills intermediate-layer knowledge from a task-trained teacher
into the quantization-enabled student; stage 2 fine-tunes the student with
cross-entropy against the true labels.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os

import numpy as np
import yaml

from .data import (Tokenizer, batches, encode_corpus, load_tsv, stack_by_length,
                   synth_task)
from .distill import KdConfig, run_distillation
from .equilibrium import SolverConfig, solve_fixed_point
from .energy import energy_estimate, expected_accumulates
from .implicit_grad import batch_gradients, training_step
from .model import (EncoderStack, StackConfig, TeacherConfig, TeacherModel,
                    teacher_forward)
from .numerics import AdamState, ShapeError, adam_step_many, check_finite
from .quantizer import OpCounter, QuantMode


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    return {
        "seed": 0,
        "out_dir": "out",
        "model": {
            "hidden_dim": 32,
            "intermediate_dim": 64,
            "num_heads": 2,
            "num_layers": 2,
            "max_len": 12,
            "quant_mode": "1.58bit",
            "binary_output_scale": False,
        },
        "teacher": {
            "hidden_dim": 32,
            "intermediate_dim": 64,
            "num_heads": 2,
            "num_layers": 2,
            "lr": 1e-3,
            "epochs": 12,
            "batch_size": 16,
        },
        "train": {
            "lr": 3e-3,
            "batch_size": 16,
            "kd_epochs": 12,
            "finetune_epochs": 17,
        },
        "kd": {"layer_map": None, "loss_weights": None},
        "data": {
            "task": "keyword-presence",
            "train_size": 64,
            "dev_size": 64,
            "path": None,
        },
        "energy": {"timesteps": 200},
    }


def _fits(default, val) -> bool:
    """Whether `val` may stand for `default`: a bool only for a bool, a
    non-bool int for an int, an int or a float for a float, a value of the
    default's own type otherwise; anything where the default is None."""
    if default is None:
        return True
    if isinstance(default, bool) or isinstance(val, bool):
        return type(val) is type(default)
    return isinstance(val, (int, float) if isinstance(default, float)
                      else type(default))


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if not _fits(base[key], val):
            raise ConfigError(f"config key {here!r} must be "
                              f"{type(base[key]).__name__}, not {val!r}")
        out[key] = _merge(base[key], val, here) \
            if isinstance(base[key], dict) else val
    return out


_VALUE_RULES = {  # per key, what a value other than null must be
    ("data", "path"): ("a non-empty str or null",
                       lambda v: isinstance(v, str) and v),
    ("kd", "layer_map"): ("a list of ints or null", lambda v: isinstance(
        v, list) and all(_fits(0, x) for x in v)),
    ("kd", "loss_weights"): ("a list of numbers or null", lambda v: isinstance(
        v, list) and all(_fits(0.0, x) for x in v)),
    ("teacher", "lr"): ("finite and > 0", lambda v: 0 < v < math.inf),
    ("teacher", "epochs"): ("at least 0", lambda v: v >= 0),
    ("teacher", "batch_size"): ("at least 1", lambda v: v >= 1),
    ("train", "lr"): ("finite and > 0", lambda v: 0 < v < math.inf),
    ("train", "batch_size"): ("at least 1", lambda v: v >= 1),
    ("train", "kd_epochs"): ("at least 0", lambda v: v >= 0),
    ("train", "finetune_epochs"): ("at least 1", lambda v: v >= 1),
    ("data", "train_size"): ("at least 2", lambda v: v >= 2),
    ("data", "dev_size"): ("at least 2", lambda v: v >= 2),
    ("energy", "timesteps"): ("at least 1", lambda v: v >= 1)}


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = default_config()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                user = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: malformed YAML: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    for (section, key), (what, fits) in _VALUE_RULES.items():
        val = cfg[section][key]
        if val is not None and not fits(val):
            raise ConfigError(f"config key '{section}.{key}' must be {what}, "
                              f"not {val!r}")
    # each model's own rules, on placeholder data sizes
    for section, build in (
            ("model", lambda: StackConfig(**cfg["model"], vocab_size=1)),
            ("teacher", lambda: _teacher_config(cfg, vocab_size=1))):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"config section {section!r}: {exc}") from None
    return cfg


def solver_config(cfg) -> SolverConfig:
    """The default `SolverConfig`, for the benchmark's certification."""
    return SolverConfig()


def make_dataset(cfg):
    """Tokenizer + encoded train/dev splits (synthetic or TSV-backed)."""
    d = cfg["data"]
    if d["path"]:
        train = load_tsv(os.path.join(d["path"], "train.tsv"))
        dev = load_tsv(os.path.join(d["path"], "dev.tsv"))
    else:
        train = synth_task(d["task"], d["train_size"], cfg["seed"])
        dev = synth_task(d["task"], d["dev_size"], cfg["seed"] + 1000)
    tokenizer = Tokenizer.build(train, max_len=cfg["model"]["max_len"])
    return tokenizer, encode_corpus(tokenizer, train), \
        encode_corpus(tokenizer, dev), train.label_names


def build_student(cfg, tokenizer, quant_mode=None, num_labels=2) -> EncoderStack:
    """The student of the config's `model` section, every key a StackConfig field."""
    m = cfg["model"]
    sc = StackConfig(**{**m, "quant_mode": quant_mode or m["quant_mode"]},
                     vocab_size=tokenizer.vocab_size, num_labels=num_labels)
    return EncoderStack(sc, np.random.default_rng(cfg["seed"]))


def _teacher_config(cfg, vocab_size, num_labels=2) -> TeacherConfig:
    """The `teacher` section's TeacherConfig fields; the teacher's sequence
    length is the student's."""
    t = cfg["teacher"]
    shape = {f.name: t[f.name] for f in dataclasses.fields(TeacherConfig)
             if f.name in t}
    return TeacherConfig(**shape, vocab_size=vocab_size,
                         max_len=cfg["model"]["max_len"], num_labels=num_labels)


def build_teacher(cfg, tokenizer, num_labels=2) -> TeacherModel:
    return TeacherModel(_teacher_config(cfg, tokenizer.vocab_size, num_labels),
                        np.random.default_rng(cfg["seed"] + 1))


def _accuracy(logits_of, items) -> float:
    """Share of `items` whose label is the argmax of `logits_of(tokens)`,
    one call per sequence length; a non-finite logit raises NumericError."""
    hits = 0
    for tokens, labels in stack_by_length(items):
        logits = check_finite(logits_of(tokens), "logits")
        hits += int(np.sum(np.argmax(logits, axis=-1) == labels))
    return hits / len(items)


def train_teacher(cfg, teacher, train_items, dev_items) -> dict:
    """Cross-entropy training of the teacher, one `batch_gradients` and one
    Adam step per batch as in `training_step`; returns its dev accuracy."""
    t = cfg["teacher"]
    adam = AdamState(lr=t["lr"])
    for _epoch in range(t["epochs"]):
        for batch in batches(train_items, t["batch_size"]):
            adam_step_many([teacher.params],
                           batch_gradients(teacher, batch)[1], adam)
    acc = _accuracy(lambda tokens: teacher_forward(teacher, tokens)[1],
                    dev_items)
    return {"dev_accuracy": acc}


def student_accuracy(stack, items, scfg=None) -> float:
    """Dev accuracy at the equilibrium; one solve per sequence length.
    `scfg` is not read; it stays for callers that pass it positionally."""
    return _accuracy(lambda tokens: stack.logits(
        solve_fixed_point(stack, tokens).asr_star[-1]), items)


def distill_student(cfg, stack, teacher, train_items):
    """Stage-1 KD; returns the per-epoch report."""
    rng = np.random.default_rng(cfg["seed"] + 2)
    kd_cfg = KdConfig.build(stack.cfg.hidden_dim, teacher.cfg.hidden_dim,
                            stack.cfg.num_layers, teacher.cfg.num_layers, rng,
                            layer_map=cfg["kd"]["layer_map"],
                            loss_weights=cfg["kd"]["loss_weights"])
    adam = AdamState(lr=cfg["train"]["lr"])
    report = run_distillation(stack, teacher, train_items,
                              cfg["train"]["kd_epochs"], kd_cfg, adam,
                              batch_size=cfg["train"]["batch_size"])
    return report, kd_cfg


def finetune_student(cfg, stack, train_items, dev_items):
    """Stage-2 cross-entropy fine-tuning; returns per-epoch dev accuracy.

    The parameters from the best-dev-accuracy epoch are restored at the
    end (early stopping by checkpoint selection), and the history's last
    entry repeats that selected accuracy under the key "selected".
    """
    adam = AdamState(lr=cfg["train"]["lr"])
    history = []
    flat = stack.params.flat  # every parameter, so a snapshot is one copy
    best_acc, best_snapshot = -1.0, None
    for epoch in range(1, cfg["train"]["finetune_epochs"] + 1):
        for batch in batches(train_items, cfg["train"]["batch_size"]):
            training_step(stack, batch, adam)
        acc = student_accuracy(stack, dev_items)
        history.append({"epoch": epoch, "dev_accuracy": acc})
        if acc > best_acc:
            best_acc, best_snapshot = acc, flat.copy()
    if best_snapshot is not None:
        flat[...] = best_snapshot
    history.append({"epoch": "selected", "dev_accuracy": best_acc})
    return history


def simulate(cfg, stack, tokens, T):
    """Trace rows (step, layer, mean rate, |mean - the layer's mean
    equilibrium rate|) + temporal-vs-equilibrium deviation summary; `cfg`
    is not read."""
    sol = solve_fixed_point(stack, tokens)
    targets = {name: float(np.mean(v)) for name, v in sol.sublayer_asr.items()}
    rows = []
    _, asrs, _ = stack.temporal_simulate(tokens, T, trace=rows,
                                         trace_targets=targets)
    deviations = {f"layer_{i}": float(np.mean(np.abs(asrs[f"blk{i}.out"] - a)))
                  for i, a in enumerate(sol.asr_star)}
    summary = {"T": T, "mean_abs_deviation": deviations,
               "max_mean_abs_deviation": max(deviations.values())}
    return rows, summary


# the shape fields that the op table and the simulated shapes read: all
# of TeacherConfig's, which StackConfig extends, but the vocabulary size
ARCHITECTURE_FIELDS = tuple(f.name for f in dataclasses.fields(TeacherConfig)
                            if f.name != "vocab_size")


def energy_compare(cfg, stack_quant, stack_fp, eval_items, T):
    """Energy reports for both models on a shared eval set, plus ratios.

    The set is stacked into one `(B, seq)` batch and simulated in one
    `temporal_simulate` call per model; each layer's spike counts are
    summed over the batch axis.  Accumulates cost the 45nm
    `energy.INT_ACC_PJ` and `FLOAT_ACC_PJ`; `cfg` is not read.  Raises
    ConfigError if the two architectures differ or the set is empty, and
    ShapeError if its sentences differ in length.
    """
    differ = [f for f in ARCHITECTURE_FIELDS
              if getattr(stack_quant.cfg, f) != getattr(stack_fp.cfg, f)]
    if differ:
        raise ConfigError("energy comparison needs matching architectures; "
                          f"{', '.join(differ)} differ")
    if not eval_items:
        raise ConfigError("energy comparison needs at least one sentence")
    groups = stack_by_length(eval_items)
    if len(groups) > 1:  # mixed lengths would need one op table per length
        raise ShapeError("energy comparison needs equal-length sentences; got "
                         f"lengths {sorted(t.shape[-1] for t, _ in groups)}")
    (tokens, _labels), = groups
    out = {}
    for tag, stack in (("quantized", stack_quant), ("full_precision", stack_fp)):
        counter = OpCounter()
        _, _, counts = stack.temporal_simulate(tokens, T, counter=counter)
        counts_sum = {k: v.sum(axis=0) for k, v in counts.items()}
        table = stack.linear_op_table(stack.cfg.max_len)
        report = energy_estimate(
            counts_sum, T * len(eval_items), table,
            quantized=stack.cfg.quant_mode is not QuantMode.FULL_PRECISION)
        expected = expected_accumulates(counts_sum, stack)
        out[tag] = {"report": report, "kernel_ops": dict(counter.per_layer),
                    "expected_ops": expected}
    nq = out["quantized"]["report"].norm_ops
    nf = out["full_precision"]["report"].norm_ops
    out["norm_ops_ratio"] = nq / nf if nf > 0 else None
    eq = out["quantized"]["report"].total_energy_pj
    ef = out["full_precision"]["report"].total_energy_pj
    out["energy_ratio"] = eq / ef if ef > 0 else None
    return out


def energy_report_json(result) -> dict:
    def rep(tag):
        r = result[tag]["report"]
        return {"ifr": {k: round(v, 12) for k, v in sorted(r.ifr.items())},
                "layer_ops": dict(sorted(r.layer_ops.items())),
                "driven_ops": {k: round(v, 6) for k, v in sorted(r.driven_ops.items())},
                "norm_ops": round(r.norm_ops, 12),
                "total_energy_pj": round(r.total_energy_pj, 6),
                "acc_energy_pj": r.acc_energy_pj,
                "metadata": r.metadata}

    return {"quantized": rep("quantized"),
            "full_precision": rep("full_precision"),
            "norm_ops_ratio": None if result["norm_ops_ratio"] is None
            else round(result["norm_ops_ratio"], 12),
            "energy_ratio": None if result["energy_ratio"] is None
            else round(result["energy_ratio"], 12)}

