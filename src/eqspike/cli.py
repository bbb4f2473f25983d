"""Command-line pipeline: teacher training, distillation, fine-tuning,
temporal simulation traces, and energy reports.

Exit codes: 0 success; 2 config error (bad option, config key or value,
malformed YAML, unreadable, malformed or invalid checkpoint); 3 numeric
failure (a non-finite weight, gradient, rate or logit); 4 IO error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline as pl
from .checkpoint import (CheckpointError, load_student, load_teacher,
                         save_student, save_teacher, write_json)
from .numerics import NumericError
from .pipeline import ConfigError
from .quantizer import QuantMode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _common(parser, timesteps=False):
    parser.add_argument("--config", default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    if timesteps:
        parser.add_argument("--timesteps", type=int, default=None,
                            help="simulated spiking timesteps")


def _load_cfg(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "quant", None) is not None:
        overrides.setdefault("model", {})["quant_mode"] = args.quant
    if getattr(args, "timesteps", None) is not None:
        overrides.setdefault("energy", {})["timesteps"] = args.timesteps
    cfg = pl.load_config(args.config, overrides)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return cfg


def _out(cfg, name):
    return os.path.join(cfg["out_dir"], name)


def write_trace_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,layer_name,mean_asr,residual\n")
        for step, layer, mean_asr, resid in rows:
            fh.write(f"{step},{layer},{mean_asr:.12g},{resid:.12g}\n")


def cmd_train_teacher(args):
    cfg = _load_cfg(args)
    tokenizer, train_items, dev_items, labels = pl.make_dataset(cfg)
    teacher = pl.build_teacher(cfg, tokenizer, num_labels=len(labels))
    metrics = pl.train_teacher(cfg, teacher, train_items, dev_items)
    save_teacher(teacher, _out(cfg, "teacher.json"), metrics={
        "dev_accuracy": metrics["dev_accuracy"]})
    write_json(_out(cfg, "teacher_metrics.json"),
               {"dev_accuracy": metrics["dev_accuracy"]})
    print(f"teacher dev accuracy {metrics['dev_accuracy']:.3f}")
    return EXIT_OK


def cmd_distill(args):
    cfg = _load_cfg(args)
    tokenizer, train_items, _dev, labels = pl.make_dataset(cfg)
    teacher = load_teacher(args.teacher)
    stack = pl.build_student(cfg, tokenizer, num_labels=len(labels))
    report, _kd_cfg = pl.distill_student(cfg, stack, teacher, train_items)
    stack.freeze_quantization()
    save_student(stack, "kd", _out(cfg, "student_kd.json"))
    report.write_csv(_out(cfg, "kd_report.csv"))
    first, last = report.epochs[0][2], report.epochs[-1][2]
    print(f"kd loss {first:.6f} -> {last:.6f}")
    return EXIT_OK


def cmd_finetune(args):
    cfg = _load_cfg(args)
    tokenizer, train_items, dev_items, _labels = pl.make_dataset(cfg)
    stack, stage = load_student(args.student)
    if stage != "kd" and not args.allow_skip_kd:
        raise ConfigError(
            f"checkpoint stage is {stage!r}; fine-tuning expects a post-KD "
            "checkpoint (pass --allow-skip-kd to proceed anyway)")
    stack.set_quant_mode(stack.cfg.quant_mode)  # unfreeze for training
    history = pl.finetune_student(cfg, stack, train_items, dev_items)
    stack.freeze_quantization()
    save_student(stack, "finetuned", _out(cfg, "student_finetuned.json"))
    write_json(_out(cfg, "finetune_metrics.json"), {"history": history})
    print(f"final dev accuracy {history[-1]['dev_accuracy']:.3f}")
    return EXIT_OK


def cmd_simulate(args):
    cfg = _load_cfg(args)
    _tok, _train, dev_items, _labels = pl.make_dataset(cfg)
    stack, _stage = load_student(args.student)
    T = cfg["energy"]["timesteps"]
    tokens = dev_items[0][0]
    rows, summary = pl.simulate(cfg, stack, tokens, T)
    write_trace_csv(_out(cfg, "trace.csv"), rows)
    write_json(_out(cfg, "simulate_summary.json"), summary)
    print(f"max mean-abs deviation from equilibrium "
          f"{summary['max_mean_abs_deviation']:.4f} at T={T}")
    return EXIT_OK


def cmd_energy(args):
    if args.eval_size < 1:
        raise ConfigError(f"--eval-size must be at least 1, got {args.eval_size}")
    cfg = _load_cfg(args)
    _tok, _train, dev_items, _labels = pl.make_dataset(cfg)
    stack_q, _ = load_student(args.quant_ckpt)
    stack_f, _ = load_student(args.fp_ckpt)
    T = cfg["energy"]["timesteps"]
    result = pl.energy_compare(cfg, stack_q, stack_f,
                               dev_items[:args.eval_size], T)
    write_json(_out(cfg, "energy_report.json"), pl.energy_report_json(result))
    ratio = result["norm_ops_ratio"]
    print("Norm#OPS ratio quantized/full-precision: "
          + ("undefined" if ratio is None else f"{ratio:.4f}"))
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_cfg(args)
    _tok, _train, dev_items, _labels = pl.make_dataset(cfg)
    stack, stage = load_student(args.student)
    acc = pl.student_accuracy(stack, dev_items)
    write_json(_out(cfg, "eval_metrics.json"), {"dev_accuracy": acc, "stage": stage})
    print(f"dev accuracy {acc:.3f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eqspike",
        description="Quantized spiking encoder: train, distill, simulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train the full-precision teacher")
    _common(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("distill", help="stage-1 intermediate-layer KD")
    _common(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.add_argument("--quant", choices=sorted(m.value for m in QuantMode),
                   default=None, help="weight quantization mode")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("finetune", help="stage-2 cross-entropy fine-tuning")
    _common(p)
    p.add_argument("--student", required=True, help="student checkpoint")
    p.add_argument("--allow-skip-kd", action="store_true",
                   help="accept a pre-KD checkpoint")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("simulate", help="temporal convergence trace")
    _common(p, timesteps=True)
    p.add_argument("--student", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("energy", help="energy report, quantized vs full precision")
    _common(p, timesteps=True)
    p.add_argument("--quant-ckpt", required=True)
    p.add_argument("--fp-ckpt", required=True)
    p.add_argument("--eval-size", type=int, default=4)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("eval", help="dev accuracy of a student checkpoint")
    _common(p)
    p.add_argument("--student", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
