"""Versioned JSON checkpoints for student and teacher models.

Student checkpoints carry the latent full-precision tensors, the quant
mode, frozen alpha/beta statistics, and the packed 2-bit integer codes
(little-endian within each byte) used by the inference path.  A stage tag
records where in the training pipeline the artifact was produced.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from .quantizer import QuantMode, pack_codes, unpack_codes

FORMAT_VERSION = 1
STAGES = ("init", "kd", "finetuned")


class CheckpointError(ValueError):
    pass


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _params_to_json(params):
    return {k: v.tolist() for k, v in params.items()}


def _params_from_json(params, blob):
    for k, v in params.items():
        arr = np.asarray(blob[k], dtype=np.float64)
        if arr.shape != v.shape:
            raise CheckpointError(f"parameter {k}: shape {arr.shape} vs {v.shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {k} is not finite")
        v[...] = arr


def save_student(stack: EncoderStack, stage: str, path):
    if stage not in STAGES:
        raise CheckpointError(f"unknown stage {stage!r}")
    cfg = stack.cfg
    quant = {"mode": cfg.quant_mode.value, "layers": {}}
    if cfg.quant_mode is not QuantMode.FULL_PRECISION:
        for i, blk in enumerate(stack.blocks):
            for nm, lin in blk.linears().items():
                # the codes and alpha/beta written come from one quantization
                lin = lin.pinned()
                codes = lin.codes()
                quant["layers"][f"blk{i}.{nm}"] = {
                    "alpha": lin.alpha, "beta": lin.beta,
                    "shape": list(codes.shape),
                    "codes": pack_codes(codes),
                }
    obj = {"format_version": FORMAT_VERSION, "kind": "student", "stage": stage,
           "config": {"vocab_size": cfg.vocab_size, "hidden_dim": cfg.hidden_dim,
                      "intermediate_dim": cfg.intermediate_dim,
                      "num_heads": cfg.num_heads, "num_layers": cfg.num_layers,
                      "max_len": cfg.max_len, "num_labels": cfg.num_labels,
                      "quant_mode": cfg.quant_mode.value, "gamma": cfg.gamma,
                      "v_th": cfg.v_th,
                      "binary_output_scale": cfg.binary_output_scale},
           "params": _params_to_json(stack.named_params()),
           "quant": quant}
    _dump(path, obj)


def _load(path, kind, build):
    """`build(obj)` for the JSON object of a `kind` checkpoint at `path`.

    A missing, mistyped or invalid field (a shape, a non-finite number, a
    config the model rejects) is reported as a CheckpointError naming
    `path`.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format_version") != FORMAT_VERSION \
            or obj.get("kind") != kind:
        raise CheckpointError(f"{path}: not a {kind} checkpoint")
    try:
        return build(obj)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc


def load_student(path):
    return _load(path, "student", _build_student)


def _build_student(obj):
    c = obj["config"]
    cfg = StackConfig(vocab_size=c["vocab_size"], hidden_dim=c["hidden_dim"],
                      intermediate_dim=c["intermediate_dim"],
                      num_heads=c["num_heads"], num_layers=c["num_layers"],
                      max_len=c["max_len"], num_labels=c["num_labels"],
                      quant_mode=QuantMode(c["quant_mode"]), gamma=c["gamma"],
                      v_th=c["v_th"],
                      binary_output_scale=c["binary_output_scale"])
    stack = EncoderStack(cfg, np.random.default_rng(0))
    _params_from_json(stack.named_params(), obj["params"])
    for i, blk in enumerate(stack.blocks):
        for nm, lin in blk.linears().items():
            key = f"blk{i}.{nm}"
            entry = obj["quant"]["layers"].get(key)
            if entry is None:
                continue
            shape = tuple(entry["shape"])
            if shape != lin.latent_w.shape:
                raise CheckpointError(f"quant entry {key}: shape {shape} vs "
                                      f"{lin.latent_w.shape}")
            alpha, beta = entry["alpha"], entry["beta"]
            if not (math.isfinite(alpha) and math.isfinite(beta)):
                raise CheckpointError(f"quant entry {key}: alpha/beta "
                                      f"{alpha}/{beta} not finite")
            lin.pin(unpack_codes(entry["codes"], shape), alpha, beta)
    return stack, obj["stage"]


def save_teacher(teacher: TeacherModel, path, metrics: dict | None = None):
    cfg = teacher.cfg
    obj = {"format_version": FORMAT_VERSION, "kind": "teacher", "stage": "teacher",
           "config": {"vocab_size": cfg.vocab_size, "hidden_dim": cfg.hidden_dim,
                      "intermediate_dim": cfg.intermediate_dim,
                      "num_heads": cfg.num_heads, "num_layers": cfg.num_layers,
                      "max_len": cfg.max_len, "num_labels": cfg.num_labels},
           "params": _params_to_json(teacher.named_params()),
           "metrics": metrics or {}}
    _dump(path, obj)


def load_teacher(path):
    return _load(path, "teacher", _build_teacher)


def _build_teacher(obj):
    c = obj["config"]
    cfg = TeacherConfig(vocab_size=c["vocab_size"], hidden_dim=c["hidden_dim"],
                        intermediate_dim=c["intermediate_dim"],
                        num_heads=c["num_heads"], num_layers=c["num_layers"],
                        max_len=c["max_len"], num_labels=c["num_labels"])
    teacher = TeacherModel(cfg, np.random.default_rng(0))
    _params_from_json(teacher.named_params(), obj["params"])
    return teacher
