"""Versioned JSON checkpoints for student and teacher models.

Student checkpoints carry the latent full-precision tensors, the quant
mode, frozen alpha/beta statistics, and the packed 2-bit integer codes
(little-endian within each byte) used by the inference path.  A stage tag
records where in the training pipeline the artifact was produced.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from .quantizer import QuantMode, pack_codes, unpack_codes

FORMAT_VERSION = 1
STAGES = ("init", "kd", "finetuned")


class CheckpointError(ValueError):
    pass


def write_json(path, obj):
    """`obj` as compact JSON with sorted keys, one line."""
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
        for name, lin in stack.linears.items():
            # the codes and alpha/beta written come from one quantization
            lin = lin.pinned()
            codes = lin.codes()
            quant["layers"][name] = {
                "alpha": lin.alpha, "beta": lin.beta,
                "shape": list(codes.shape),
                "codes": pack_codes(codes),
            }
    obj = {"format_version": FORMAT_VERSION, "kind": "student", "stage": stage,
           "config": {**dataclasses.asdict(cfg),
                      "quant_mode": cfg.quant_mode.value},
           "params": _params_to_json(stack.named_params()),
           "quant": quant}
    write_json(path, obj)


def _load(path, kind, build):
    """`build(obj)` for the JSON object of a `kind` checkpoint at `path`.

    A missing, mistyped or invalid field (a shape, a non-finite number, a
    config that names other fields than the model's or values it rejects)
    is reported as a CheckpointError naming `path`.
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


def _config(cls, blob):
    """`cls` built from a checkpoint's config, which names exactly its fields."""
    fields = {f.name for f in dataclasses.fields(cls)}
    missing, unknown = fields - set(blob), set(blob) - fields
    if missing or unknown:
        raise CheckpointError(f"config must name exactly the {cls.__name__} "
                              f"fields (missing {sorted(missing)}, unknown "
                              f"{sorted(unknown)})")
    return cls(**blob)


def _build_student(obj):
    stack = EncoderStack(_config(StackConfig, obj["config"]),
                         np.random.default_rng(0))
    _params_from_json(stack.named_params(), obj["params"])
    for key, lin in stack.linears.items():
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
           "config": dataclasses.asdict(cfg),
           "params": _params_to_json(teacher.named_params()),
           "metrics": metrics or {}}
    write_json(path, obj)


def load_teacher(path):
    return _load(path, "teacher", _build_teacher)


def _build_teacher(obj):
    teacher = TeacherModel(_config(TeacherConfig, obj["config"]),
                           np.random.default_rng(0))
    _params_from_json(teacher.named_params(), obj["params"])
    return teacher
