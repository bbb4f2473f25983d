"""Versioned JSON checkpoints for student and teacher models.

Student checkpoints carry the latent full-precision tensors, the quant
mode, and per quantized linear its alpha/beta statistics and packed 2-bit
integer codes (little-endian within each byte).  A loaded student is
frozen on its latent weights' quantization, which must be the saved one.
A stage tag records where in the training pipeline the artifact was
produced.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from .quantizer import pack_codes, unpack_codes

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
    # the codes and alpha/beta written come from one quantization
    quant = {"mode": cfg.quant_mode.value, "layers": {
        name: {"alpha": p.alpha, "beta": p.beta, "shape": list(p.codes.shape),
               "codes": pack_codes(p.codes)}
        for name, p in stack.pinned().items() if p.quantized}}
    obj = {"format_version": FORMAT_VERSION, "kind": "student", "stage": stage,
           "config": {**dataclasses.asdict(cfg),
                      "quant_mode": cfg.quant_mode.value},
           "params": _params_to_json(stack.params),
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
    _params_from_json(stack.params, obj["params"])
    layers = dict(obj["quant"]["layers"])
    pins = stack.pinned()  # each linear re-pinned on its saved latent weight
    for key, p in pins.items():
        if not p.quantized:
            continue
        entry = layers.pop(key, None)
        if entry is None:
            raise CheckpointError(f"quant entry {key} is missing")
        shape = tuple(entry["shape"])
        if shape != p.codes.shape:
            raise CheckpointError(f"quant entry {key}: shape {shape} vs "
                                  f"{p.codes.shape}")
        # a non-finite or mistyped alpha/beta differs from the re-pin's too
        if (entry["alpha"], entry["beta"]) != (p.alpha, p.beta) \
                or not np.array_equal(unpack_codes(entry["codes"], shape),
                                      p.codes):
            raise CheckpointError(f"quant entry {key}: codes or alpha/beta "
                                  "are not those of its latent weights")
    if layers:
        raise CheckpointError(f"unknown quant entries {sorted(layers)}")
    stack.frozen = pins
    return stack, obj["stage"]


def save_teacher(teacher: TeacherModel, path, metrics: dict | None = None):
    cfg = teacher.cfg
    obj = {"format_version": FORMAT_VERSION, "kind": "teacher", "stage": "teacher",
           "config": dataclasses.asdict(cfg),
           "params": _params_to_json(teacher.params),
           "metrics": metrics or {}}
    write_json(path, obj)


def load_teacher(path):
    return _load(path, "teacher", _build_teacher)


def _build_teacher(obj):
    teacher = TeacherModel(_config(TeacherConfig, obj["config"]),
                           np.random.default_rng(0))
    _params_from_json(teacher.params, obj["params"])
    return teacher
