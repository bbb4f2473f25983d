"""Versioned JSON checkpoints for student and teacher models.

Both kinds share one envelope: format version, kind, stage, config and
parameters.  Student checkpoints add the quant mode and, per quantized
linear, its alpha/beta statistics and packed 2-bit integer codes
(little-endian within each byte); a loaded student is frozen on its
latent weights' quantization, which must be the saved one.  Teacher
checkpoints add their training metrics.  A stage tag records where in the
training pipeline the artifact was produced.
"""

from __future__ import annotations

import dataclasses
import json

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


def _save(model, kind, stage, path, **extra):
    """Writes `model`'s envelope and the `extra` sections to `path`."""
    config = {k: v.value if isinstance(v, QuantMode) else v
              for k, v in dataclasses.asdict(model.cfg).items()}
    write_json(path, {"format_version": FORMAT_VERSION, "kind": kind,
                      "stage": stage, "config": config,
                      "params": {k: v.tolist() for k, v in model.params.items()},
                      **extra})


def _load(path, kind, build):
    """`build(obj)` for the JSON object of a `kind` checkpoint at `path`.

    Text that is not JSON, or a missing, mistyped or invalid field (a
    shape, a non-finite number, a config or parameter set that names other
    fields or parameters than the model's, or values it rejects) is
    reported as a CheckpointError naming `path`; a file that cannot be
    read raises its OSError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) \
                or obj.get("format_version") != FORMAT_VERSION \
                or obj.get("kind") != kind:
            raise CheckpointError(f"not a {kind} checkpoint")
        return build(obj)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc


def _require_exactly(saved, names, what: str):
    """Raises a CheckpointError unless `saved` names exactly `names`."""
    missing, unknown = set(names) - set(saved), set(saved) - set(names)
    if missing or unknown:
        raise CheckpointError(f"{what} (missing {sorted(missing)}, unknown "
                              f"{sorted(unknown)})")


def _restore(model_cls, cfg_cls, obj):
    """`model_cls` built from an envelope's config, which must name
    exactly the `cfg_cls` fields, holding its parameters, which must be
    exactly the model's, each with the model's shape and finite."""
    blob = obj["config"]
    _require_exactly(blob, [f.name for f in dataclasses.fields(cfg_cls)],
                     f"config must name exactly the {cfg_cls.__name__} fields")
    model = model_cls(cfg_cls(**blob), np.random.default_rng(0))
    saved = obj["params"]
    _require_exactly(saved, model.params,
                     "params must name exactly the model's parameters")
    for k, v in model.params.items():
        arr = np.asarray(saved[k], dtype=np.float64)
        if arr.shape != v.shape:
            raise CheckpointError(f"parameter {k}: shape {arr.shape} vs {v.shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {k} is not finite")
        v[...] = arr
    return model


def save_student(stack: EncoderStack, stage: str, path):
    if stage not in STAGES:
        raise CheckpointError(f"unknown stage {stage!r}")
    # the codes and alpha/beta written come from one quantization
    _save(stack, "student", stage, path, quant={
        "mode": stack.cfg.quant_mode.value, "layers": {
            name: {"alpha": p.alpha, "beta": p.beta,
                   "shape": list(p.codes.shape), "codes": pack_codes(p.codes)}
            for name, p in stack.pinned().items() if p.quantized}})


def load_student(path):
    return _load(path, "student", _build_student)


def _build_student(obj):
    stack = _restore(EncoderStack, StackConfig, obj)
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
    _save(teacher, "teacher", "teacher", path, metrics=metrics or {})


def load_teacher(path):
    return _load(path, "teacher",
                 lambda obj: _restore(TeacherModel, TeacherConfig, obj))
