"""Versioned JSON checkpoints for student and teacher models.

Both kinds share one envelope: format version, kind, stage, config and
parameters, each parameter stored as the base64 of its little-endian
float64 bytes (bitwise, and without formatting a float as text).  A
student stores its latent weights only, its quant mode being part of its
config: its codes and scales are a function of the two, so a loaded
student is frozen on the quantization `pin` derives from them, which is
bitwise its saver's wherever the saver was pinned on those weights.
Teacher checkpoints add their training metrics.  A stage tag records
where in the training pipeline the artifact was produced.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np

from .model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from .quantizer import QuantMode

# 1 stored each parameter as nested lists of JSON numbers; 2 added each
# student linear's codes and scales, which its latent weights determine
FORMAT_VERSION = 3
STAGES = ("init", "kd", "finetuned")


class CheckpointError(ValueError):
    pass


def write_json(path, obj):
    """`obj` as compact JSON with sorted keys, one line."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def encode_array(a) -> str:
    """`a` as the base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(a, "<f8").tobytes()).decode("ascii")


def decode_array(text, shape, what: str) -> np.ndarray:
    """The read-only float64 array of `shape` that `encode_array` wrote as
    `text`; a CheckpointError naming `what` unless `text` is a base64
    string of exactly that many values."""
    if not isinstance(text, str):
        raise CheckpointError(f"{what} is a {type(text).__name__}, not a "
                              "base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CheckpointError(f"{what} is not valid base64 ({exc})") from None
    size = int(np.prod(shape))
    if len(raw) != 8 * size:
        raise CheckpointError(f"{what}: {len(raw)} bytes, not the {8 * size} "
                              f"of {size} float64 values (shape {shape})")
    return np.frombuffer(raw, "<f8").reshape(shape)


def _save(model, kind, stage, path, **extra):
    """Writes `model`'s envelope and the `extra` sections to `path`."""
    config = {k: v.value if isinstance(v, QuantMode) else v
              for k, v in dataclasses.asdict(model.cfg).items()}
    write_json(path, {"format_version": FORMAT_VERSION, "kind": kind,
                      "stage": stage, "config": config,
                      "params": {k: encode_array(v)
                                 for k, v in model.params.items()},
                      **extra})


def _load(path, kind, stages, build):
    """`build(obj)` for the JSON object of a `kind` checkpoint at `path`.

    Text that is not JSON, another format version, a stage not in
    `stages`, or a missing, mistyped or invalid field (a parameter that is
    not the base64 of the model's number of values, a non-finite number, a
    config or parameter set that names other fields or parameters than the
    model's, or values it rejects) is reported as a
    CheckpointError naming `path`; a file that cannot be read raises its
    OSError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or obj.get("kind") != kind:
            raise CheckpointError(f"not a {kind} checkpoint")
        if obj.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported {kind} checkpoint (format_version "
                f"{obj.get('format_version')!r}; this eqspike reads "
                f"{FORMAT_VERSION})")
        if obj["stage"] not in stages:
            raise CheckpointError(f"unknown {kind} stage {obj['stage']!r} "
                                  f"(expected one of {list(stages)})")
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
    exactly the model's, each encoded with the model's size and finite."""
    blob = obj["config"]
    _require_exactly(blob, [f.name for f in dataclasses.fields(cfg_cls)],
                     f"config must name exactly the {cfg_cls.__name__} fields")
    model = model_cls(cfg_cls(**blob), np.random.default_rng(0))
    saved = obj["params"]
    _require_exactly(saved, model.params,
                     "params must name exactly the model's parameters")
    for k, v in model.params.items():
        arr = decode_array(saved[k], v.shape, f"parameter {k}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {k} is not finite")
        v[...] = arr
    return model


def save_student(stack: EncoderStack, stage: str, path):
    """Writes `stack`'s latent weights; a CheckpointError for an unknown
    stage, or for a frozen stack whose pinned codes or scale are not `pin`
    of its latent weights now (trained since it froze: its file would load
    pinned on other codes than it ran), naming the first such linear."""
    if stage not in STAGES:
        raise CheckpointError(f"unknown stage {stage!r}")
    now = stack.pin_latent() if stack.frozen else {}
    for name, pinned in now.items():
        held = stack.frozen[name]
        if held.scale != pinned.scale or not np.array_equal(held.codes,
                                                            pinned.codes):
            raise CheckpointError(
                f"frozen linear {name}: its codes or scale are not those of "
                "its latent weights (trained since the stack froze)")
    _save(stack, "student", stage, path)


def load_student(path):
    return _load(path, "student", STAGES, _build_student)


def _build_student(obj):
    stack = _restore(EncoderStack, StackConfig, obj)
    stack.freeze_quantization()
    return stack, obj["stage"]


def save_teacher(teacher: TeacherModel, path, metrics: dict | None = None):
    _save(teacher, "teacher", "teacher", path, metrics=metrics or {})


def load_teacher(path):
    return _load(path, "teacher", ("teacher",),
                 lambda obj: _restore(TeacherModel, TeacherConfig, obj))
