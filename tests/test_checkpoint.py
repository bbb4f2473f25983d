import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike.checkpoint import (FORMAT_VERSION, CheckpointError, encode_array,
                                load_student, load_teacher, save_student,
                                save_teacher)
from eqspike.equilibrium import solve_fixed_point
from eqspike.implicit_grad import training_step
from eqspike.model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from eqspike.numerics import AdamState
from eqspike.quantizer import OpCounter, QuantMode, pin

# a 1.58-bit student as format version 2 wrote it: the latent weights and,
# per linear, its alpha, beta and packed 2-bit codes
STUDENT_V2 = Path(__file__).parent / "data" / "student_v2.json"
# the top-level keys of a student checkpoint
ENVELOPE = {"format_version", "kind", "stage", "config", "params"}


def make_stack(mode=QuantMode.TERNARY_158BIT, seed=0, **kw):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode, **kw)
    return EncoderStack(cfg, np.random.default_rng(seed))


def make_teacher(seed=1):
    return TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                      intermediate_dim=12, num_heads=2,
                                      num_layers=2, max_len=6),
                        np.random.default_rng(seed))


def _save_kind(kind, path, model=None):
    """Saves `model` (by default a small model of `kind`) to `path`;
    returns it and the loader of `kind`."""
    if kind == "student":
        model = make_stack() if model is None else model
        save_student(model, "kd", path)
        return model, lambda p: load_student(p)[0]
    model = make_teacher() if model is None else model
    save_teacher(model, path)
    return model, load_teacher


def _rewrite(path, edit):
    """Applies `edit` to the JSON object of the checkpoint at `path`."""
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def test_student_roundtrip_parameters(tmp_path):
    stack = make_stack()
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    loaded, stage = load_student(path)
    assert stage == "kd"
    for k, v in stack.params.items():
        np.testing.assert_array_equal(loaded.params[k], v)
    assert loaded.cfg.quant_mode is QuantMode.TERNARY_158BIT


def test_student_roundtrip_preserves_inference(tmp_path):
    stack = make_stack()
    tokens = np.array([2, 4, 5])
    logits, _, _ = stack.temporal_simulate(tokens, T=20)
    path = tmp_path / "ckpt.json"
    save_student(stack, "finetuned", path)
    loaded, _ = load_student(path)
    logits2, _, _ = loaded.temporal_simulate(tokens, T=20)
    np.testing.assert_allclose(logits, logits2, atol=1e-12)


def test_loaded_student_is_frozen(tmp_path):
    stack = make_stack()
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    loaded, _ = load_student(path)
    assert list(loaded.frozen) == loaded.linear_names
    for pinned in loaded.frozen.values():
        assert pinned.quantized
        assert not pinned.codes.flags.writeable
        assert not pinned.weight.flags.writeable


def test_fp_student_has_no_code_section(tmp_path):
    stack = make_stack(mode=QuantMode.FULL_PRECISION)
    path = tmp_path / "ckpt.json"
    save_student(stack, "init", path)
    assert set(json.loads(path.read_text())) == ENVELOPE
    loaded, _ = load_student(path)
    assert loaded.cfg.quant_mode is QuantMode.FULL_PRECISION


@pytest.mark.parametrize("mode,kw", [
    (QuantMode.FULL_PRECISION, {}), (QuantMode.BINARY_1BIT, {}),
    (QuantMode.BINARY_1BIT, {"binary_output_scale": True}),
    (QuantMode.TERNARY_158BIT, {})],
    ids=["fp", "1bit", "1bit-output-scale", "1.58bit"])
def test_loaded_student_is_pinned_on_its_saved_latent_weights(tmp_path, mode,
                                                              kw):
    stack = make_stack(mode=mode, seed=5, **kw)
    stack.freeze_quantization()
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    assert set(json.loads(path.read_text())) == ENVELOPE
    loaded, _ = load_student(path)
    assert list(loaded.frozen) == stack.linear_names
    for name, got in loaded.frozen.items():
        want = pin(stack.params[name + ".w"], mode, **kw)
        for field in ("codes", "weight"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes(), (name, field)
        assert (got.scale, got.parts) == (want.scale, want.parts), name
    tokens = np.array([[2, 4, 5], [6, 1, 3]])
    want = stack.logits(solve_fixed_point(stack, tokens).asr_star[-1])
    got = loaded.logits(solve_fixed_point(loaded, tokens).asr_star[-1])
    assert got.tobytes() == want.tobytes()


def test_save_student_rejects_bad_stage(tmp_path):
    with pytest.raises(CheckpointError):
        save_student(make_stack(), "bogus", tmp_path / "x.json")


def test_checkpoint_files_are_deterministic(tmp_path):
    stack = make_stack()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_student(stack, "kd", p1)
    save_student(stack, "kd", p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_save_load_save_is_byte_identical(tmp_path, kind):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    if kind == "student":
        save_student(make_stack(), "kd", first)
        save_student(load_student(first)[0], "kd", second)
    else:
        teacher = make_teacher()
        metrics = {"dev_accuracy": 0.75}
        save_teacher(teacher, first, metrics=metrics)
        save_teacher(load_teacher(first), second, metrics=metrics)
    assert first.read_bytes() == second.read_bytes()


def test_load_student_rejects_wrong_kind(tmp_path):
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                         intermediate_dim=12, num_heads=2,
                                         num_layers=1, max_len=6),
                           np.random.default_rng(0))
    path = tmp_path / "t.json"
    save_teacher(teacher, path)
    with pytest.raises(CheckpointError):
        load_student(path)


def test_load_student_rejects_shape_mismatch(tmp_path):
    stack = make_stack()
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    obj = json.loads(path.read_text())
    obj["params"]["cls.b"] = encode_array(np.zeros(3))  # one value too long
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match=re.escape(
            "parameter cls.b: 24 bytes, not the 16 of 2 float64 values")):
        load_student(path)


# the values a text float could lose: a sign, the smallest subnormal, range
EXTREMES = [-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1]


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_every_parameter_round_trips_bitwise(tmp_path, kind):
    model = make_stack() if kind == "student" else make_teacher()
    model.params["tok_emb"][0, :len(EXTREMES)] = EXTREMES
    model.params["cls.b"][...] = -0.0
    path = tmp_path / "ckpt.json"
    _, load = _save_kind(kind, path, model)
    loaded = load(path)
    assert list(loaded.params) == list(model.params)
    for k, v in model.params.items():
        assert loaded.params[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize("kind", ["student", "teacher"])
@pytest.mark.parametrize("value,message", [
    ([0.0, 0.0], "parameter cls.b is a list, not a base64 string"),
    (None, "parameter cls.b is a NoneType, not a base64 string"),
    ("AAAA*AAA", "parameter cls.b is not valid base64"),
    ("\u00e9AAA", "parameter cls.b is not valid base64"),
    (base64.b64encode(bytes(15)).decode(),
     "parameter cls.b: 15 bytes, not the 16 of 2 float64 values"),
    (encode_array(np.zeros(1)),
     "parameter cls.b: 8 bytes, not the 16 of 2 float64 values"),
    (encode_array([0.0, np.inf]), "parameter cls.b is not finite"),
], ids=["list", "null", "bad-char", "non-ascii", "15-bytes", "too-short",
        "inf"])
def test_malformed_parameter_is_checkpoint_error_naming_it(tmp_path, kind,
                                                           value, message):
    path = tmp_path / "ckpt.json"
    _, load = _save_kind(kind, path)
    _rewrite(path, lambda obj: obj["params"].update({"cls.b": value}))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_version_1_checkpoint_names_both_versions(tmp_path, kind):
    path = tmp_path / "ckpt.json"
    model, load = _save_kind(kind, path)

    def as_version_1(obj):  # parameters as the nested lists version 1 wrote
        obj["format_version"] = 1
        obj["params"] = {k: v.tolist() for k, v in model.params.items()}

    _rewrite(path, as_version_1)
    assert FORMAT_VERSION == 3
    with pytest.raises(CheckpointError, match=re.escape(
            f"unsupported {kind} checkpoint (format_version 1; this eqspike "
            "reads 3)")):
        load(path)
    # version 2 wrote a teacher as version 3 does, a student with codes too
    if kind == "student":
        path = STUDENT_V2
        assert "quant" in json.loads(path.read_text())
    else:
        _save_kind(kind, path, model)
        _rewrite(path, lambda obj: obj.update(format_version=2))
    with pytest.raises(CheckpointError, match=re.escape(
            f"unsupported {kind} checkpoint (format_version 2; this eqspike "
            "reads 3)")):
        load(path)


def test_default_student_checkpoint_stays_binary_sized(tmp_path):
    # base64 float64 is 32/3 bytes a value; a text float takes about 20
    cfg = pl.load_config(None, {})
    tok, _train, _dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    obj = json.loads(path.read_text())
    obj["params"] = dict.fromkeys(obj["params"], "")
    envelope = len(json.dumps(obj, sort_keys=True, separators=(",", ":"))) + 1
    assert path.stat().st_size <= envelope + 11 * stack.params.flat.size


def test_teacher_roundtrip(tmp_path):
    teacher = make_teacher()
    path = tmp_path / "t.json"
    save_teacher(teacher, path, metrics={"dev_accuracy": 0.75})
    loaded = load_teacher(path)
    for k, v in teacher.params.items():
        np.testing.assert_array_equal(loaded.params[k], v)
    assert json.loads(path.read_text())["metrics"]["dev_accuracy"] == 0.75


def test_load_teacher_rejects_student_file(tmp_path):
    path = tmp_path / "s.json"
    save_student(make_stack(), "init", path)
    with pytest.raises(CheckpointError):
        load_teacher(path)


def test_unfrozen_save_writes_stats_matching_its_codes(tmp_path):
    stack = make_stack(seed=4)
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    loaded, _ = load_student(path)
    assert stack.frozen is None
    for name, pinned in loaded.frozen.items():
        assert pinned.scale == float(np.abs(stack.params[name + ".w"]).mean())
    tokens = np.array([[2, 4, 5], [6, 1, 3]])
    want = solve_fixed_point(stack, tokens)
    got = solve_fixed_point(loaded, tokens)
    for a, b in zip(got.asr_star, want.asr_star):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", [QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=lambda m: m.value)
def test_refrozen_stack_solves_on_its_new_codes(tmp_path, mode):
    stack = make_stack(mode=mode, seed=2)
    stack.freeze_quantization()
    old = [pinned.weight for pinned in stack.frozen.values()]
    stack.set_quant_mode(mode)  # unfreezes, as `eqspike finetune` does
    assert stack.frozen is None
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    training_step(stack, batch, AdamState(lr=0.2))
    stack.freeze_quantization()
    assert any(not np.array_equal(pinned.weight, w)
               for pinned, w in zip(stack.frozen.values(), old))
    tokens = np.array([[2, 4, 5], [6, 1, 3]])
    got = solve_fixed_point(stack, tokens)
    path = tmp_path / "ckpt.json"
    save_student(stack, "finetuned", path)
    loaded, _ = load_student(path)
    want = solve_fixed_point(loaded, tokens)
    for a, b in zip(got.asr_star, want.asr_star):
        np.testing.assert_array_equal(a, b)


def test_frozen_ternary_simulation_is_unchanged_by_round_trip(tmp_path):
    stack = make_stack(seed=3)
    tokens = np.array([2, 4, 5, 1])
    runs = []
    for step in ("latent", "frozen", "loaded"):
        if step == "frozen":
            stack.freeze_quantization()
        elif step == "loaded":
            save_student(stack, "finetuned", tmp_path / "ckpt.json")
            stack, _ = load_student(tmp_path / "ckpt.json")
        counter = OpCounter()
        logits, asrs, _ = stack.temporal_simulate(tokens, T=30, counter=counter)
        runs.append((logits, asrs, counter.per_layer))
    for logits, asrs, per_layer in runs[1:]:
        np.testing.assert_array_equal(logits, runs[0][0])
        for name, want in runs[0][1].items():
            np.testing.assert_array_equal(asrs[name], want, err_msg=name)
        assert per_layer == runs[0][2]


def _assert_views_of_one_buffer(model):
    """Every entry and alias of `model` is a view of its buffer."""
    params = model.params
    for name, value in params.items():
        assert np.shares_memory(value, params.flat), name
    if isinstance(model, EncoderStack):
        for alias, name in (("cls_w", "cls.w"), ("cls_b", "cls.b")):
            assert getattr(model, alias) is params[name]
            assert np.shares_memory(getattr(model, alias), params.flat)


def test_parameters_stay_views_of_one_buffer(tmp_path):
    cfg = pl.load_config(None, {
        "model": {"hidden_dim": 8, "intermediate_dim": 12, "max_len": 8},
        "teacher": {"hidden_dim": 8, "intermediate_dim": 12},
        "train": {"batch_size": 8, "finetune_epochs": 2},
        "data": {"train_size": 16, "dev_size": 8}})
    tok, train, dev, labels = pl.make_dataset(cfg)
    teacher = pl.build_teacher(cfg, tok, num_labels=len(labels))
    save_teacher(teacher, tmp_path / "teacher.json")
    _assert_views_of_one_buffer(load_teacher(tmp_path / "teacher.json"))
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    stack.freeze_quantization()
    _assert_views_of_one_buffer(stack)
    save_student(stack, "kd", tmp_path / "student.json")
    stack, _ = load_student(tmp_path / "student.json")
    _assert_views_of_one_buffer(stack)
    stack.set_quant_mode(QuantMode.BINARY_1BIT)
    _assert_views_of_one_buffer(stack)
    pl.finetune_student(cfg, stack, train, dev)  # restores the best epoch
    _assert_views_of_one_buffer(stack)


def test_mode_switch_after_freeze_saves_the_new_modes_statistics(tmp_path):
    cfg = pl.load_config(None, {})  # the default ternary shape, seed 0
    tok, _train, _dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    stack.freeze_quantization()
    stack.set_quant_mode(QuantMode.BINARY_1BIT)
    path = tmp_path / "ckpt.json"
    save_student(stack, "kd", path)
    loaded, _ = load_student(path)
    assert loaded.cfg.quant_mode is QuantMode.BINARY_1BIT
    # an unscaled binary linear's scale is 1.0: none of the ternary pin's
    names = [f"blk{i}.{nm}" for i in range(cfg["model"]["num_layers"])
             for nm in ("q", "k", "v", "o", "ff1", "ff2")]
    assert {k: pinned.scale for k, pinned in loaded.frozen.items()} == \
        dict.fromkeys(names, 1.0)


def test_save_refuses_a_frozen_stack_trained_since_it_froze(tmp_path):
    stack = make_stack()  # d=8, ternary
    stack.freeze_quantization()
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    training_step(stack, batch, AdamState(lr=0.2))
    moved = [name for name, held in stack.frozen.items()
             if not np.array_equal(held.codes, pin(
                 stack.params[name + ".w"], QuantMode.TERNARY_158BIT).codes)]
    assert moved[0] == "blk0.q"
    path = tmp_path / "ckpt.json"
    with pytest.raises(CheckpointError, match=r"frozen linear blk0\.q:"):
        save_student(stack, "finetuned", path)
    assert not path.exists()
    stack.freeze_quantization()  # pinned afresh on the trained weights
    save_student(stack, "finetuned", path)
    loaded, _ = load_student(path)
    for name, held in stack.frozen.items():
        np.testing.assert_array_equal(loaded.frozen[name].codes, held.codes)
