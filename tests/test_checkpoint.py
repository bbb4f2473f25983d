import json

import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike.checkpoint import (CheckpointError, load_student, load_teacher,
                                save_student, save_teacher)
from eqspike.equilibrium import SolverConfig, solve_fixed_point
from eqspike.implicit_grad import training_step
from eqspike.model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from eqspike.numerics import AdamState
from eqspike.quantizer import OpCounter, QuantMode


def make_stack(mode=QuantMode.TERNARY_158BIT, seed=0):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(seed))


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
    obj = json.loads(path.read_text())
    assert obj["quant"]["layers"] == {}
    loaded, _ = load_student(path)
    assert loaded.cfg.quant_mode is QuantMode.FULL_PRECISION


def test_save_student_rejects_bad_stage(tmp_path):
    with pytest.raises(CheckpointError):
        save_student(make_stack(), "bogus", tmp_path / "x.json")


def test_checkpoint_files_are_deterministic(tmp_path):
    stack = make_stack()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_student(stack, "kd", p1)
    save_student(stack, "kd", p2)
    assert p1.read_bytes() == p2.read_bytes()


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
    obj["params"]["cls.b"] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError):
        load_student(path)


def test_teacher_roundtrip(tmp_path):
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                         intermediate_dim=12, num_heads=2,
                                         num_layers=2, max_len=6),
                           np.random.default_rng(1))
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
        assert pinned.beta == float(np.abs(stack.params[name + ".w"]).mean())
    tokens, scfg = np.array([[2, 4, 5], [6, 1, 3]]), SolverConfig(tol=1e-12)
    want = solve_fixed_point(stack, tokens, scfg)
    got = solve_fixed_point(loaded, tokens, scfg)
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
    tokens, scfg = np.array([[2, 4, 5], [6, 1, 3]]), SolverConfig(tol=1e-12)
    got = solve_fixed_point(stack, tokens, scfg)
    path = tmp_path / "ckpt.json"
    save_student(stack, "finetuned", path)
    loaded, _ = load_student(path)
    want = solve_fixed_point(loaded, tokens, scfg)
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
        for alias, name in (("tok_emb", "tok_emb"), ("pos_emb", "pos_emb"),
                            ("cls_w", "cls.w"), ("cls_b", "cls.b")):
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
    layers = json.loads(path.read_text())["quant"]["layers"]
    # an unscaled binary linear has no beta: none of the ternary pin's
    names = [f"blk{i}.{nm}" for i in range(cfg["model"]["num_layers"])
             for nm in ("q", "k", "v", "o", "ff1", "ff2")]
    assert {k: entry["beta"] for k, entry in layers.items()} == \
        dict.fromkeys(names, 0.0)
    loaded, _ = load_student(path)
    assert loaded.cfg.quant_mode is QuantMode.BINARY_1BIT
