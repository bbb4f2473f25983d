import numpy as np
import pytest

from eqspike import distill
from eqspike.data import stack_by_length
from eqspike.distill import (KdConfig, KdConfigError, KdReport,
                             _init_projection, default_layer_map,
                             evaluate_kd_loss, kd_loss, run_distillation,
                             teacher_targets)
from eqspike.model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from eqspike.numerics import AdamState
from eqspike.quantizer import QuantMode
from oracles import uncached_distillation


def test_default_layer_map_same_depth():
    assert default_layer_map(2, 2) == [0, 1]
    assert default_layer_map(4, 4) == [0, 1, 2, 3]


def test_default_layer_map_shallow_student():
    # 2-block student against a 4-block teacher skips to blocks 1 and 3
    assert default_layer_map(2, 4) == [1, 3]
    assert default_layer_map(3, 6) == [1, 3, 5]
    assert default_layer_map(1, 5) == [4]


def test_layer_map_must_be_nondecreasing():
    with pytest.raises(KdConfigError):
        KdConfig(layer_map=[1, 0])


def test_loss_weights_length_checked():
    with pytest.raises(KdConfigError):
        KdConfig(layer_map=[0, 1], loss_weights=[1.0])


def test_build_rejects_map_beyond_teacher():
    with pytest.raises(KdConfigError):
        KdConfig.build(4, 4, 2, 2, np.random.default_rng(0), layer_map=[0, 5])


@pytest.mark.parametrize("layer_map", [[-1, 0], [0.5, 1]],
                         ids=["negative", "non-integer"])
def test_build_rejects_non_index_teacher_entry(layer_map):
    # -1 would silently index the teacher's last block, 0.5 nothing at all
    with pytest.raises(KdConfigError, match="teacher block indices"):
        KdConfig.build(4, 4, 2, 2, np.random.default_rng(0),
                       layer_map=layer_map)


@pytest.mark.parametrize("layer_map", [[-1, 0], [0.5, 1]],
                         ids=["negative", "non-integer"])
def test_constructor_rejects_non_index_teacher_entry(layer_map):
    # neither check needs the depths that only `build` knows
    with pytest.raises(KdConfigError, match="teacher block indices"):
        KdConfig(layer_map=layer_map)


@pytest.mark.parametrize("layer_map", [[0], [0, 1, 1]])
def test_build_rejects_map_not_matching_student_depth(layer_map):
    with pytest.raises(KdConfigError, match="per student block"):
        KdConfig.build(4, 4, 2, 2, np.random.default_rng(0),
                       layer_map=layer_map)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.5])
def test_build_rejects_non_finite_or_negative_loss_weight(weight):
    with pytest.raises(KdConfigError, match="finite and >= 0"):
        KdConfig.build(4, 4, 2, 2, np.random.default_rng(0),
                       loss_weights=[1.0, weight])


def test_zero_loss_weight_is_legal():
    cfg = KdConfig.build(4, 4, 2, 2, np.random.default_rng(0),
                         loss_weights=[0.0, 1.0])
    assert cfg.loss_weights == [0.0, 1.0]


def test_projection_identity_padding():
    p = _init_projection(3, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(p[:, :3], np.eye(3))
    np.testing.assert_array_equal(p[:, 3:], 0.0)
    wide = _init_projection(6, 4, np.random.default_rng(0))
    assert wide.shape == (6, 4)


def test_kd_loss_zero_when_projection_reconstructs_teacher():
    rng = np.random.default_rng(1)
    teacher_h = [rng.normal(size=(4, 6))]
    cfg = KdConfig.build(6, 6, 1, 1, rng)
    # identity projection and matching rates -> exactly zero loss
    total, per_pair, _ = kd_loss([teacher_h[0].copy()], teacher_h, cfg)
    assert total == 0.0
    assert per_pair == [0.0]


def test_kd_loss_weighted_sum():
    rng = np.random.default_rng(2)
    t0, t1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    cfg = KdConfig.build(4, 4, 2, 2, rng, loss_weights=[2.0, 3.0])
    s = [np.zeros((3, 4)), np.zeros((3, 4))]
    total, per_pair, _ = kd_loss(s, [t0, t1], cfg)
    assert total == pytest.approx(2 * per_pair[0] + 3 * per_pair[1])


def test_kd_loss_on_a_config_without_projections_names_them():
    # KdConfig built directly, not by KdConfig.build, has no projections
    cfg = KdConfig(layer_map=[0, 1])
    with pytest.raises(KdConfigError, match="kd.proj0, kd.proj1"):
        kd_loss([np.zeros((3, 4))] * 2, [np.zeros((3, 4))] * 2, cfg)


def test_kd_loss_requires_full_mapping():
    cfg = KdConfig.build(4, 4, 2, 2, np.random.default_rng(0))
    with pytest.raises(KdConfigError):
        kd_loss([np.zeros((3, 4))], [np.zeros((3, 4))] * 2, cfg)


def test_kd_report_csv(tmp_path):
    report = KdReport()
    report.append(0, [1.5, 2.5], 4.0)
    report.append(1, [1.0, 2.0], 3.0)
    path = tmp_path / "kd.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,pair_index,mse,total"
    assert lines[1] == "0,0,1.5,4"
    assert len(lines) == 5


def _tiny_pair(seed=0):
    scfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                       num_heads=2, num_layers=2, max_len=6, num_labels=2,
                       quant_mode=QuantMode.TERNARY_158BIT)
    stack = EncoderStack(scfg, np.random.default_rng(seed))
    tcfg = TeacherConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                         num_heads=2, num_layers=2, max_len=6, num_labels=2)
    teacher = TeacherModel(tcfg, np.random.default_rng(seed + 1))
    return stack, teacher


def test_run_distillation_reduces_loss_and_reports_epoch_zero():
    stack, teacher = _tiny_pair()
    data = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1),
            (np.array([2, 8, 9]), 0)]
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(3))
    report = run_distillation(stack, teacher, data, epochs=5, cfg=cfg,
                              optimizer=AdamState(lr=5e-3))
    assert report.epochs[0][0] == 0
    assert len(report.epochs) == 6
    assert report.epochs[-1][2] < report.epochs[0][2]


def test_run_distillation_zero_epochs_untouched():
    stack, teacher = _tiny_pair(seed=5)
    before = {k: v.copy() for k, v in stack.params.items()}
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(0))
    report = run_distillation(stack, teacher, [(np.array([2, 4]), 0)],
                              epochs=0, cfg=cfg, optimizer=AdamState())
    assert len(report.epochs) == 1
    for k, v in stack.params.items():
        np.testing.assert_array_equal(v, before[k])


def test_evaluate_kd_loss_averages_over_dataset():
    stack, teacher = _tiny_pair(seed=6)
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(0))
    data = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    targets = teacher_targets(teacher)
    total, pairs = evaluate_kd_loss(stack, data, cfg, targets)
    singles = [evaluate_kd_loss(stack, [ex], cfg, targets)[0] for ex in data]
    assert total == pytest.approx(np.mean(singles))
    assert len(pairs) == 2


def _items(n, length, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.integers(2, 11, size=length), int(rng.integers(2)))
            for _ in range(n)]


def _distinct_groups(data, batch_size):
    """The distinct stacked token batches a run can ask the teacher about."""
    batches = [data] + [data[s:s + batch_size]
                        for s in range(0, len(data), batch_size)]
    return {(t.shape, t.tobytes()) for b in batches
            for t, _ in stack_by_length(b)}


def _counting_teacher(monkeypatch):
    calls = []
    forward = distill.teacher_forward

    def counted(teacher, tokens):
        calls.append(tokens.shape)
        return forward(teacher, tokens)

    monkeypatch.setattr(distill, "teacher_forward", counted)
    return calls


@pytest.mark.parametrize("epochs,expected", [(2, 5), (0, 1)])
def test_run_distillation_one_teacher_pass_per_distinct_batch(
        monkeypatch, epochs, expected):
    # 64 equal-length items in batches of 16: 4 training batches + the
    # dataset group evaluated at every epoch
    calls = _counting_teacher(monkeypatch)
    stack, teacher = _tiny_pair(seed=7)
    data = _items(64, 4)
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(0))
    run_distillation(stack, teacher, data, epochs=epochs, cfg=cfg,
                     optimizer=AdamState(lr=5e-3), batch_size=16)
    assert len(calls) == expected


def test_run_distillation_mixed_lengths_one_pass_per_distinct_group(
        monkeypatch):
    calls = _counting_teacher(monkeypatch)
    stack, teacher = _tiny_pair(seed=8)
    data = _items(6, 3, seed=1) + _items(5, 5, seed=2) + _items(6, 3, seed=3)
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(0))
    run_distillation(stack, teacher, data, epochs=3, cfg=cfg,
                     optimizer=AdamState(lr=5e-3), batch_size=4)
    assert len(calls) == len(_distinct_groups(data, 4))


def _run_pair(seed, teacher, data, runner, epochs=2):
    stack, _ = _tiny_pair(seed=seed)
    cfg = KdConfig.build(8, 8, 2, 2, np.random.default_rng(seed))
    report = runner(stack, teacher, data, epochs, cfg, AdamState(lr=5e-3),
                    batch_size=4)
    return report, stack, cfg


def _assert_runs_bitwise_equal(got, want):
    (r_got, s_got, c_got), (r_want, s_want, c_want) = got, want
    assert [e for e, _, _ in r_got.epochs] == [e for e, _, _ in r_want.epochs]
    np.testing.assert_array_equal([p for _, p, _ in r_got.epochs],
                                  [p for _, p, _ in r_want.epochs])
    np.testing.assert_array_equal([t for _, _, t in r_got.epochs],
                                  [t for _, _, t in r_want.epochs])
    want_params = s_want.params
    for name, value in s_got.params.items():
        np.testing.assert_array_equal(value, want_params[name])
    assert list(c_got.projections) == list(c_want.projections)
    for name, value in c_got.projections.items():
        np.testing.assert_array_equal(value, c_want.projections[name])


def test_shared_teacher_targets_bitwise_equal_uncached_run():
    _, teacher = _tiny_pair(seed=9)
    data = _items(10, 4, seed=4) + _items(3, 5, seed=5)
    _assert_runs_bitwise_equal(
        _run_pair(9, teacher, data, run_distillation),
        _run_pair(9, teacher, data, uncached_distillation))


def test_teacher_targets_do_not_leak_across_runs():
    _, teacher = _tiny_pair(seed=10)
    data = _items(8, 4, seed=6)
    first, _, _ = _run_pair(10, teacher, data, run_distillation)
    for name, value in teacher.params.items():
        if name.endswith(".w"):
            value *= 1.5  # the next run sees a changed teacher
    second = _run_pair(10, teacher, data, run_distillation)
    assert second[0].epochs[0][2] != first.epochs[0][2]
    _assert_runs_bitwise_equal(
        second, _run_pair(10, teacher, data, uncached_distillation))
