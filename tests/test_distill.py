import numpy as np
import pytest

from eqspike import distill
from eqspike.data import batches, stack_by_length
from eqspike.distill import (KdReport, _init_projection, default_layer_map,
                             evaluate_kd_loss, init_projections, kd_loss,
                             run_distillation, teacher_targets)
from eqspike.model import (EncoderStack, StackConfig, TeacherConfig,
                           TeacherModel, teacher_forward)
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


DEPTHS = [(ls, lt) for ls in range(1, 7) for lt in range(1, 7)]


def _zero_student_pairs(hiddens, layer_map):
    # with zero student rates each pair's MSE is its teacher block's mean
    # square, scaled as kd_loss scales it
    return [float((hiddens[t] * hiddens[t]).sum() * (1.0 / hiddens[t].size))
            for t in layer_map]


def test_build_rejects_map_beyond_teacher():
    # no map is given any more: the one kd_loss derives stays inside the
    # teacher, ending on its last block, even under a deeper student
    for num_student, num_teacher in DEPTHS:
        layer_map = default_layer_map(num_student, num_teacher)
        assert max(layer_map) < num_teacher
        assert layer_map[-1] == num_teacher - 1
    rng = np.random.default_rng(4)
    hiddens = [rng.normal(size=(3, 4)) for _ in range(2)]
    projections = init_projections(4, 4, 4, rng)
    _, per_pair, _ = kd_loss([np.zeros((3, 4))] * 4, hiddens, projections)
    assert per_pair == _zero_student_pairs(hiddens, [0, 0, 1, 1])


@pytest.mark.parametrize("layer_map", [[1], [0, 1, 1]])
def test_build_rejects_map_not_matching_student_depth(layer_map):
    # a student of len(layer_map) blocks against a 2-block teacher: the
    # derived map and kd_loss's terms number the student's blocks
    num_student = len(layer_map)
    assert default_layer_map(num_student, 2) == layer_map
    rng = np.random.default_rng(5)
    hiddens = [rng.normal(size=(3, 4)) for _ in range(2)]
    projections = init_projections(4, 4, num_student, rng)
    _, per_pair, _ = kd_loss([np.zeros((3, 4))] * num_student, hiddens,
                             projections)
    assert per_pair == _zero_student_pairs(hiddens, layer_map)


@pytest.mark.parametrize("is_index", [lambda t: t >= 0,
                                      lambda t: isinstance(t, int)],
                         ids=["negative", "non-integer"])
def test_build_rejects_non_index_teacher_entry(is_index):
    # -1 would silently index the teacher's last block, 0.5 nothing at
    # all; the derived map holds neither at any depth
    for num_student, num_teacher in DEPTHS:
        assert all(map(is_index, default_layer_map(num_student, num_teacher)))


def test_layer_map_must_be_nondecreasing():
    for num_student, num_teacher in DEPTHS:
        layer_map = default_layer_map(num_student, num_teacher)
        assert layer_map == sorted(layer_map)


def test_projection_identity_padding():
    p = _init_projection(3, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(p[:, :3], np.eye(3))
    np.testing.assert_array_equal(p[:, 3:], 0.0)
    wide = _init_projection(6, 4, np.random.default_rng(0))
    assert wide.shape == (6, 4)


def test_init_projections_draw_one_per_student_block_in_order():
    got = init_projections(6, 4, 3, np.random.default_rng(1))
    want = np.random.default_rng(1)
    assert list(got) == ["kd.proj0", "kd.proj1", "kd.proj2"]
    for name in got:
        np.testing.assert_array_equal(got[name], _init_projection(6, 4, want))


def test_kd_loss_zero_when_projection_reconstructs_teacher():
    rng = np.random.default_rng(1)
    teacher_h = [rng.normal(size=(4, 6))]
    projections = init_projections(6, 6, 1, rng)
    # identity projection and matching rates -> exactly zero loss
    total, per_pair, _ = kd_loss([teacher_h[0].copy()], teacher_h,
                                 projections)
    assert total == 0.0
    assert per_pair == [0.0]


def test_kd_loss_sums_unit_weight_pairs_on_the_default_map():
    # a 2-block student against a 4-block teacher reads teacher blocks 1
    # and 3; with zero rates each pair's MSE is its block's mean square
    rng = np.random.default_rng(2)
    hiddens = [rng.normal(size=(3, 4)) for _ in range(4)]
    projections = init_projections(4, 4, 2, rng)
    total, per_pair, _ = kd_loss([np.zeros((3, 4))] * 2, hiddens, projections)
    assert per_pair == _zero_student_pairs(hiddens, [1, 3])
    assert total == per_pair[0] + per_pair[1]


def test_kd_loss_is_a_mean_squared_error_with_optional_gradients():
    projections = init_projections(2, 2, 1, np.random.default_rng(0))
    s, t = [np.array([[1.0, 3.0]])], [np.array([[0.0, 1.0]])]  # identity
    assert kd_loss(s, t, projections) == (2.5, [2.5], None)  # (1 + 4) / 2
    grads = {"kd.proj0": np.zeros((2, 2))}
    total, per_pair, g_blocks = kd_loss(s, t, projections, grads)
    assert (total, per_pair) == (2.5, [2.5])
    np.testing.assert_array_equal(g_blocks[0], [[1.0, 2.0]])  # 2 diff / 2
    np.testing.assert_array_equal(grads["kd.proj0"], [[1.0, 2.0], [3.0, 6.0]])


def test_kd_report_csv(tmp_path):
    report = KdReport()
    report.epochs.append((0, [1.5, 2.5], 4.0))
    report.epochs.append((1, [1.0, 2.0], 3.0))
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
    projections = init_projections(8, 8, 2, np.random.default_rng(3))
    report = run_distillation(stack, teacher, data, epochs=5,
                              projections=projections,
                              optimizer=AdamState(lr=5e-3))
    assert report.epochs[0][0] == 0
    assert len(report.epochs) == 6
    assert report.epochs[-1][2] < report.epochs[0][2]


def test_run_distillation_zero_epochs_untouched():
    stack, teacher = _tiny_pair(seed=5)
    before = {k: v.copy() for k, v in stack.params.items()}
    projections = init_projections(8, 8, 2, np.random.default_rng(0))
    report = run_distillation(stack, teacher, [(np.array([2, 4]), 0)],
                              epochs=0, projections=projections,
                              optimizer=AdamState())
    assert len(report.epochs) == 1
    for k, v in stack.params.items():
        np.testing.assert_array_equal(v, before[k])


def test_evaluate_kd_loss_averages_over_dataset():
    stack, teacher = _tiny_pair(seed=6)
    projections = init_projections(8, 8, 2, np.random.default_rng(0))
    data = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    targets = teacher_targets(teacher)
    total, pairs = evaluate_kd_loss(stack, data, projections, targets)
    singles = [evaluate_kd_loss(stack, [ex], projections, targets)[0]
               for ex in data]
    assert total == pytest.approx(np.mean(singles))
    assert len(pairs) == 2


def _items(n, length, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.integers(2, 11, size=length), int(rng.integers(2)))
            for _ in range(n)]


def _counting_teacher(monkeypatch):
    calls = []
    forward = distill.teacher_forward

    def counted(teacher, tokens):
        calls.append(tokens.shape)
        return forward(teacher, tokens)

    monkeypatch.setattr(distill, "teacher_forward", counted)
    return calls


@pytest.mark.parametrize("epochs,expected", [(2, 1), (0, 1)])
def test_run_distillation_one_teacher_pass_per_length_group(
        monkeypatch, epochs, expected):
    # 64 equal-length items in batches of 16: one length group, whose one
    # pass serves the 4 training batches and every epoch's evaluation
    calls = _counting_teacher(monkeypatch)
    stack, teacher = _tiny_pair(seed=7)
    data = _items(64, 4)
    projections = init_projections(8, 8, 2, np.random.default_rng(0))
    run_distillation(stack, teacher, data, epochs=epochs,
                     projections=projections, optimizer=AdamState(lr=5e-3),
                     batch_size=16)
    assert len(calls) == expected


def test_run_distillation_mixed_lengths_one_pass_per_length_group(
        monkeypatch):
    calls = _counting_teacher(monkeypatch)
    stack, teacher = _tiny_pair(seed=8)
    data = _items(6, 3, seed=1) + _items(5, 5, seed=2) + _items(6, 3, seed=3)
    projections = init_projections(8, 8, 2, np.random.default_rng(0))
    run_distillation(stack, teacher, data, epochs=3, projections=projections,
                     optimizer=AdamState(lr=5e-3), batch_size=4)
    # one pass per distinct length, over all of that length's items
    assert calls == [(12, 3), (5, 5)]
    assert len(calls) == len({len(t) for t, _ in data})


def test_batch_targets_are_read_only_rows_bitwise_their_own_pass(
        monkeypatch):
    _, teacher = _tiny_pair(seed=11)
    data = _items(6, 3, seed=1) + _items(5, 5, seed=2) + _items(6, 3, seed=3)
    targets = teacher_targets(teacher, data, batch_size=4)
    calls = _counting_teacher(monkeypatch)
    for batch in batches(data, 4):  # batches that straddle both lengths
        for tokens, _ in stack_by_length(batch):
            got = targets(tokens)
            want = teacher_forward(teacher, tokens)[0]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.base is not None and not g.flags.writeable
                assert g.tobytes() == w.tobytes()
    assert calls == []  # every batch was served from the up-front passes


def _run_pair(seed, teacher, data, runner, epochs=2):
    stack, _ = _tiny_pair(seed=seed)
    projections = init_projections(8, 8, 2, np.random.default_rng(seed))
    report = runner(stack, teacher, data, epochs, projections,
                    AdamState(lr=5e-3), batch_size=4)
    return report, stack, projections


def _assert_runs_bitwise_equal(got, want):
    (r_got, s_got, p_got), (r_want, s_want, p_want) = got, want
    assert [e for e, _, _ in r_got.epochs] == [e for e, _, _ in r_want.epochs]
    np.testing.assert_array_equal([p for _, p, _ in r_got.epochs],
                                  [p for _, p, _ in r_want.epochs])
    np.testing.assert_array_equal([t for _, _, t in r_got.epochs],
                                  [t for _, _, t in r_want.epochs])
    want_params = s_want.params
    for name, value in s_got.params.items():
        np.testing.assert_array_equal(value, want_params[name])
    assert list(p_got) == list(p_want)
    for name, value in p_got.items():
        np.testing.assert_array_equal(value, p_want[name])


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
