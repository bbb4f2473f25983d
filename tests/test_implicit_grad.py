import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import eqspike
import oracles as tp
from eqspike import implicit_grad, numerics
from eqspike import pipeline as pl
from eqspike.distill import KdConfig, kd_loss_builder, teacher_targets
from eqspike.equilibrium import solve_fixed_point
from eqspike.implicit_grad import batch_gradients, ce_loss, training_step
from eqspike.autodiff import cross_entropy, linear, linear_backward
from eqspike.model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from eqspike.numerics import AdamState, FlatParams, NumericError
from eqspike.quantizer import QuantMode
from oracles import (TensorAdam, dense_adjoint_solve, example_gradient_dict,
                     inline_teacher_gradients, inline_teacher_training,
                     per_tensor_training_step, taped_ce_loss,
                     taped_example_gradients, taped_kd_loss_builder)


def small_stack(seed=0, mode=QuantMode.FULL_PRECISION, num_layers=2,
                num_labels=2):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=num_layers, max_len=6,
                      num_labels=num_labels, quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(seed))


def by_name(buffers):
    """name -> gradient over `batch_gradients`' or `training_step`'s
    buffers."""
    return {name: g for buf in buffers for name, g in buf.items()}


def oracle_gradients(stack, tokens, label, taped_builder, extra_params):
    """Implicit-function gradients with the adjoint solved densely.

    a* enters the taped loss as constant leaves; v = dL/da* + (df/da)^T v
    is solved by `dense_adjoint_solve` on the rate map f taped at a* (the
    reference's encoding and blocks); v^T df/dtheta is then added.
    """
    sol = solve_fixed_point(stack, tokens)
    a_leaves = [tp.Tensor(a.copy(), requires_grad=True) for a in sol.asr_star]
    head = {"cls.w": tp.Tensor(stack.cls_w, requires_grad=True),
            "cls.b": tp.Tensor(stack.cls_b, requires_grad=True),
            **{k: tp.Tensor(v, requires_grad=True)
               for k, v in extra_params.items()}}
    loss = taped_builder(tokens, label, a_leaves, head)
    tp.backward([loss], [1.0])
    g = [np.zeros_like(a.data) if a.grad is None else a.grad.copy()
         for a in a_leaves]
    grads = {k: t.grad.copy() for k, t in head.items() if t.grad is not None}

    leaves = tp.param_tensors(stack)
    state = [tp.Tensor(a.copy(), requires_grad=True) for a in sol.asr_star[:-1]]
    inputs = [tp.taped_encoding(stack, tokens, leaves)] + state
    weights = tp.taped_weights(stack, leaves)
    outputs = [tp.taped_block(stack, i, x, leaves, weights)
               for i, x in enumerate(inputs)]

    def jacobian_vjp(v):
        tp.backward(outputs, v)
        return [s.grad.copy() if s.grad is not None else np.zeros_like(s.data)
                for s in state] + [np.zeros_like(sol.asr_star[-1])]

    v = dense_adjoint_solve(g, jacobian_vjp)
    tp.backward(outputs, v)
    for k, leaf in leaves.items():
        if leaf.grad is not None:
            grads[k] = grads.get(k, 0.0) + leaf.grad
    return grads, float(loss.data)


def kd_builders(stack, loss_weights=None):
    """The KD loss builder of a small teacher, its taped reference and the
    projections."""
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=6,
                                         intermediate_dim=8, num_heads=2,
                                         num_layers=2, max_len=6),
                           np.random.default_rng(9))
    kd = KdConfig.build(stack.cfg.hidden_dim, teacher.cfg.hidden_dim,
                        stack.cfg.num_layers, teacher.cfg.num_layers,
                        np.random.default_rng(10), loss_weights=loss_weights)
    targets = teacher_targets(teacher)
    return (kd_loss_builder(kd, targets), taped_kd_loss_builder(kd, targets),
            kd.projections)


def kd_builder(stack):
    builder, _taped, projections = kd_builders(stack)
    return builder, projections


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["ce", "kd"])
def test_example_gradients_match_dense_adjoint_oracle(mode, kind):
    stack = small_stack(seed=2, mode=mode)
    builder, taped, extra = (ce_loss, taped_ce_loss, {}) if kind == "ce" \
        else kd_builders(stack)
    tokens, label = np.array([2, 4, 5]), 1
    value, grads = example_gradient_dict(stack, tokens, label, builder, extra)
    want, loss = oracle_gradients(stack, tokens, label, taped, extra)
    assert value == loss
    assert set(grads) == set(want) | {"cls.w", "cls.b"}
    for name in set(grads) - set(want):  # unreached by the KD loss
        assert not grads[name].any(), name
    for name, grad in want.items():
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-10,
                                   err_msg=name)


CLOSED_FORM_CASES = {
    "student-ce": dict(kind="ce"),
    "student-kd-L2": dict(kind="kd"),
    # blocks 0 and 1 feed the next block's q, k, v and residual and the KD
    # term: five consumers, summed in the tape's order
    "student-kd-L3": dict(kind="kd", num_layers=3,
                          loss_weights=[0.5, 2.0, 1.25]),
    "student-ce-3-labels": dict(kind="ce", num_labels=3),
}


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_closed_form_gradients_equal_taped_oracle_bitwise(mode, case):
    kw = dict(CLOSED_FORM_CASES[case])
    kind, loss_weights = kw.pop("kind"), kw.pop("loss_weights", None)
    stack = small_stack(seed=14, mode=mode, **kw)
    if kind == "ce":
        builder, taped, extra = ce_loss, taped_ce_loss, {}
    else:
        builder, taped, extra = kd_builders(stack, loss_weights)
    rng = np.random.default_rng(15)
    for tokens, labels in ((rng.integers(0, 11, size=(5, 6)),
                            rng.integers(0, stack.cfg.num_labels, size=5)),
                           (np.array([2, 4, 5]), 1)):
        got_loss, got = example_gradient_dict(stack, tokens, labels, builder,
                                              extra)
        want_loss, want = taped_example_gradients(stack, tokens, labels, taped,
                                                  extra)
        assert got_loss == want_loss
        assert got.keys() == want.keys() | {"cls.w", "cls.b"}
        assert ("cls.w" in want) == (kind == "ce")
        for name in got.keys() - want.keys():  # KD: the head
            assert not got[name].any(), name
        for name, grad in want.items():
            np.testing.assert_array_equal(got[name], grad, err_msg=name)


def test_closed_form_teacher_gradients_equal_taped_oracle_bitwise():
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                         intermediate_dim=12, num_heads=2,
                                         num_layers=2, max_len=6),
                           np.random.default_rng(16))
    rng = np.random.default_rng(17)
    tokens, labels = rng.integers(0, 11, size=(5, 6)), rng.integers(0, 2, size=5)
    got_loss, got = example_gradient_dict(teacher, tokens, labels, ce_loss, {})
    want_loss, want = taped_example_gradients(teacher, tokens, labels,
                                              taped_ce_loss, {})
    assert got_loss == want_loss and got.keys() == want.keys()
    for name, grad in want.items():
        np.testing.assert_array_equal(got[name], grad, err_msg=name)


def test_example_gradients_match_finite_differences():
    # End-to-end: d(loss at equilibrium)/d(parameter) via the taped forward
    # against central differences with the equilibrium re-solved per probe.
    stack = small_stack(seed=3)
    tokens = np.array([2, 4, 5])
    label = 1
    _, grads = example_gradient_dict(stack, tokens, label, ce_loss, {})

    def loss_at(name, idx, value):
        params = stack.params
        keep = params[name].reshape(-1)[idx]
        params[name].reshape(-1)[idx] = value
        s = solve_fixed_point(stack, tokens)
        logits = stack.cls_w @ s.asr_star[-1][0] + stack.cls_b
        shifted = logits - logits.max()
        loss = -(shifted[label] - np.log(np.exp(shifted).sum()))
        params[name].reshape(-1)[idx] = keep
        return loss

    rng = np.random.default_rng(0)
    h = 1e-4
    for name in ("blk0.q.w", "blk1.ff2.w", "cls.w", "tok_emb"):
        flat = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=3, replace=False):
            x0 = stack.params[name].reshape(-1)[idx]
            fd = (loss_at(name, idx, x0 + h) - loss_at(name, idx, x0 - h)) / (2 * h)
            if abs(flat[idx]) > 1e-6:
                assert abs(fd - flat[idx]) / max(abs(fd), abs(flat[idx])) < 1e-2


def test_training_step_reduces_loss():
    stack = small_stack(seed=5)
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    adam = AdamState(lr=5e-3)
    first, _ = training_step(stack, batch, adam)
    for _ in range(20):
        last, _ = training_step(stack, batch, adam)
    assert last < first


def test_training_step_supports_extra_params():
    stack = small_stack(seed=6)
    proj = FlatParams({"proj": np.zeros((2, 2))})

    def loss(tokens, labels, a_blocks, params, grads):
        # cross-entropy of the classifier's logits times a trained matrix
        final = a_blocks[-1]
        logits = linear(final[..., 0, :], params["cls.w"], params["cls.b"])
        value, g = cross_entropy(logits @ params["proj"], labels)  # (1, C)
        grads["proj"] += logits.T @ g
        g_cls, g_w, g_b = linear_backward(g @ params["proj"].T,
                                          final[..., 0, :], params["cls.w"])
        grads["cls.w"] += g_w
        grads["cls.b"] += g_b
        g_final = np.zeros_like(final)
        g_final[..., 0, :] = g_cls
        return value, [None, g_final]

    adam = AdamState(lr=1e-2)
    before = proj["proj"].copy()
    training_step(stack, [(np.array([2, 4]), 1)], adam, loss=loss,
                  extra_params=proj)
    assert not np.array_equal(proj["proj"], before)


def test_non_finite_gradient_leaves_params_and_optimizer_untouched():
    stack = small_stack(seed=7)
    batch = [(np.array([2, 4]), 0)]
    adam = AdamState()
    training_step(stack, batch, adam)
    stack.cls_b[0] = np.inf  # the loss, and so every gradient, turns NaN
    before = {k: v.copy() for k, v in stack.params.items()}
    m = {k: v.copy() for k, v in adam.m.items()}
    v = {k: v.copy() for k, v in adam.v.items()}
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        training_step(stack, batch, adam)
    assert adam.step == 1
    for k, value in stack.params.items():
        np.testing.assert_array_equal(value, before[k], err_msg=k)
    assert adam.m.keys() == m.keys() == adam.v.keys() == v.keys() \
        == {tuple(stack.params.layout)}
    for k in m:
        np.testing.assert_array_equal(adam.m[k], m[k])
        np.testing.assert_array_equal(adam.v[k], v[k])


@pytest.mark.parametrize("kind", ["ce", "kd"])
def test_training_step_equals_per_tensor_oracle_bitwise(kind):
    # Adam over the flat buffers computes the bits of one update per
    # tensor, and the flat gradient sum those of the per-name sums
    got, want = (small_stack(seed=13, mode=QuantMode.TERNARY_158BIT)
                 for _ in range(2))
    (builder, extra), (oracle_builder, oracle_extra) = \
        ((ce_loss, {}), (ce_loss, {})) if kind == "ce" else \
        (kd_builder(got), kd_builder(want))
    head = got.params["cls.w"].copy()
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7, 8]), 1),
             (np.array([3, 9, 1]), 1), (np.array([4, 4, 6, 2]), 0)]
    adam, oracle = AdamState(lr=1e-2), TensorAdam(lr=1e-2)
    for _ in range(3):
        step_loss, buffers = training_step(got, batch, adam, builder, extra)
        ref_loss, ref = per_tensor_training_step(want, batch, oracle,
                                                 oracle_builder, oracle_extra)
        step = by_name(buffers)
        assert step_loss == ref_loss
        assert step.keys() == ref.keys()
        for name, grad in ref.items():
            np.testing.assert_array_equal(step[name], grad, err_msg=name)
    for name, value in {**want.params, **oracle_extra}.items():
        np.testing.assert_array_equal({**got.params, **extra}[name], value,
                                      err_msg=name)
    if kind == "kd":  # the loss never reaches the head: value and moments kept
        slot = got.params.layout["cls.w"][0]
        np.testing.assert_array_equal(got.params["cls.w"], head)
        assert not np.any(adam.m[tuple(got.params.layout)][slot])
        assert len(adam.m) == 2  # the stack's buffer and the projections'


def test_quantized_gradients_flow_to_latent_weights():
    stack = small_stack(seed=8, mode=QuantMode.TERNARY_158BIT)
    grads = by_name(training_step(stack, [(np.array([2, 4, 5]), 1)],
                                  AdamState())[1])
    assert "blk0.ff1.w" in grads
    assert np.any(grads["blk0.ff1.w"] != 0.0)


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["ce", "kd"])
def test_batch_gradients_equal_sum_of_example_gradients(mode, kind):
    stack = small_stack(seed=4, mode=mode)
    builder, extra = (ce_loss, {}) if kind == "ce" else kd_builder(stack)
    rng = np.random.default_rng(11)
    tokens, labels = rng.integers(0, 11, size=(8, 5)), rng.integers(0, 2, size=8)
    loss, grads = example_gradient_dict(stack, tokens, labels, builder, extra)
    rows = [example_gradient_dict(stack, t, int(lab), builder, extra)
            for t, lab in zip(tokens, labels)]
    assert loss == pytest.approx(sum(value for value, _ in rows), rel=1e-12)
    assert set(grads) == set(rows[0][1])
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, sum(g[name] for _, g in rows),
                                   rtol=1e-9, atol=1e-12, err_msg=name)


def test_training_step_on_mixed_lengths_equals_per_example_average():
    stack = small_stack(seed=12, mode=QuantMode.TERNARY_158BIT)
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7, 8]), 1),
             (np.array([3, 9, 1]), 1), (np.array([2, 5]), 0),
             (np.array([4, 4, 6, 2]), 0)]
    rows = [example_gradient_dict(stack, t, lab, ce_loss, {})
            for t, lab in batch]
    loss, buffers = training_step(stack, batch, AdamState())
    assert loss == pytest.approx(np.mean([value for value, _ in rows]),
                                 rel=1e-12)
    for name, grad in by_name(buffers).items():
        want = sum(g[name] for _, g in rows) / len(batch)
        np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-12,
                                   err_msg=name)


def small_teacher_run(batch_size):
    cfg = pl.load_config(None, {
        "model": {"max_len": 8},
        "teacher": {"hidden_dim": 8, "intermediate_dim": 12, "epochs": 2,
                    "batch_size": batch_size},
        "data": {"train_size": 48, "dev_size": 8}})
    tok, train, dev, labels = pl.make_dataset(cfg)
    return cfg, pl.build_teacher(cfg, tok, num_labels=len(labels)), train, dev


def test_train_teacher_equals_inline_tape_loop_bitwise_at_batch_16():
    # dividing the summed gradients by 16 after the backward rounds as
    # scaling the loss by 1/16 before it does: 16 is a power of two
    cfg, teacher, train, dev = small_teacher_run(16)
    cfg2, oracle, _, _ = small_teacher_run(16)
    pl.train_teacher(cfg, teacher, train, dev)
    inline_teacher_training(cfg2, oracle, train)
    for name, value in oracle.params.items():
        np.testing.assert_array_equal(teacher.params[name], value,
                                      err_msg=name)


def test_teacher_batch_gradients_match_inline_tape_loop_at_batch_12():
    _cfg, teacher, train, _dev = small_teacher_run(12)
    # two length groups, so the inline loop also adds losses on its tape
    batch = train[:6] + [(tokens[:5], label) for tokens, label in train[6:12]]
    got = by_name(batch_gradients(teacher, batch)[1])
    want = inline_teacher_gradients(teacher, batch)
    assert set(got) == set(want)
    for name, grad in want.items():
        np.testing.assert_allclose(got[name], grad, rtol=0, atol=1e-14,
                                   err_msg=name)


def test_pipeline_chain_steps_adam_once_per_step(monkeypatch):
    # the call counts a traced `eqbench` train run asserts
    calls = Counter()
    modules = [importlib.import_module(f"eqspike.{m.name}")
               for m in pkgutil.iter_modules(eqspike.__path__)]
    for fn in (numerics.adam_step_many, implicit_grad.training_step):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod in modules:  # every binding, as `from .x import f` makes one
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    cfg = pl.load_config(None, {
        "model": {"hidden_dim": 8, "intermediate_dim": 12, "max_len": 8},
        "teacher": {"hidden_dim": 8, "intermediate_dim": 12, "epochs": 2,
                    "batch_size": 8},
        "train": {"batch_size": 8, "kd_epochs": 2, "finetune_epochs": 3},
        "data": {"train_size": 20, "dev_size": 8}})
    tok, train, dev, labels = pl.make_dataset(cfg)
    teacher = pl.build_teacher(cfg, tok, num_labels=len(labels))
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    steps = 3  # ceil(20 / 8) batches per epoch, for teacher and student
    pl.train_teacher(cfg, teacher, train, dev)
    assert calls == {"adam_step_many": 2 * steps}
    pl.distill_student(cfg, stack, teacher, train)
    pl.finetune_student(cfg, stack, train, dev)
    assert calls == {"adam_step_many": 2 * steps + (2 + 3) * steps,
                     "training_step": (2 + 3) * steps}
