import numpy as np
import pytest

from eqspike import autodiff as ad
from eqspike.autodiff import Tensor
from eqspike.distill import KdConfig, kd_loss_builder, teacher_targets
from eqspike.equilibrium import SolverConfig, solve_fixed_point
from eqspike.implicit_grad import (ce_loss_builder, example_gradients, mse,
                                   training_step)
from eqspike.model import EncoderStack, StackConfig, TeacherConfig, TeacherModel
from eqspike.numerics import AdamState, NumericError
from eqspike.quantizer import QuantMode
from oracles import dense_adjoint_solve


def small_stack(seed=0, mode=QuantMode.FULL_PRECISION):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(seed))


def oracle_gradients(stack, tokens, label, loss_builder, extra_params):
    """Implicit-function gradients with the adjoint solved densely.

    a* enters the loss as constant leaves; v = dL/da* + (df/da)^T v is
    solved by `dense_adjoint_solve` on the rate map f built from the public
    `encoding` and `block_forward` at a*; v^T df/dtheta is then added.
    """
    sol = solve_fixed_point(stack, tokens, SolverConfig(tol=1e-12))
    a_leaves = [Tensor(a.copy(), requires_grad=True) for a in sol.asr_star]
    head = {"cls.w": Tensor(stack.cls_w, requires_grad=True),
            "cls.b": Tensor(stack.cls_b, requires_grad=True),
            **{k: Tensor(v, requires_grad=True) for k, v in extra_params.items()}}
    loss, _ = loss_builder(tokens, label, a_leaves, head)
    ad.backward([loss], [1.0])
    g = [np.zeros_like(a.data) if a.grad is None else a.grad.copy()
         for a in a_leaves]
    grads = {k: t.grad.copy() for k, t in head.items() if t.grad is not None}

    leaves = stack.param_tensors()
    state = [Tensor(a.copy(), requires_grad=True) for a in sol.asr_star[:-1]]
    inputs = [stack.encoding(tokens, leaves)] + state
    weights = stack.effective_weights(leaves)
    outputs = [stack.block_forward(i, x, leaves, weights)
               for i, x in enumerate(inputs)]

    def jacobian_vjp(v):
        ad.backward(outputs, v)
        return [s.grad.copy() if s.grad is not None else np.zeros_like(s.data)
                for s in state] + [np.zeros_like(sol.asr_star[-1])]

    v = dense_adjoint_solve(g, jacobian_vjp)
    ad.backward(outputs, v)
    for k, leaf in leaves.items():
        if leaf.grad is not None:
            grads[k] = grads.get(k, 0.0) + leaf.grad
    return grads, float(loss.data)


def kd_builder(stack):
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=6,
                                         intermediate_dim=8, num_heads=2,
                                         num_layers=2, max_len=6),
                           np.random.default_rng(9))
    kd = KdConfig.build(stack.cfg.hidden_dim, teacher.cfg.hidden_dim,
                        stack.cfg.num_layers, teacher.cfg.num_layers,
                        np.random.default_rng(10))
    return kd_loss_builder(kd, teacher_targets(teacher)), kd.projections


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["ce", "kd"])
def test_example_gradients_match_dense_adjoint_oracle(mode, kind):
    stack = small_stack(seed=2, mode=mode)
    builder, extra = (ce_loss_builder(stack), {}) if kind == "ce" \
        else kd_builder(stack)
    tokens, label = np.array([2, 4, 5]), 1
    bundle = example_gradients(stack, tokens, label, builder, extra)
    want, loss = oracle_gradients(stack, tokens, label, builder, extra)
    assert bundle.loss == loss
    assert set(bundle.grads) == set(want)
    for name, grad in want.items():
        np.testing.assert_allclose(bundle.grads[name], grad, rtol=0, atol=1e-10,
                                   err_msg=name)


def test_mse_value():
    with ad.no_grad():
        val = float(mse(ad.Tensor(np.array([1.0, 3.0])), np.array([0.0, 1.0])).data)
    assert val == pytest.approx((1.0 + 4.0) / 2)


def test_example_gradients_match_finite_differences():
    # End-to-end: d(loss at equilibrium)/d(parameter) via the taped forward
    # against central differences with the equilibrium re-solved per probe.
    stack = small_stack(seed=3)
    tokens = np.array([2, 4, 5])
    label = 1
    scfg = SolverConfig(tol=1e-11)
    bundle = example_gradients(stack, tokens, label, ce_loss_builder(stack), {})

    def loss_at(name, idx, value):
        params = stack.named_params()
        keep = params[name].reshape(-1)[idx]
        params[name].reshape(-1)[idx] = value
        s = solve_fixed_point(stack, tokens, scfg)
        logits = stack.cls_w @ s.asr_star[-1][0] + stack.cls_b
        shifted = logits - logits.max()
        loss = -(shifted[label] - np.log(np.exp(shifted).sum()))
        params[name].reshape(-1)[idx] = keep
        return loss

    rng = np.random.default_rng(0)
    h = 1e-4
    for name in ("blk0.q.w", "blk1.ff2.w", "cls.w", "tok_emb"):
        flat = bundle.grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=3, replace=False):
            x0 = stack.named_params()[name].reshape(-1)[idx]
            fd = (loss_at(name, idx, x0 + h) - loss_at(name, idx, x0 - h)) / (2 * h)
            if abs(flat[idx]) > 1e-6:
                assert abs(fd - flat[idx]) / max(abs(fd), abs(flat[idx])) < 1e-2


def test_training_step_reduces_loss():
    stack = small_stack(seed=5)
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7]), 1)]
    adam = AdamState(lr=5e-3)
    first = training_step(stack, batch, adam)
    for _ in range(20):
        last = training_step(stack, batch, adam)
    assert last.loss < first.loss


def test_training_step_supports_extra_params():
    stack = small_stack(seed=6)
    proj = {"proj": np.zeros((2, 2))}

    def builder(tokens, label, a_leaves, head_leaves):
        cls = ad.getitem(a_leaves[-1], (Ellipsis, 0, slice(None)))
        logits = ad.linear(cls, head_leaves["cls.w"], head_leaves["cls.b"])
        logits = ad.matmul(logits, head_leaves["proj"])
        loss = ad.cross_entropy(logits, label)
        return loss, {}

    adam = AdamState(lr=1e-2)
    before = proj["proj"].copy()
    training_step(stack, [(np.array([2, 4]), 1)], adam, loss_builder=builder,
                  extra_params=proj)
    assert not np.array_equal(proj["proj"], before)


def test_non_finite_gradient_leaves_params_and_optimizer_untouched():
    stack = small_stack(seed=7)
    batch = [(np.array([2, 4]), 0)]
    adam = AdamState()
    training_step(stack, batch, adam)
    stack.cls_b[0] = np.inf  # the loss, and so every gradient, turns NaN
    before = {k: v.copy() for k, v in stack.named_params().items()}
    m = {k: v.copy() for k, v in adam.m.items()}
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        training_step(stack, batch, adam)
    assert adam.step == 1
    for k, v in stack.named_params().items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)
        np.testing.assert_array_equal(adam.m[k], m[k], err_msg=k)


def test_quantized_gradients_flow_to_latent_weights():
    stack = small_stack(seed=8, mode=QuantMode.TERNARY_158BIT)
    bundle = training_step(stack, [(np.array([2, 4, 5]), 1)], AdamState())
    assert "blk0.ff1.w" in bundle.grads
    assert np.any(bundle.grads["blk0.ff1.w"] != 0.0)


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["ce", "kd"])
def test_batch_gradients_equal_sum_of_example_gradients(mode, kind):
    stack = small_stack(seed=4, mode=mode)
    builder, extra = (ce_loss_builder(stack), {}) if kind == "ce" \
        else kd_builder(stack)
    rng = np.random.default_rng(11)
    tokens, labels = rng.integers(0, 11, size=(8, 5)), rng.integers(0, 2, size=8)
    batch = example_gradients(stack, tokens, labels, builder, extra)
    rows = [example_gradients(stack, t, int(lab), builder, extra)
            for t, lab in zip(tokens, labels)]
    assert batch.loss == pytest.approx(sum(r.loss for r in rows), rel=1e-12)
    for term, val in batch.loss_terms.items():
        assert val == pytest.approx(sum(r.loss_terms[term] for r in rows),
                                    rel=1e-12), term
    assert set(batch.grads) == set(rows[0].grads)
    for name, grad in batch.grads.items():
        np.testing.assert_allclose(grad, sum(r.grads[name] for r in rows),
                                   rtol=1e-9, atol=1e-12, err_msg=name)


def test_training_step_on_mixed_lengths_equals_per_example_average():
    stack = small_stack(seed=12, mode=QuantMode.TERNARY_158BIT)
    batch = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7, 8]), 1),
             (np.array([3, 9, 1]), 1), (np.array([2, 5]), 0),
             (np.array([4, 4, 6, 2]), 0)]
    builder = ce_loss_builder(stack)
    rows = [example_gradients(stack, t, lab, builder, {}) for t, lab in batch]
    step = training_step(stack, batch, AdamState())
    assert step.loss == pytest.approx(np.mean([r.loss for r in rows]), rel=1e-12)
    for name, grad in step.grads.items():
        want = sum(r.grads[name] for r in rows) / len(batch)
        np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-12,
                                   err_msg=name)
