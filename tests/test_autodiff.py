"""The closed-form op pairs against finite differences, and the taped
reference in `oracles` (which the closed-form gradients are checked
against bitwise) against finite differences too."""

import math

import numpy as np
import pytest

import oracles as tp
from eqspike import autodiff as ad
from eqspike.distill import kd_loss
from oracles import finite_difference_grad


def _fd_check(build, x0, atol=1e-6):
    """Compare the taped reference's gradient of a scalar graph against
    central finite differences at x0."""
    leaf = tp.Tensor(x0.copy(), requires_grad=True)
    out = build(leaf)
    tp.backward([out], [1.0])
    analytic = leaf.grad.copy()

    def f(x):
        with tp.no_grad():
            return float(build(tp.Tensor(x)).data)

    fd = finite_difference_grad(f, x0.copy())
    np.testing.assert_allclose(analytic, fd, atol=atol)


def _fd_match(value, analytic, x0, atol=1e-6, h=1e-4):
    """Compare a closed-form gradient `analytic` of the scalar `value(x)`
    against central finite differences at x0."""
    fd = finite_difference_grad(lambda x: float(value(x)), x0.copy(), h=h)
    np.testing.assert_allclose(analytic, fd, atol=atol)


def test_add_mul_broadcast():
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    row = tp.Tensor(np.array([0.3, -0.7]))
    _fd_check(lambda t: tp.tensor_sum(tp.mul(tp.add(t, row), t)), x0)


def test_sub():
    x0 = np.array([1.0, 2.0, -3.0])
    _fd_check(lambda t: tp.tensor_sum(tp.mul(tp.sub(t, 0.5), tp.sub(2.0, t))), x0)


def test_matmul_grad_2d():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    b = tp.Tensor(rng.normal(size=(4, 2)))
    _fd_check(lambda t: tp.tensor_sum(tp.matmul(t, b)), x0)


def test_matmul_grad_batched():
    # the KD projection's case: (B, seq, n) @ (n, m)
    rng = np.random.default_rng(1)
    x0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))
    g = tp.Tensor(rng.normal(size=(2, 3, 2)))  # a generic cotangent
    _fd_check(lambda t: tp.tensor_sum(tp.mul(tp.matmul(t, b0), g)), x0)
    _fd_check(lambda t: tp.tensor_sum(tp.mul(tp.matmul(x0, t), g)), b0)


def test_matmul_rejects_other_shapes():
    for a, b in [(np.ones(4), np.ones((4, 2))), (np.ones((3, 4)), np.ones(4)),
                 (np.ones((3, 4)), np.ones((2, 4, 2)))]:
        with pytest.raises(ValueError):
            tp.matmul(a, b)


def test_elementwise_unary_grads():
    x0 = np.array([0.2, 1.3, 2.5])
    _fd_check(lambda t: tp.tensor_sum(tp.exp(t)), x0)
    _fd_check(lambda t: tp.tensor_sum(tp.log(t)), x0)
    _fd_check(lambda t: tp.tensor_sum(tp.erf(t)), x0)


def test_getitem():
    x0 = np.arange(6.0).reshape(2, 3)
    _fd_check(lambda t: tp.tensor_sum(tp.mul(t[0], t[0])), x0)


def test_getitem_accumulates_repeated_indices():
    table = tp.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = tp.tensor_sum(tp.getitem(table, np.array([1, 1, 3])))
    tp.backward([out], [1.0])
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_clip01_forward_and_subgradient():
    x = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    np.testing.assert_array_equal(ad.clip01(x), [0.0, 0.0, 0.5, 1.0, 1.0])
    # pass-through on the closed interval [0, 1], zero outside
    np.testing.assert_array_equal(ad.clip01_backward(np.ones(5), x),
                                  [0.0, 1.0, 1.0, 1.0, 0.0])


def test_clip01_threshold_equals_divided_clip_bitwise():
    # dropping the divide by the unit threshold changes no bit
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 5, 8)) * 0.8 + 0.35
    want = np.clip(a / 1.0, 0.0, 1.0)
    np.testing.assert_array_equal(ad.clip01(a), want)


def test_clip01_threshold_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    a0 = rng.uniform(-0.5, 1.5, size=(4, 6))
    kinks = np.abs(a0) < 1e-3
    kinks |= np.abs(a0 - 1.0) < 1e-3
    a0[kinks] += 0.01  # keep finite differences off the kinks at 0 and 1
    w = rng.normal(size=(4, 6))  # a generic cotangent
    _fd_match(lambda a: (ad.clip01(a) * w).sum(),
              ad.clip01_backward(w, a0), a0)


def test_clip01_at_unit_threshold_equals_taped_clip01_bitwise():
    # signed zeros, the bounds, the floats just outside [0, 1] and NaN,
    # under gradients of either sign
    a = np.array([-0.0, 0.0, 1.0, np.nextafter(0.0, -1.0),
                  np.nextafter(1.0, 2.0), np.nan])
    for g in (np.linspace(-2.0, 0.5, a.size), np.linspace(2.0, -0.5, a.size)):
        leaf = tp.Tensor(a, requires_grad=True)
        taped = tp.taped_clip01(leaf)
        tp.backward([taped], [g])
        for got, want in ((ad.clip01(a), taped.data),
                          (ad.clip01_backward(g, a), leaf.grad)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


LINEAR_SHAPES = pytest.mark.parametrize(
    "shape", [(5,), (4, 5), (2, 4, 5)], ids=["in", "seq-in", "batch-seq-in"])


@LINEAR_SHAPES
def test_linear_forward_equals_composite_bitwise(shape):
    rng = np.random.default_rng(11)
    x, w, b = rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=3)
    # reference: the affine map as plain numpy ops
    want = np.matmul(x, np.transpose(w)) + b
    np.testing.assert_array_equal(ad.linear(x, w, b), want)


@LINEAR_SHAPES
def test_linear_grads_match_finite_differences(shape):
    rng = np.random.default_rng(12)
    x0, w0, b0 = rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=3)
    g = rng.normal(size=shape[:-1] + (3,))  # a generic cotangent
    gx, gw, gb = ad.linear_backward(g, x0, w0)
    _fd_match(lambda x: (ad.linear(x, w0, b0) * g).sum(), gx, x0)
    _fd_match(lambda w: (ad.linear(x0, w, b0) * g).sum(), gw, w0)
    _fd_match(lambda b: (ad.linear(x0, w0, b) * g).sum(), gb, b0)


def test_gelu_and_layer_norm_grads():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 6))
    g = rng.normal(size=(2, 6))  # a generic cotangent
    _fd_match(lambda x: (ad.gelu(x)[0] * g).sum(),
              ad.gelu_backward(g, ad.gelu(x0)[1]), x0, atol=1e-5)
    gain, bias = rng.normal(size=6), rng.normal(size=6)
    out, saved = ad.layer_norm(x0, gain, bias)
    _fd_match(lambda x: (ad.layer_norm(x, gain, bias)[0] * g).sum(),
              ad.layer_norm_backward(g, saved, gain)[0], x0, atol=1e-5)


def test_gelu_equals_taped_reference_bitwise():
    rng = np.random.default_rng(13)
    x0, g = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
    out, saved = ad.gelu(x0)
    leaf = tp.Tensor(x0, requires_grad=True)
    taped = tp.taped_gelu(leaf)
    tp.backward([taped], [g])
    np.testing.assert_array_equal(out, taped.data)
    np.testing.assert_array_equal(ad.gelu_backward(g, saved), leaf.grad)


def _erf_inputs():
    """A dense grid over [-10, 10], and each branch edge of `ad.erf` (1 and
    8 with their float neighbours), zeros, subnormals and infinities."""
    edges = [0.0, 1.0, 8.0, 5e-324, 1e-310, 2.2e-308, np.inf]
    edges += [np.nextafter(e, d) for e in (1.0, 8.0) for d in (0.0, np.inf)]
    pos = np.concatenate([np.linspace(0.0, 10.0, 200_001), edges])
    return np.concatenate([pos, -pos])


def _ulps(got, want):
    """|got - want| in units of the last place of `want`."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_erf_within_4_ulp_of_math_erf():
    # both are accurate to about 2 ulp; the largest gap seen is 3
    x = _erf_inputs()
    want = np.array([math.erf(v) for v in x])
    assert _ulps(ad.erf(x), want).max() <= 4


def test_erf_within_1_ulp_of_scipy():
    special = pytest.importorskip("scipy.special")
    x = _erf_inputs()
    assert _ulps(ad.erf(x), special.erf(x)).max() <= 1


@pytest.mark.filterwarnings("error")
def test_erf_is_odd_and_keeps_its_edge_values():
    x = _erf_inputs()  # every input next to its negation, so odd bitwise
    np.testing.assert_array_equal(ad.erf(-x).view(np.int64),
                                  (-ad.erf(x)).view(np.int64))
    assert np.signbit(ad.erf(np.array([-0.0]))[0])
    np.testing.assert_array_equal(ad.erf(np.array([np.inf, -np.inf, np.nan])),
                                  [1.0, -1.0, np.nan])


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """Reference: layer norm as plain numpy ops, means as scaled sums."""
    n = x.shape[-1]
    xc = np.subtract(x, np.sum(x, axis=-1, keepdims=True) * (1.0 / n))
    var = np.sum(np.multiply(xc, xc), axis=-1, keepdims=True) * (1.0 / n)
    inv = np.divide(1.0, np.sqrt(np.add(var, eps)))
    return np.add(np.multiply(np.multiply(xc, inv), gain), bias)


def test_layer_norm_forward_equals_composite_bitwise():
    rng = np.random.default_rng(6)
    for shape in [(6,), (5, 8), (3, 5, 8)]:
        x = rng.random(shape) * 3.0 - 1.0
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        want = composite_layer_norm(x, gain, bias)
        np.testing.assert_array_equal(ad.layer_norm(x, gain, bias)[0], want)


def test_layer_norm_grads_with_batch_axis():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(3, 4, 6))
    gain0, bias0 = rng.normal(size=6), rng.normal(size=6)
    w = rng.normal(size=(3, 4, 6))  # a generic cotangent
    gx, ggain, gbias = ad.layer_norm_backward(
        w, ad.layer_norm(x0, gain0, bias0)[1], gain0)
    _fd_match(lambda x: (ad.layer_norm(x, gain0, bias0)[0] * w).sum(), gx, x0)
    _fd_match(lambda gain: (ad.layer_norm(x0, gain, bias0)[0] * w).sum(),
              ggain, gain0)
    _fd_match(lambda bias: (ad.layer_norm(x0, gain0, bias)[0] * w).sum(),
              gbias, bias0)


def test_cross_entropy_matches_log_softmax():
    logits = np.array([1.0, -2.0, 0.5])
    loss, _ = ad.cross_entropy(logits, 2)
    expected = -(logits[2] - np.log(np.exp(logits).sum()))
    assert abs(loss - expected) < 1e-12
    _fd_match(lambda x: ad.cross_entropy(x, 0)[0],
              ad.cross_entropy(logits, 0)[1], logits)


def test_kd_loss_grads_match_finite_differences():
    rng = np.random.default_rng(14)
    s0, p0 = rng.random((2, 3, 4)), rng.normal(size=(4, 5))
    target = [rng.normal(size=(2, 3, 5))]

    def kd(s, proj, grads=None):
        return kd_loss([s], target, {"kd.proj0": proj}, grads)

    grads = {"kd.proj0": np.zeros_like(p0)}
    (g_s,) = kd(s0, p0, grads)[2]
    _fd_match(lambda s: kd(s, p0)[0], g_s, s0)
    _fd_match(lambda proj: kd(s0, proj)[0], grads["kd.proj0"], p0)


def test_ste_passes_cotangent_to_latent():
    latent = tp.Tensor(np.array([0.3, -0.9]), requires_grad=True)
    forward = np.array([1.0, -1.0])
    y = tp.ste(latent, forward)
    np.testing.assert_array_equal(y.data, forward)
    tp.backward([tp.tensor_sum(tp.mul(y, tp.Tensor(np.array([2.0, 5.0]))))], [1.0])
    np.testing.assert_array_equal(latent.grad, [2.0, 5.0])


def test_no_grad_suppresses_graph():
    x = tp.Tensor(np.ones(3), requires_grad=True)
    with tp.no_grad():
        y = tp.mul(x, x)
    assert y._parents == ()


def test_backward_resets_between_calls():
    x = tp.Tensor(np.array([3.0]), requires_grad=True)
    y = tp.mul(x, x)
    tp.backward([y], [np.ones(1)])
    first = x.grad.copy()
    tp.backward([y], [np.ones(1)])
    np.testing.assert_array_equal(x.grad, first)  # replay, not accumulation


def test_backward_multiple_outputs_sums_contributions():
    x = tp.Tensor(np.array([2.0]), requires_grad=True)
    y1 = tp.mul(x, x)
    y2 = tp.mul(x, 3.0)
    tp.backward([y1, y2], [np.ones(1), np.ones(1)])
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def test_batched_cross_entropy_sums_rows():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 3)) * 2.0
    labels = np.array([2, 0, 1, 2])
    total, grad = ad.cross_entropy(logits, labels)
    rows = [ad.cross_entropy(r, int(lab)) for r, lab in zip(logits, labels)]
    assert total == pytest.approx(sum(loss for loss, _ in rows), rel=1e-14)
    np.testing.assert_array_equal(grad, [g for _, g in rows])
    _fd_match(lambda x: ad.cross_entropy(x, labels)[0], grad, logits)
