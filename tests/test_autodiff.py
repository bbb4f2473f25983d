import numpy as np
import pytest

from eqspike import autodiff as ad
from oracles import finite_difference_grad


def _fd_check(build, x0, atol=1e-6):
    """Compare reverse-mode gradient of a scalar graph against central
    finite differences at x0."""
    leaf = ad.Tensor(x0.copy(), requires_grad=True)
    out = build(leaf)
    ad.backward([out], [1.0])
    analytic = leaf.grad.copy()

    def f(x):
        with ad.no_grad():
            return float(build(ad.Tensor(x)).data)

    fd = finite_difference_grad(f, x0.copy())
    np.testing.assert_allclose(analytic, fd, atol=atol)


def test_add_mul_broadcast():
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    row = ad.Tensor(np.array([0.3, -0.7]))
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.add(t, row), t)), x0)


def test_sub():
    x0 = np.array([1.0, 2.0, -3.0])
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.sub(t, 0.5), ad.sub(2.0, t))), x0)


def test_matmul_grad_2d():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    b = ad.Tensor(rng.normal(size=(4, 2)))
    _fd_check(lambda t: ad.tensor_sum(ad.matmul(t, b)), x0)


def test_matmul_grad_batched():
    # the KD projection's case: (B, seq, n) @ (n, m)
    rng = np.random.default_rng(1)
    x0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))
    g = ad.Tensor(rng.normal(size=(2, 3, 2)))  # a generic cotangent
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.matmul(t, b0), g)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.matmul(x0, t), g)), b0)


def test_matmul_rejects_other_shapes():
    for a, b in [(np.ones(4), np.ones((4, 2))), (np.ones((3, 4)), np.ones(4)),
                 (np.ones((3, 4)), np.ones((2, 4, 2)))]:
        with pytest.raises(ValueError):
            ad.matmul(a, b)


def test_elementwise_unary_grads():
    x0 = np.array([0.2, 1.3, 2.5])
    _fd_check(lambda t: ad.tensor_sum(ad.exp(t)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.log(t)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.erf(t)), x0)


def test_getitem():
    x0 = np.arange(6.0).reshape(2, 3)
    _fd_check(lambda t: ad.tensor_sum(ad.mul(t[0], t[0])), x0)


def test_getitem_accumulates_repeated_indices():
    table = ad.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = ad.tensor_sum(ad.getitem(table, np.array([1, 1, 3])))
    ad.backward([out], [1.0])
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_clip01_forward_and_subgradient():
    x = ad.Tensor(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]), requires_grad=True)
    y = ad.clip01(x)
    np.testing.assert_array_equal(y.data, [0.0, 0.0, 0.5, 1.0, 1.0])
    ad.backward([ad.tensor_sum(y)], [1.0])
    # pass-through on the closed interval [0, 1], zero outside
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_clip01_threshold_equals_divided_clip_bitwise():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 5, 8)) * 0.8 + 0.35
    with ad.no_grad():
        got = ad.clip01(a, 0.7).data
    want = np.clip(a / 0.7, 0.0, 1.0)
    np.testing.assert_array_equal(got, want)


def test_clip01_threshold_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    a0 = rng.uniform(-0.5, 1.2, size=(4, 6))
    kinks = np.abs(a0) < 1e-3
    kinks |= np.abs(a0 - 0.7) < 1e-3
    a0[kinks] += 0.01  # keep finite differences off the kinks at 0 and v_th
    w = ad.Tensor(rng.normal(size=(4, 6)))  # a generic cotangent
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.clip01(t, 0.7), w)), a0)


def test_clip01_threshold_boundary_subgradient():
    x = ad.Tensor(np.array([-0.1, 0.0, 0.35, 0.7, 0.8]), requires_grad=True)
    y = ad.clip01(x, 0.7)
    np.testing.assert_array_equal(y.data, [0.0, 0.0, 0.5, 1.0, 1.0])
    ad.backward([ad.tensor_sum(y)], [1.0])
    # 1/v_th on the closed interval [0, v_th], bounds included; 0 outside
    np.testing.assert_array_equal(x.grad, [0.0, 1 / 0.7, 1 / 0.7, 1 / 0.7, 0.0])


LINEAR_SHAPES = pytest.mark.parametrize(
    "shape", [(5,), (4, 5), (2, 4, 5)], ids=["in", "seq-in", "batch-seq-in"])


@LINEAR_SHAPES
def test_linear_forward_equals_composite_bitwise(shape):
    rng = np.random.default_rng(11)
    x, w, b = rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=3)
    # reference: the affine map as plain numpy ops
    want = np.matmul(x, np.transpose(w)) + b
    np.testing.assert_array_equal(ad.linear(x, w, b).data, want)


@LINEAR_SHAPES
def test_linear_grads_match_finite_differences(shape):
    rng = np.random.default_rng(12)
    x0, w0, b0 = rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=3)
    g = ad.Tensor(rng.normal(size=shape[:-1] + (3,)))  # a generic cotangent

    def weighted(x, w, b):
        return ad.tensor_sum(ad.mul(ad.linear(x, w, b), g))

    _fd_check(lambda t: weighted(t, w0, b0), x0)
    _fd_check(lambda t: weighted(x0, t, b0), w0)
    _fd_check(lambda t: weighted(x0, w0, t), b0)


def test_gelu_and_layer_norm_grads():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 6))
    _fd_check(lambda t: ad.tensor_sum(ad.gelu(t)), x0, atol=1e-5)
    gain = ad.Tensor(rng.normal(size=6))
    bias = ad.Tensor(rng.normal(size=6))
    _fd_check(lambda t: ad.tensor_sum(ad.layer_norm(t, gain, bias)), x0, atol=1e-5)


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
        np.testing.assert_array_equal(ad.layer_norm(x, gain, bias).data, want)


def test_layer_norm_grads_with_batch_axis():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(3, 4, 6))
    gain0, bias0 = rng.normal(size=6), rng.normal(size=6)
    w = ad.Tensor(rng.normal(size=(3, 4, 6)))  # a generic cotangent

    def weighted(x, gain, bias):
        return ad.tensor_sum(ad.mul(ad.layer_norm(x, gain, bias), w))

    _fd_check(lambda t: weighted(t, gain0, bias0), x0, atol=1e-6)
    _fd_check(lambda t: weighted(x0, t, bias0), gain0, atol=1e-6)
    _fd_check(lambda t: weighted(x0, gain0, t), bias0, atol=1e-6)


def test_cross_entropy_matches_log_softmax():
    logits = np.array([1.0, -2.0, 0.5])
    with ad.no_grad():
        loss = float(ad.cross_entropy(ad.Tensor(logits), 2).data)
    expected = -(logits[2] - np.log(np.exp(logits).sum()))
    assert abs(loss - expected) < 1e-12
    _fd_check(lambda t: ad.cross_entropy(t, 0), logits)


def test_ste_passes_cotangent_to_latent():
    latent = ad.Tensor(np.array([0.3, -0.9]), requires_grad=True)
    forward = np.array([1.0, -1.0])
    y = ad.ste(latent, forward)
    np.testing.assert_array_equal(y.data, forward)
    ad.backward([ad.tensor_sum(ad.mul(y, ad.Tensor(np.array([2.0, 5.0]))))], [1.0])
    np.testing.assert_array_equal(latent.grad, [2.0, 5.0])


def test_no_grad_suppresses_graph():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == ()


def test_backward_resets_between_calls():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)
    ad.backward([y], [np.ones(1)])
    first = x.grad.copy()
    ad.backward([y], [np.ones(1)])
    np.testing.assert_array_equal(x.grad, first)  # replay, not accumulation


def test_backward_multiple_outputs_sums_contributions():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y1 = ad.mul(x, x)
    y2 = ad.mul(x, 3.0)
    ad.backward([y1, y2], [np.ones(1), np.ones(1)])
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def test_batched_cross_entropy_sums_rows():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 3)) * 2.0
    labels = np.array([2, 0, 1, 2])
    with ad.no_grad():
        total = float(ad.cross_entropy(ad.Tensor(logits), labels).data)
        rows = [float(ad.cross_entropy(ad.Tensor(r), int(lab)).data)
                for r, lab in zip(logits, labels)]
    assert total == pytest.approx(sum(rows), rel=1e-14)
    _fd_check(lambda t: ad.cross_entropy(t, labels), logits)

