import numpy as np

from eqspike import autodiff as ad
from eqspike.numerics import finite_difference_grad


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


def test_sub_div():
    x0 = np.array([1.0, 2.0, -3.0])
    _fd_check(lambda t: ad.tensor_sum(ad.div(ad.sub(t, 0.5), 2.0 + t * 0.0 + 3.0)), x0)


def test_matmul_grad_2d():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    b = ad.Tensor(rng.normal(size=(4, 2)))
    _fd_check(lambda t: ad.tensor_sum(ad.matmul(t, b)), x0)


def test_matmul_grad_matrix_vector():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=4)
    w = ad.Tensor(rng.normal(size=(3, 4)))
    _fd_check(lambda t: ad.tensor_sum(ad.matmul(w, t)), x0)
    x1 = rng.normal(size=(3, 4))
    v = ad.Tensor(rng.normal(size=4))
    _fd_check(lambda t: ad.tensor_sum(ad.matmul(t, v)), x1)


def test_elementwise_unary_grads():
    x0 = np.array([0.2, 1.3, 2.5])
    _fd_check(lambda t: ad.tensor_sum(ad.exp(t)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.log(t)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.sqrt(t)), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.erf(t)), x0)


def test_reductions_and_reshape():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(2, 3))
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.mean(t, axis=0), ad.mean(t, axis=0))), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.reshape(t, (3, 2)),
                                             ad.reshape(t, (3, 2)))), x0)
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.transpose(t, (1, 0)),
                                             ad.transpose(t, (1, 0)))), x0)


def test_getitem():
    x0 = np.arange(6.0).reshape(2, 3)
    _fd_check(lambda t: ad.tensor_sum(ad.mul(t[0], t[0])), x0)


def test_take_rows_accumulates_repeated_indices():
    table = ad.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = ad.tensor_sum(ad.take_rows(table, np.array([1, 1, 3])))
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


def test_softmax_rows_and_grad():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(2, 5))
    with ad.no_grad():
        rows = ad.softmax(ad.Tensor(x0)).data
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0)
    w = ad.Tensor(rng.normal(size=(2, 5)))
    _fd_check(lambda t: ad.tensor_sum(ad.mul(ad.softmax(t), w)), x0)


def test_gelu_and_layer_norm_grads():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 6))
    _fd_check(lambda t: ad.tensor_sum(ad.gelu(t)), x0, atol=1e-5)
    gain = ad.Tensor(rng.normal(size=6))
    bias = ad.Tensor(rng.normal(size=6))
    _fd_check(lambda t: ad.tensor_sum(ad.layer_norm(t, gain, bias)), x0, atol=1e-5)


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
