import numpy as np
import pytest

from eqspike.numerics import (AdamState, FlatParams, NumericError,
                              ShapeError, adam_step_many, check_finite,
                              init_uniform)
from oracles import TensorAdam, finite_difference_grad


def test_check_finite_passes_through():
    x = np.array([1.0, -2.0, 0.0])
    assert check_finite(x) is not None
    np.testing.assert_array_equal(check_finite(x), x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects(bad):
    with pytest.raises(NumericError):
        check_finite(np.array([0.0, bad]))


def test_init_uniform_bounds_and_determinism():
    w1 = init_uniform(np.random.default_rng(7), 50, 16)
    w2 = init_uniform(np.random.default_rng(7), 50, 16)
    np.testing.assert_array_equal(w1, w2)
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(w1) <= bound)


def gradient(params, grads):
    """A gradient buffer of `params`' layout holding `grads`, zero elsewhere."""
    buf = params.zeros()
    for name, g in grads.items():
        buf[name][...] = g
    return buf


def test_flat_params_entries_are_views_of_one_buffer():
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([6.0]),
              "s": np.array(7.0)}
    params = FlatParams(arrays)
    assert list(params) == ["w", "b", "s"]
    np.testing.assert_array_equal(params.flat, np.arange(8.0))
    for name, a in arrays.items():
        assert params[name].shape == a.shape
        assert np.shares_memory(params[name], params.flat)
        assert not np.shares_memory(params[name], a)  # a copy
    params.flat *= 2.0
    np.testing.assert_array_equal(params["w"], 2.0 * arrays["w"])
    zeros = params.zeros()
    assert zeros.layout is params.layout and not np.any(zeros.flat)
    assert not np.shares_memory(zeros.flat, params.flat)


def test_adam_first_step_is_lr_sized():
    # With bias correction, the first update moves by ~lr in the gradient
    # direction regardless of gradient magnitude.
    state = AdamState(lr=0.1)
    p = np.array([1.0, -1.0])
    g = np.array([100.0, -0.001])
    params = FlatParams({"p": p})
    adam_step_many([params], [gradient(params, {"p": g})], state)
    np.testing.assert_allclose(p - params["p"], [0.1, -0.1], atol=1e-5)


def test_adam_converges_on_quadratic():
    state = AdamState(lr=0.05)
    params = FlatParams({"x": np.array([3.0, -2.0])})
    for _ in range(500):
        adam_step_many([params], [gradient(params, {"x": 2 * params["x"]})],
                       state)
    assert np.max(np.abs(params["x"])) < 1e-3


def test_adam_shape_mismatch():
    state = AdamState()
    params = FlatParams({"p": np.zeros(3)})
    with pytest.raises(ShapeError):
        adam_step_many([params], [FlatParams({"p": np.zeros(4)}).zeros()],
                       state)
    with pytest.raises(ShapeError):
        adam_step_many([params], [], state)
    assert state.step == 0 and not state.m and not state.v


def test_adam_step_many_updates_in_place_and_skips_missing():
    state, oracle = AdamState(lr=0.1), TensorAdam(lr=0.1)
    params = FlatParams({"a": [1.0, 2.0], "b": [5.0], "c": [[3.0, 4.0]]})
    want = {k: v.copy() for k, v in params.items()}
    a = params["a"]
    key, b = tuple(params.layout), params.layout["b"][0]
    steps = [{"a": [1.0, -2.0], "b": [0.0], "c": [[0.5, 0.25]]},
             {"a": [0.5, 1.0], "b": [0.0], "c": [[-1.0, 2.0]]}]  # b unreached
    for grads in steps:
        grads = {k: np.array(g) for k, g in grads.items()}
        adam_step_many([params], [gradient(params, grads)], state)
        oracle.step_many(want, grads)
    assert state.step == 2
    # b kept its exact value and zero moments through both steps
    assert params["b"][0] == 5.0
    assert not state.m[key][b].any() and not state.v[key][b].any()
    assert params["a"] is a and np.shares_memory(a, params.flat)
    for name, (slot, _shape) in params.layout.items():  # the per-tensor bits
        np.testing.assert_array_equal(params[name], want[name], err_msg=name)
        np.testing.assert_array_equal(state.m[key][slot],
                                      oracle.m[name].reshape(-1))
        np.testing.assert_array_equal(state.v[key][slot],
                                      oracle.v[name].reshape(-1))


def test_adam_step_many_checks_every_gradient_before_any_write():
    state = AdamState(lr=0.1)
    params = [FlatParams({"a": np.array([1.0, 2.0]), "b": np.array([3.0])}),
              FlatParams({"c": np.array([4.0, 5.0])})]
    adam_step_many(params, [gradient(p, {k: np.ones_like(v)
                                         for k, v in p.items()})
                            for p in params], state)
    keep = [p.flat.copy() for p in params]
    keep_m = {k: v.copy() for k, v in state.m.items()}
    keep_v = {k: v.copy() for k, v in state.v.items()}
    grads = [gradient(p, {k: np.ones_like(v) for k, v in p.items()})
             for p in params]
    grads[1]["c"][1] = np.nan  # in the last buffer
    with pytest.raises(NumericError, match="gradient for c"):
        adam_step_many(params, grads, state)
    assert state.step == 1
    for p, flat in zip(params, keep):
        np.testing.assert_array_equal(p.flat, flat)
    assert state.m.keys() == keep_m.keys() == state.v.keys() == keep_v.keys()
    for k in keep_m:
        np.testing.assert_array_equal(state.m[k], keep_m[k])
        np.testing.assert_array_equal(state.v[k], keep_v[k])


def test_finite_difference_grad_quadratic():
    # d/dx (x^T A x) = (A + A^T) x, independently derivable by hand.
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    fd = finite_difference_grad(lambda v: float(v @ A @ v), x.copy())
    np.testing.assert_allclose(fd, (A + A.T) @ x, atol=1e-6)


def test_finite_difference_grad_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_difference_grad(lambda v: 0.0, np.zeros(2), h=0.0)
