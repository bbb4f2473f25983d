import numpy as np
import pytest

from eqspike.numerics import (AdamState, NumericError, ShapeError,
                              adam_step_many, check_finite, init_uniform)
from oracles import finite_difference_grad


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
    # explicit fan_in overrides the column count
    w3 = init_uniform(np.random.default_rng(7), 50, 16, fan_in=4)
    assert np.max(np.abs(w3)) > bound


def test_adam_first_step_is_lr_sized():
    # With bias correction, the first update moves by ~lr in the gradient
    # direction regardless of gradient magnitude.
    state = AdamState(lr=0.1)
    p = np.array([1.0, -1.0])
    g = np.array([100.0, -0.001])
    params = {"p": p.copy()}
    adam_step_many(params, {"p": g}, state)
    np.testing.assert_allclose(p - params["p"], [0.1, -0.1], atol=1e-5)


def test_adam_converges_on_quadratic():
    state = AdamState(lr=0.05)
    params = {"x": np.array([3.0, -2.0])}
    for _ in range(500):
        adam_step_many(params, {"x": 2 * params["x"]}, state)
    assert np.max(np.abs(params["x"])) < 1e-3


def test_adam_shape_mismatch():
    state = AdamState()
    with pytest.raises(ShapeError):
        adam_step_many({"p": np.zeros(3)}, {"p": np.zeros(4)}, state)
    assert state.step == 0 and not state.m


def test_adam_step_many_updates_in_place_and_skips_missing():
    state = AdamState(lr=0.1)
    params = {"a": np.array([1.0]), "b": np.array([5.0])}
    keep_b = params["b"].copy()
    adam_step_many(params, {"a": np.array([1.0])}, state)
    assert params["a"][0] < 1.0
    np.testing.assert_array_equal(params["b"], keep_b)
    assert state.step == 1


def test_adam_step_many_checks_every_gradient_before_any_write():
    state = AdamState(lr=0.1)
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]),
              "c": np.array([4.0, 5.0])}
    adam_step_many(params, {k: np.ones_like(v) for k, v in params.items()},
                   state)
    keep = {k: v.copy() for k, v in params.items()}
    keep_m = {k: v.copy() for k, v in state.m.items()}
    keep_v = {k: v.copy() for k, v in state.v.items()}
    grads = {k: np.ones_like(v) for k, v in params.items()}
    grads["c"] = np.array([0.5, np.nan])  # the last gradient in the dict
    with pytest.raises(NumericError, match="gradient for c"):
        adam_step_many(params, grads, state)
    assert state.step == 1
    for k in params:
        np.testing.assert_array_equal(params[k], keep[k])
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
