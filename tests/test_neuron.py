import numpy as np
import pytest

from eqspike.neuron import LifLayerState, lif_step, running_means


def step(state, current):
    """One timestep: a window of one current; returns that step's spikes."""
    spikes, _ = lif_step(state, np.asarray(current, dtype=float)[None])
    return spikes[0]


def run_constant_drive(c, T):
    state = LifLayerState.zeros(np.shape(c))
    lif_step(state, np.broadcast_to(np.asarray(c, dtype=float),
                                    (T,) + np.shape(c)))
    return state


def test_strict_threshold_no_fire_at_exact_v_th():
    state = LifLayerState.zeros(())
    assert not step(state, 1.0)
    assert state.u == 1.0
    assert step(state, 0.5)


def test_subtraction_reset_keeps_overshoot():
    state = LifLayerState.zeros(())
    assert step(state, 1.7)
    np.testing.assert_allclose(state.u, 0.7)


def test_shape_mismatch_rejected():
    state = LifLayerState.zeros((3,))
    with pytest.raises(ValueError):
        lif_step(state, np.zeros((1, 4)))
    with pytest.raises(ValueError):  # one step's current, not a window of them
        lif_step(state, np.zeros(3))


@pytest.mark.parametrize("c", [-0.3, 0.0, 0.25, 0.5, 0.8, 1.0, 1.4])
def test_constant_drive_rate_clips_to_unit_interval(c):
    # A neuron driven by constant current c fires at long-run rate
    # clip(c, 0, 1): the membrane integrates c per step and loses 1 per
    # spike, so spikes/T -> c (saturating at one spike per step).
    T = 2000
    state = run_constant_drive(c, T)
    expected = min(max(c, 0.0), 1.0)
    assert abs(float(state.count) / T - expected) <= 1.0 / T + 1e-9


def test_asr_batch_shapes():
    state = LifLayerState.zeros((4, 5))
    steps = np.arange(1.0, 101.0)
    _, asrs = lif_step(state, np.full((100, 4, 5), 0.5), steps)
    assert asrs.shape == (100, 4, 5)
    np.testing.assert_array_equal(asrs[-1], state.count / 100)


@pytest.mark.parametrize("low, high", [(-0.5, 2.5), (0.0, 1.0)],
                         ids=["default", "subthreshold"])
@pytest.mark.parametrize("C", [1, 2, 7, 20])
def test_window_equals_single_steps_bitwise(C, low, high):
    # one window of C currents is C steps of one: the membrane potential,
    # the spikes and the ASR after every step agree bit for bit
    currents = np.random.default_rng(C).uniform(low, high, size=(2 * C, 3, 4))
    steps = np.arange(1.0, 2 * C + 1)
    windowed, stepped = (LifLayerState.zeros((3, 4)) for _ in range(2))
    got_spikes, got_asrs = [], []
    for window, at in ((currents[:C], steps[:C]), (currents[C:], steps[C:])):
        spikes, asrs = lif_step(windowed, window, at)
        assert spikes.dtype == bool and spikes.shape == window.shape
        got_spikes.append(spikes)
        got_asrs.append(asrs)
    want_spikes, want_asrs = [], []
    for current, t in zip(currents, steps):
        spikes, asrs = lif_step(stepped, current[None], np.array([t]))
        want_spikes.append(spikes[0])
        want_asrs.append(asrs[0])
    np.testing.assert_array_equal(np.concatenate(got_spikes), want_spikes)
    np.testing.assert_array_equal(np.concatenate(got_asrs), want_asrs)
    np.testing.assert_array_equal(windowed.u, stepped.u)
    np.testing.assert_array_equal(windowed.count, stepped.count)
    np.testing.assert_array_equal(got_asrs[-1][-1], windowed.count / (2 * C))


def test_window_without_per_step_asr_folds_the_same_rate():
    currents = np.random.default_rng(1).uniform(0.0, 3.0, size=(9, 5))
    quiet, loud = (LifLayerState.zeros((5,)) for _ in range(2))
    spikes, asrs = lif_step(quiet, currents)
    assert asrs is None
    np.testing.assert_array_equal(
        spikes, lif_step(loud, currents, np.arange(1.0, 10.0))[0])
    np.testing.assert_array_equal(quiet.count, loud.count)


def test_running_average_matches_asr_weighting():
    # every step weighs the same: the mean after step t is the sum over t
    values = np.array([[1.0], [2.0], [4.0]])
    total = np.zeros(1)
    means = running_means(values.copy(), total, np.arange(1.0, 4.0))
    np.testing.assert_allclose(means[:, 0], [1.0, 1.5, 7.0 / 3.0])
    np.testing.assert_array_equal(total, [7.0])


def test_running_average_constant_signal_is_identity():
    total = np.zeros(2)
    for t in range(1, 11):
        means = running_means(np.array([[0.7, -0.2]]), total,
                              np.array([float(t)]))
    np.testing.assert_allclose(means[-1], [0.7, -0.2])


def test_running_average_window_equals_single_steps_bitwise():
    values = np.random.default_rng(2).normal(size=(12, 2, 3))
    steps = np.arange(1.0, 13.0)
    windowed, stepped = np.zeros((2, 3)), np.zeros((2, 3))
    got = np.concatenate([running_means(values[:5].copy(), windowed, steps[:5]),
                          running_means(values[5:].copy(), windowed, steps[5:])])
    want = np.concatenate([running_means(v[None].copy(), stepped, steps[[k]])
                           for k, v in enumerate(values)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(windowed, stepped)
