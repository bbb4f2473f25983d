import numpy as np
import pytest

from eqspike.neuron import LifConfig, LifLayerState, RunningAverage, lif_step


def step(state, current, cfg=LifConfig()):
    """One timestep: a window of one current; returns that step's spikes."""
    spikes, _ = lif_step(state, np.asarray(current, dtype=float)[None], cfg)
    return spikes[0]


def run_constant_drive(c, T, cfg=LifConfig()):
    state = LifLayerState.zeros(np.shape(c), cfg.gamma)
    lif_step(state, np.broadcast_to(np.asarray(c, dtype=float),
                                    (T,) + np.shape(c)), cfg)
    return state


@pytest.mark.parametrize("bad", [{"gamma": 0.0}, {"gamma": 1.2}, {"v_th": 0.0},
                                 {"v_th": -1.0}])
def test_lif_config_validation(bad):
    with pytest.raises(ValueError):
        LifConfig(**bad)


def test_strict_threshold_no_fire_at_exact_v_th():
    state = LifLayerState.zeros(())
    assert not step(state, 1.0)
    assert state.u == 1.0
    assert step(state, 0.5)


def test_subtraction_reset_keeps_overshoot():
    state = LifLayerState.zeros(())
    assert step(state, 1.7)
    np.testing.assert_allclose(state.u, 0.7)


def test_asr_undefined_before_first_step():
    with pytest.raises(ValueError):
        LifLayerState.zeros((2,)).rate.value


def test_shape_mismatch_rejected():
    state = LifLayerState.zeros((3,))
    with pytest.raises(ValueError):
        lif_step(state, np.zeros((1, 4)), LifConfig())
    with pytest.raises(ValueError):  # one step's current, not a window of them
        lif_step(state, np.zeros(3), LifConfig())


@pytest.mark.parametrize("c", [-0.3, 0.0, 0.25, 0.5, 0.8, 1.0, 1.4])
def test_constant_drive_rate_clips_to_unit_interval(c):
    # With gamma=1 and v_th=1, a neuron driven by constant current c fires
    # at long-run rate clip(c, 0, 1): the membrane integrates c per step and
    # loses 1 per spike, so spikes/T -> c (saturating at one spike per step).
    T = 2000
    state = run_constant_drive(c, T)
    expected = min(max(c, 0.0), 1.0)
    assert abs(float(state.rate.value) - expected) <= 1.0 / T + 1e-9


def test_constant_drive_scaled_threshold():
    # General v_th: rate -> clip(c / v_th, 0, 1).
    cfg = LifConfig(v_th=2.0)
    state = run_constant_drive(1.0, 2000, cfg)
    assert abs(float(state.rate.value) - 0.5) < 1e-3


def test_leaky_average_weights_recent_spikes_more():
    cfg = LifConfig(gamma=0.5)
    state = LifLayerState.zeros((), cfg.gamma)
    # spike at step 1 (current 2.0), silence afterwards
    spikes, _ = lif_step(state, np.array([2.0, 0.0, 0.0, 0.0]), cfg)
    np.testing.assert_array_equal(spikes, [True, False, False, False])
    # numerator gamma^3 * 1, denominator gamma^3 + gamma^2 + gamma + 1
    expected = 0.5 ** 3 / (0.5 ** 3 + 0.5 ** 2 + 0.5 + 1.0)
    np.testing.assert_allclose(float(state.rate.value), expected)


def test_asr_batch_shapes():
    state = run_constant_drive(np.full((4, 5), 0.5), 100)
    assert state.rate.value.shape == (4, 5)


@pytest.mark.parametrize("cfg", [LifConfig(), LifConfig(gamma=0.5),
                                 LifConfig(v_th=2.0),
                                 LifConfig(gamma=0.5, v_th=2.0)],
                         ids=["default", "gamma0.5", "vth2", "gamma0.5-vth2"])
@pytest.mark.parametrize("C", [1, 2, 7, 20])
def test_window_equals_single_steps_bitwise(cfg, C):
    # one window of C currents is C steps of one: the membrane potential,
    # the spikes and the ASR after every step agree bit for bit
    currents = np.random.default_rng(C).uniform(-0.5, 2.5, size=(2 * C, 3, 4))
    windowed, stepped = (LifLayerState.zeros((3, 4), cfg.gamma)
                         for _ in range(2))
    got_spikes, got_asrs = [], []
    for window in (currents[:C], currents[C:]):
        spikes, asrs = lif_step(windowed, window, cfg, per_step_asr=True)
        assert spikes.dtype == bool and spikes.shape == window.shape
        got_spikes.append(spikes)
        got_asrs.append(asrs)
    want_spikes, want_asrs = [], []
    for current in currents:
        spikes, asrs = lif_step(stepped, current[None], cfg, per_step_asr=True)
        want_spikes.append(spikes[0])
        want_asrs.append(asrs[0])
    np.testing.assert_array_equal(np.concatenate(got_spikes), want_spikes)
    np.testing.assert_array_equal(np.concatenate(got_asrs), want_asrs)
    np.testing.assert_array_equal(windowed.u, stepped.u)
    np.testing.assert_array_equal(windowed.rate.value, stepped.rate.value)
    np.testing.assert_array_equal(got_asrs[-1][-1], windowed.rate.value)


def test_window_without_per_step_asr_folds_the_same_rate():
    cfg = LifConfig(gamma=0.5, v_th=2.0)
    currents = np.random.default_rng(1).uniform(0.0, 3.0, size=(9, 5))
    quiet, loud = (LifLayerState.zeros((5,), cfg.gamma) for _ in range(2))
    spikes, asrs = lif_step(quiet, currents, cfg)
    assert asrs is None
    np.testing.assert_array_equal(spikes, lif_step(loud, currents, cfg, True)[0])
    np.testing.assert_array_equal(quiet.rate.value, loud.rate.value)


def test_running_average_matches_asr_weighting():
    ra = RunningAverage(gamma=0.9)
    values = [1.0, 2.0, 3.0]
    out = ra.push(np.array(values))
    num = sum(0.9 ** (2 - i) * v for i, v in enumerate(values))
    den = sum(0.9 ** k for k in range(3))
    np.testing.assert_allclose(out[-1], num / den)
    np.testing.assert_allclose(ra.value, num / den)


def test_running_average_constant_signal_is_identity():
    ra = RunningAverage(gamma=1.0)
    for _ in range(10):
        ra.push(np.array([[0.7, -0.2]]))
    np.testing.assert_allclose(ra.value, [0.7, -0.2])


@pytest.mark.parametrize("gamma", [1.0, 0.9, 0.5])
def test_running_average_window_equals_single_steps_bitwise(gamma):
    values = np.random.default_rng(2).normal(size=(12, 2, 3))
    windowed, stepped = RunningAverage(gamma), RunningAverage(gamma)
    got = np.concatenate([windowed.push(values[:5]), windowed.push(values[5:])])
    want = np.concatenate([stepped.push(v[None]) for v in values])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(windowed.value, stepped.value)
    assert windowed.push(values[:3], per_step=False) is None
    stepped.push(values[:3])
    np.testing.assert_array_equal(windowed.value, stepped.value)
