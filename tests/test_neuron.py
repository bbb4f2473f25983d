import numpy as np
import pytest

from eqspike.neuron import LifLayerState, lif_step, running_means, telescoped


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
    # running means and telescoped currents alike, each advancing its
    # state in place
    values = np.random.default_rng(2).normal(size=(12, 2, 3))
    values[0, 0, 0] = -0.0
    steps = np.arange(1.0, 13.0)
    for advance in (lambda w, state, s: running_means(w.copy(), state, s),
                    lambda w, state, s: telescoped(w, s, state)):
        windowed, stepped = np.zeros((2, 3)), np.zeros((2, 3))
        got = np.concatenate([advance(values[:5], windowed, steps[:5]),
                              advance(values[5:], windowed, steps[5:])])
        want = np.concatenate([advance(v[None], stepped, steps[[k]])
                               for k, v in enumerate(values)])
        assert got.tobytes() == want.tobytes()
        assert windowed.tobytes() == stepped.tobytes()
    # the current at step 1 is phi_1 itself, -0.0 included
    assert telescoped(values[:1], steps[:1], np.zeros((2, 3))).tobytes() \
        == values[:1].tobytes()
    # on integer-valued phi the currents through step t sum to t * phi_t
    phi = np.random.default_rng(3).integers(-5, 6, size=(12, 2, 3)) * 1.0
    last = np.zeros((2, 3))
    currents = np.concatenate([telescoped(phi[:7], steps[:7], last),
                               telescoped(phi[7:], steps[7:], last)])
    np.testing.assert_array_equal(np.cumsum(currents, axis=0),
                                  steps[:, None, None] * phi)


def one_step_windows(state, currents, steps):
    """`lif_step` one step at a time: the spikes and the ASRs."""
    runs = [lif_step(state, current[None], steps[[k]])
            for k, current in enumerate(currents)]
    return (np.concatenate([s for s, _ in runs]),
            np.concatenate([a for _, a in runs]))


def assert_window_is_one_step_windows(shape, currents, out=None):
    """A window of `currents` (read before `out`, which may alias them)
    against one-step windows: spikes, ASRs, potentials and counts, bitwise."""
    steps = np.arange(1.0, len(currents) + 1)
    stepped = LifLayerState.zeros(shape)
    want_spikes, want_asrs = one_step_windows(stepped, np.array(currents),
                                              steps)
    windowed = LifLayerState.zeros(shape)
    spikes, asrs = lif_step(windowed, currents, steps, out)
    if out is not None:
        assert asrs is out
    assert spikes.tobytes() == want_spikes.tobytes()
    assert asrs.tobytes() == want_asrs.tobytes()
    assert windowed.u.tobytes() == stepped.u.tobytes()
    assert windowed.count.tobytes() == stepped.count.tobytes()


def test_zero_dim_layer_updates_bitwise():
    # a layer of one neuron of shape (): its window is (C,), whose rows
    # are scalars unless viewed as (C, 1)
    currents = np.random.default_rng(4).uniform(0.0, 2.0, size=9)
    assert_window_is_one_step_windows((), currents)
    state = LifLayerState.zeros(())
    lif_step(state, currents)
    assert state.count == one_step_windows(
        LifLayerState.zeros(()), currents, np.arange(1.0, 10.0))[0].sum()
    total = np.zeros(())
    means = running_means(currents.copy(), total, np.arange(1.0, 10.0))
    np.testing.assert_array_equal(means, np.cumsum(currents) / np.arange(1, 10))
    assert total == np.cumsum(currents)[-1]


def test_asrs_may_overwrite_the_currents_bitwise():
    currents = np.random.default_rng(5).uniform(-0.5, 2.5, size=(11, 3, 4))
    assert_window_is_one_step_windows((3, 4), currents.copy())
    assert_window_is_one_step_windows((3, 4), currents, out=currents)


def test_stride_zero_drive_bitwise():
    # the input layer's drive: one (B, seq, d) array broadcast over steps
    drive = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 3, 4))
    currents = np.broadcast_to(drive, (13,) + drive.shape)
    assert currents.strides[0] == 0
    assert_window_is_one_step_windows(drive.shape, currents)


@pytest.mark.parametrize("where", ["u", "count", "out"])
def test_non_contiguous_state_or_out_raises(where):
    # a row view of these would be a copy, whose writes would be lost
    currents = np.random.default_rng(7).uniform(0.0, 2.0, size=(5, 3, 4))
    steps = np.arange(1.0, 6.0)
    state = LifLayerState.zeros((3, 4))
    out = np.zeros((5, 3, 4))
    strided = np.zeros((5, 3, 8))[..., :4]
    if where == "out":
        out = strided
    else:
        setattr(state, where, strided[0])
    with pytest.raises(ValueError):
        lif_step(state, currents, steps, out)
    assert not state.u.any() and not state.count.any() and not out.any()
    if where == "out":
        strided[...] = currents
        total = np.zeros((3, 4))
        with pytest.raises(ValueError):
            running_means(strided, total, steps)
        assert strided.tobytes() == currents.tobytes() and not total.any()
