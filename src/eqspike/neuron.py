"""Integrate-and-fire layer dynamics at unit threshold, and running means.

One `LifLayerState` covers a whole layer of neurons (any array shape), and
`lif_step` advances it over a window of timesteps.  Each step: integrate,
fire on strict crossing of the threshold 1, reset by subtracting 1.  The
neurons do not leak: the rate path's clip(a, 0, 1) is their long-run
spiking rate only without leak.  A layer's average spiking rate (ASR)
after t steps is its spike count over t; the counts are exact integers in
float64, so no second running sum is kept.  `running_means` gives the
same running averages of any signal pushed a window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LifLayerState:
    """A layer's membrane potentials and spike counts."""
    u: np.ndarray
    count: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "LifLayerState":
        """A layer at rest."""
        return cls(u=np.zeros(shape), count=np.zeros(shape))


def running_means(window: np.ndarray, total: np.ndarray, steps: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The running mean of a signal after each step of a window.

    `window` is the signal's C steps (C, ...), `steps` (C,) their step
    numbers and `total` its sum over the steps before the window, which is
    advanced in place to the sum through the window's last step.  The sums
    run in step order, so one window of C steps is bitwise C windows of
    one.  The means go into `out`, by default `window` itself.
    """
    out = window if out is None else out
    np.add(total, window[0, ...], out=out[0, ...])
    for k in range(1, len(window)):
        np.add(out[k - 1, ...], window[k, ...], out=out[k, ...])
    np.copyto(total, out[-1, ...])
    out /= steps.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def lif_step(state: LifLayerState, currents: np.ndarray,
             steps: np.ndarray | None = None):
    """Advance the layer over a window of C timesteps (in place).

    `currents` is (C, *shape), one input current per step.  Only the
    membrane recurrence loops over the steps, with in-place ufuncs on
    `state.u`: each step's spikes go into the bool window, are copied as
    0/1 into one float64 reset buffer and subtracted, so a step allocates
    nothing and multiplies no bool by a float.  Returns (spikes, asrs): the
    bool spikes (C, *shape) and, given the window's step numbers `steps`
    (C,), the ASR after each step (C, *shape), else None.  One window of C
    steps is bitwise C windows of one.

    Firing uses a strict u > 1 comparison; u == 1 does not fire.  The
    currents are not checked: a NaN or infinite current leaves `state.u`
    non-finite from then on, so the caller checks `u` once at the end of a
    run.
    """
    currents = np.asarray(currents, dtype=np.float64)
    if currents.shape[1:] != state.u.shape:
        raise ValueError(f"current shape {currents.shape} vs window of "
                         f"neurons {state.u.shape}")
    spikes = np.empty(currents.shape, dtype=bool)
    reset = np.empty(state.u.shape)
    u = state.u
    for k in range(len(currents)):
        fired = spikes[k, ...]
        u += currents[k, ...]
        np.greater(u, 1.0, out=fired)
        np.copyto(reset, fired)
        u -= reset
    if steps is None:
        state.count += spikes.sum(axis=0, dtype=np.float64)
        return spikes, None
    return spikes, running_means(spikes, state.count, steps,
                                 np.empty(spikes.shape))
