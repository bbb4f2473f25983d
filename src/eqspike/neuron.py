"""Integrate-and-fire layer dynamics at unit threshold, and running means.

One `LifLayerState` covers a whole layer of neurons (any array shape), and
`lif_step` advances it over a window of timesteps.  Each step: integrate,
fire on strict crossing of the threshold 1, reset by subtracting 1.  The
neurons do not leak: the rate path's clip(a, 0, 1) is their long-run
spiking rate only without leak.  A layer's average spiking rate (ASR)
after t steps is its spike count over t; the counts are exact integers in
float64, so no second running sum is kept.  `running_means` gives the
same running averages of any signal pushed a window at a time, and
`telescoped` the input currents of the neurons behind such a signal.
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


def running_means(window: np.ndarray, total: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """The running mean of a signal after each step of a window, in place.

    `window` is the signal's C steps (C, ...), `steps` (C,) their step
    numbers and `total` its sum over the steps before the window, which is
    advanced in place to the sum through the window's last step.  The sums
    run in step order, one `np.add` per step from row to row of `window`,
    so one window of C steps is bitwise C windows of one; one divide by
    `steps` follows.  The means overwrite `window`, which is returned; a
    ValueError if it cannot be viewed as C rows without a copy.
    """
    C, n = len(window), total.size
    rows = window.reshape(C, n, copy=False)
    acc = total.reshape(n)
    for row in rows:
        acc = np.add(acc, row, row)
    np.copyto(total, window[-1, ...])
    np.divide(rows, steps[:, None], out=rows)
    return window


def telescoped(phi: np.ndarray, steps: np.ndarray,
               last: np.ndarray) -> np.ndarray:
    """Input currents of the neurons behind a nonlinear surrogate.

    The surrogates (attention mix, normalization) are driven so that their
    integrated input current through step t equals t * phi_t, phi_t the
    surrogate of the running averages at t: the current at step t is
    t * phi_t - (t - 1) * phi_{t-1}.  That telescoping keeps the temporal
    path converging at the 1/T rate of the rate averages themselves
    instead of accumulating burn-in error.

    `phi` is a window's C steps (C, ...), `steps` (C,) their numbers and
    `last` phi before the window, advanced in place to its last step: zeros
    before step 1, where subtracting 0 * 0 leaves phi_1 bitwise, -0.0
    included.  One window of C steps is bitwise C windows of one.
    """
    ts = steps.reshape((-1,) + (1,) * (phi.ndim - 1))
    current = ts * phi
    current[1:] -= (ts[1:] - 1.0) * phi[:-1]
    current[0] -= (ts[0] - 1.0) * last
    np.copyto(last, phi[-1])
    return current


def lif_step(state: LifLayerState, currents: np.ndarray,
             steps: np.ndarray | None = None,
             out: np.ndarray | None = None):
    """Advance the layer over a window of C timesteps (in place).

    `currents` is (C, *shape), one input current per step.  Only the
    membrane recurrence loops over the steps, on row views of the state,
    in four numpy operations a step: `np.add` of the current into
    `state.u`, `np.greater` into the bool spike row, a copy of those
    spikes as 0/1 into one float64 reset buffer, and `np.subtract` of it.
    Each ufunc, here and in `running_means`, gets its output positionally,
    which costs less per call than the `out=` keyword.  So a step
    allocates nothing and runs no ufunc that mixes bool and
    float64 (`u -= fired` gives the same bits, but its casting loop costs
    more than the copy).  Returns (spikes, asrs): the bool spikes (C,
    *shape) and, given the window's step numbers `steps` (C,), the ASR
    after each step (C, *shape), else None.  With `steps`, a fifth
    operation a step adds the reset buffer to the running spike count in
    that step's row of the ASRs, and one divide by `steps` follows;
    without them the window's spikes are summed into `state.count` once.
    The ASRs go into `out`, a float64 array of the currents' shape, which
    may be `currents` itself once the caller is done with them (each
    step's current is read before its ASR is written); by default a new
    array.  A ValueError if `state.u`, `state.count` or `out` cannot be
    viewed as rows without a copy, whose writes would be lost.  One
    window of C steps is bitwise C windows of one.

    Firing uses a strict u > 1 comparison; u == 1 does not fire.  The
    currents are not checked: a NaN or infinite current leaves `state.u`
    non-finite from then on, so the caller checks `u` once at the end of a
    run.
    """
    currents = np.asarray(currents, dtype=np.float64)
    if currents.shape[1:] != state.u.shape:
        raise ValueError(f"current shape {currents.shape} vs window of "
                         f"neurons {state.u.shape}")
    C, n = len(currents), state.u.size
    u, count = (a.reshape(n, copy=False) for a in (state.u, state.count))
    spikes = np.empty((C, n), dtype=bool)
    reset = np.empty(n)
    asrs, rows, total = None, (None,) * C, count
    if steps is not None:
        asrs = np.empty(currents.shape) if out is None else out
        rows = asrs.reshape(C, n, copy=False)
    for current, fired, row in zip(currents.reshape(C, n), spikes, rows):
        np.add(u, current, u)
        np.greater(u, 1.0, fired)
        reset[...] = fired
        np.subtract(u, reset, u)
        if row is not None:
            total = np.add(total, reset, row)
    if asrs is None:
        count += spikes.sum(axis=0, dtype=np.float64)
    else:
        count[...] = total
        np.divide(rows, steps[:, None], out=rows)
    return spikes.reshape(currents.shape), asrs
