"""Leaky integrate-and-fire layer dynamics and average-spiking-rate tracking.

One `LifLayerState` covers a whole layer of neurons (any array shape), and
`lif_step` advances it over a window of timesteps.  Each step: leak +
integrate, fire on strict threshold crossing, reset by threshold
subtraction.  The window's spikes (bool) are then summed into the layer's
spike counts and folded into its leak-weighted spiking-rate average, a
`RunningAverage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LifConfig:
    gamma: float = 1.0
    v_th: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")


@dataclass
class RunningAverage:
    """Leak-weighted running average of a signal, pushed a window at a time.

    After steps x_1..x_t it is num_t / den_t, with num_t = gamma * num_{t-1}
    + x_t and den_t = gamma * den_{t-1} + 1.  The average spiking rate (ASR)
    of a LIF layer is this average of its spikes; the spike path also
    averages its pre-normalization currents with it.
    """
    gamma: float
    num: np.ndarray = field(default=None)
    den: float = 0.0

    def push(self, window: np.ndarray, per_step: bool = True,
             total: np.ndarray | None = None):
        """Fold the C steps of `window` (C, ...) in, in step order.

        Returns the average after each step, (C, ...), or None when not
        `per_step`.  The numerators follow the recurrence step by step, so
        one window of C steps gives bitwise the averages of C windows of
        one step.  `total`, when given, is the window's float64 sum over
        its steps, and every partial sum of the window must be exact (as
        for spike counts): at gamma = 1 and not `per_step` the numerator
        then takes it in one add, bitwise the step-ordered fold.
        """
        window = np.asarray(window)
        gamma, num, den = self.gamma, self.num, self.den
        if num is None:
            num = np.zeros(window.shape[1:])
        if total is not None and gamma == 1.0 and not per_step:
            self.num, self.den = num + total, den + len(window)
            return None
        nums = np.empty(window.shape) if per_step else None
        dens = np.empty(len(window))
        for k in range(len(window)):
            # gamma * num is num itself at gamma = 1, so that product is skipped
            num = np.add(num if gamma == 1.0 else gamma * num, window[k, ...],
                         out=None if nums is None else nums[k, ...])
            den = dens[k] = gamma * den + 1.0
        # a copy, so that the window's numerators are not kept alive
        self.num = num if nums is None else nums[-1].copy()
        self.den = den
        if per_step:
            nums /= dens.reshape((-1,) + (1,) * (nums.ndim - 1))
            return nums
        return None

    @property
    def value(self) -> np.ndarray:
        """The current average; defined only after the first step."""
        if self.den == 0.0:
            raise ValueError("average undefined before the first timestep")
        return self.num / self.den


@dataclass
class LifLayerState:
    """A layer's membrane potentials, spike counts and spiking-rate average."""
    u: np.ndarray
    rate: RunningAverage
    count: np.ndarray

    @classmethod
    def zeros(cls, shape, gamma: float = 1.0) -> "LifLayerState":
        """A layer at rest; its ASR leaks at `gamma` (the `LifConfig`'s)."""
        return cls(u=np.zeros(shape), rate=RunningAverage(gamma),
                   count=np.zeros(shape))


def lif_step(state: LifLayerState, currents: np.ndarray, cfg: LifConfig,
             per_step_asr: bool = False):
    """Advance the layer over a window of C timesteps (in place).

    `currents` is (C, *shape), one input current per step.  Only the
    membrane recurrence loops over the steps, with in-place ufuncs on
    `state.u`: each step's spikes go into the bool window, are copied as
    0/1 into one float64 reset buffer (scaled by v_th when v_th != 1) and
    subtracted, so a step allocates nothing and multiplies no bool by a
    float.  The window's spikes are then reduced once into `state.count`;
    at gamma = 1 without per-step ASRs that same sum is the rate's whole
    update, otherwise the window is folded into `state.rate` step by step.
    Returns (spikes, asrs): the bool spikes (C, *shape) and, when
    `per_step_asr`, the ASR after each step (C, *shape), else None.  One
    window of C steps is bitwise C windows of one step.

    Firing uses a strict u > v_th comparison; u == v_th does not fire.
    The currents are not checked: a NaN or infinite current leaves
    `state.u` non-finite from then on, so the caller checks `u` once at the
    end of a run.
    """
    currents = np.asarray(currents, dtype=np.float64)
    if currents.shape[1:] != state.u.shape:
        raise ValueError(f"current shape {currents.shape} vs window of "
                         f"neurons {state.u.shape}")
    gamma, v_th = cfg.gamma, cfg.v_th
    spikes = np.empty(currents.shape, dtype=bool)
    reset = np.empty(state.u.shape)
    u = state.u
    for k in range(len(currents)):
        fired = spikes[k, ...]
        if gamma != 1.0:
            u *= gamma
        u += currents[k, ...]
        np.greater(u, v_th, out=fired)
        np.copyto(reset, fired)
        if v_th != 1.0:
            reset *= v_th
        u -= reset
    total = spikes.sum(axis=0, dtype=np.float64)
    state.count += total
    return spikes, state.rate.push(spikes, per_step_asr, total)
