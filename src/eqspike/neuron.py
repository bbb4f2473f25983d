"""Leaky integrate-and-fire layer dynamics and average-spiking-rate tracking.

One `LifLayerState` covers a whole layer of neurons (any array shape).
Each step: leak + integrate, fire on strict threshold crossing, reset by
threshold subtraction, then fold the new spikes into the leak-weighted
spiking-rate average.  Spikes are bool arrays.
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
class LifLayerState:
    u: np.ndarray
    s: np.ndarray
    asr_num: np.ndarray
    asr_den: float = 0.0
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "LifLayerState":
        return cls(u=np.zeros(shape), s=np.zeros(shape, dtype=bool),
                   asr_num=np.zeros(shape))


def lif_step(state: LifLayerState, input_current: np.ndarray,
             cfg: LifConfig) -> LifLayerState:
    """Advance the layer one timestep under `input_current` (in place).

    Firing uses a strict u > v_th comparison; u == v_th does not fire.
    The new spikes `state.s` are bool.  The current is not checked: a NaN
    or infinite current leaves `state.u` non-finite from then on, so the
    caller checks `u` once at the end of a run.
    """
    current = np.asarray(input_current, dtype=np.float64)
    if current.shape != state.u.shape:
        raise ValueError(f"current shape {current.shape} vs neurons {state.u.shape}")
    u_mid = cfg.gamma * state.u + current
    spikes = u_mid > cfg.v_th
    state.u = u_mid - cfg.v_th * spikes
    state.s = spikes
    state.asr_num = cfg.gamma * state.asr_num + spikes
    state.asr_den = cfg.gamma * state.asr_den + 1.0
    state.t += 1
    return state


def asr(state: LifLayerState) -> np.ndarray:
    """Leak-weighted average spiking rate; defined only after the first step."""
    if state.t < 1:
        raise ValueError("ASR undefined before the first timestep")
    return state.asr_num / state.asr_den


@dataclass
class RunningAverage:
    """Leak-weighted running average of a real-valued signal.

    Same weighting as the spike-rate average; used for pre-normalization
    currents whose long-run mean feeds a nonlinear surrogate.
    """
    gamma: float
    num: np.ndarray = field(default=None)
    den: float = 0.0

    def push(self, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if self.num is None:
            self.num = np.zeros_like(value)
        self.num = self.gamma * self.num + value
        self.den = self.gamma * self.den + 1.0
        return self.num / self.den

    @property
    def value(self) -> np.ndarray:
        return self.num / self.den
