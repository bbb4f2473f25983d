"""Spike-driven operation counting and energy estimation.

Inference firing rate (IFR) is spikes per neuron per timestep.  The
normalized operation count weights each downstream layer's dense synaptic
op count by the firing rate of the layer that drives it, relative to the
total synaptic op count.  Energy applies a per-accumulate cost from a
technology profile: integer accumulates for quantized weights, floating
point for full precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EnergyConfigError(ValueError):
    pass


@dataclass
class SpikeStats:
    spike_totals: dict      # layer name -> total spike count over T steps
    neuron_counts: dict     # layer name -> number of neurons
    T: int

    @classmethod
    def from_counts(cls, spike_counts: dict, T: int) -> "SpikeStats":
        return cls(spike_totals={k: float(v.sum()) for k, v in spike_counts.items()},
                   neuron_counts={k: int(v.size) for k, v in spike_counts.items()},
                   T=T)


@dataclass
class TechnologyProfile:
    float_acc_pj: float = 0.9   # 45nm float accumulate
    int_acc_pj: float = 0.1     # 45nm integer accumulate (9x cheaper)


@dataclass
class EnergyReport:
    ifr: dict
    layer_ops: dict          # op name -> dense synaptic count
    driven_ops: dict         # op name -> IFR-weighted executed accumulates
    norm_ops: float
    total_energy_pj: float
    acc_energy_pj: float
    metadata: dict = field(default_factory=dict)


def compute_ifr(stats: SpikeStats) -> dict:
    """Spikes per neuron per timestep, per layer; always in [0, 1]."""
    if stats.T < 1:
        raise ValueError("T must be >= 1")
    return {name: stats.spike_totals[name] / (stats.neuron_counts[name] * stats.T)
            for name in stats.spike_totals}


def energy_estimate(stats: SpikeStats, op_table: list, quantized: bool,
                    profile: TechnologyProfile | None = None) -> EnergyReport:
    """Dynamic accumulate energy over a T-step inference run.

    `op_table` rows are (driving layer, driven op name, synaptic op count).
    Norm#OPS is the sum of IFR(driver) * ops over the total ops; the final
    layer's outgoing term is naturally absent (it drives nothing).
    """
    profile = profile or TechnologyProfile()
    if profile.int_acc_pj <= 0 or profile.float_acc_pj <= 0:
        raise EnergyConfigError("technology profile energies must be positive")
    ifr = compute_ifr(stats)
    per_acc = profile.int_acc_pj if quantized else profile.float_acc_pj
    layer_ops, driven = {}, {}
    num = den = 0.0
    for driver, name, ops in op_table:
        if driver not in ifr:
            raise EnergyConfigError(f"unknown driving layer {driver!r}")
        rate_ops = ifr[driver] * ops
        num += rate_ops
        den += ops
        layer_ops[name] = layer_ops.get(name, 0) + ops
        driven[name] = driven.get(name, 0.0) + rate_ops * stats.T
    total = sum(driven.values()) * per_acc
    return EnergyReport(
        ifr=ifr, layer_ops=layer_ops, driven_ops=driven,
        norm_ops=num / den if den else 0.0,
        total_energy_pj=total, acc_energy_pj=per_acc,
        metadata={"quantized": quantized,
                  "classifier_head_included": True,
                  "final_layer_outgoing_term": "omitted",
                  "T": stats.T})


def expected_accumulates(spike_counts: dict, stack) -> dict:
    """Per-linear accumulate counts implied by the spike log.

    Each (spiking input = 1, nonzero weight) pair is one accumulate;
    ternary zero codes contribute nothing.  A linear's spikes come from
    its driving layer in `stack.linear_op_table`.  Must agree exactly with
    the counts instrumented inside the inference kernel.
    """
    from .quantizer import QuantMode

    drivers = {name: src for src, name, _ops in stack.linear_op_table(1)}
    out = {}
    for name, lin in stack.linears.items():
        w = lin.codes() if lin.mode is not QuantMode.FULL_PRECISION \
            else lin.latent_w
        nnz_col = np.count_nonzero(w, axis=0)
        counts = spike_counts[drivers[name]]
        out[name] = int((counts.reshape(-1, counts.shape[-1]).sum(axis=0)
                         * nnz_col).sum())
    return out
