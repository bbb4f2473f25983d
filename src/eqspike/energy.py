"""Spike-driven operation counting and energy estimation.

Inference firing rate (IFR) is spikes per neuron per timestep.  The
normalized operation count weights each downstream layer's dense synaptic
op count by the firing rate of the layer that drives it, relative to the
total synaptic op count.  Energy applies a 45nm per-accumulate cost:
integer accumulates for quantized weights, floating point for full
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EnergyConfigError(ValueError):
    pass


# 45nm accumulate energies: floating point, and integer (9x cheaper)
FLOAT_ACC_PJ = 0.9
INT_ACC_PJ = 0.1


@dataclass
class EnergyReport:
    ifr: dict
    layer_ops: dict          # op name -> dense synaptic count
    driven_ops: dict         # op name -> IFR-weighted executed accumulates
    norm_ops: float
    total_energy_pj: float
    acc_energy_pj: float
    metadata: dict = field(default_factory=dict)


def compute_ifr(spike_counts: dict, T: int) -> dict:
    """Spikes per neuron per timestep, per layer, of the per-neuron spike
    counts over `T` timesteps; always in [0, 1]."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return {name: float(c.sum()) / (int(c.size) * T)
            for name, c in spike_counts.items()}


def energy_estimate(spike_counts: dict, T: int, op_table: list,
                    quantized: bool) -> EnergyReport:
    """Dynamic accumulate energy over a T-step inference run.

    `spike_counts` are per-neuron spike counts over `T` timesteps, per
    layer.  `op_table` rows are (driving layer, driven op name, synaptic op
    count).  Norm#OPS is the sum of IFR(driver) * ops over the total ops;
    the final layer's outgoing term is naturally absent (it drives
    nothing).  An accumulate costs INT_ACC_PJ when `quantized`, else
    FLOAT_ACC_PJ.
    """
    ifr = compute_ifr(spike_counts, T)
    per_acc = INT_ACC_PJ if quantized else FLOAT_ACC_PJ
    layer_ops, driven = {}, {}
    num = den = 0.0
    for driver, name, ops in op_table:
        if driver not in ifr:
            raise EnergyConfigError(f"unknown driving layer {driver!r}")
        rate_ops = ifr[driver] * ops
        num += rate_ops
        den += ops
        layer_ops[name] = layer_ops.get(name, 0) + ops
        driven[name] = driven.get(name, 0.0) + rate_ops * T
    total = sum(driven.values()) * per_acc
    return EnergyReport(
        ifr=ifr, layer_ops=layer_ops, driven_ops=driven,
        norm_ops=num / den if den else 0.0,
        total_energy_pj=total, acc_energy_pj=per_acc,
        metadata={"quantized": quantized,
                  "classifier_head_included": True,
                  "final_layer_outgoing_term": "omitted",
                  "T": T})


def expected_accumulates(spike_counts: dict, stack) -> dict:
    """Per-linear accumulate counts implied by the spike log.

    Each (spiking input = 1, nonzero weight) pair is one accumulate;
    ternary zero codes contribute nothing.  The nonzeros are counted afresh
    on each linear's `stack.pinned()` codes (the latent weights at full
    precision), and its spikes come from its driving layer in
    `stack.linear_op_table`.  Must agree exactly with the counts
    instrumented inside the inference kernel.
    """
    drivers = {name: src for src, name, _ops in stack.linear_op_table(1)}
    out = {}
    for name, pinned in stack.pinned().items():
        nnz_col = np.count_nonzero(pinned.codes, axis=0)
        counts = spike_counts[drivers[name]]
        out[name] = int((counts.reshape(-1, counts.shape[-1]).sum(axis=0)
                         * nnz_col).sum())
    return out
