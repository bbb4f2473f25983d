"""Spike-driven operation counting and energy estimation.

Inference firing rate (IFR) is spikes per neuron per timestep.  The
normalized operation count weights each downstream layer's dense synaptic
op count by the firing rate of the layer that drives it, relative to the
total synaptic op count.  Energy applies a 45nm per-accumulate cost:
integer accumulates for quantized weights, floating point for full
precision.  `account` runs one model's spike path and prices it.
"""

from __future__ import annotations

import numpy as np

from .quantizer import OpCounter, QuantMode


class EnergyConfigError(ValueError):
    pass


# 45nm accumulate energies: floating point, and integer (9x cheaper)
FLOAT_ACC_PJ = 0.9
INT_ACC_PJ = 0.1


def compute_ifr(spike_counts: dict, T: int) -> dict:
    """Spikes per neuron per timestep, per layer, of the per-neuron spike
    counts over `T` timesteps; always in [0, 1]."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return {name: float(c.sum()) / (int(c.size) * T)
            for name, c in spike_counts.items()}


def op_table(stack, seq_len: int) -> list:
    """(driving spiking layer, consuming op name, synaptic op count) rows
    of `stack` on sentences of `seq_len` tokens.

    A linear costs its latent weight's fan-in x fan-out per position;
    attention score and mix matrices are counted as equivalent
    accumulates driven by the Q and V neuron layers respectively.  The
    classifier head is included (driven by the final block's output).
    """
    cfg, params = stack.cfg, stack.params
    attention = seq_len * seq_len * cfg.hidden_dim
    rows = []
    for i in range(cfg.num_layers):
        pre = f"blk{i}."
        src = "input" if i == 0 else f"blk{i - 1}.out"

        def linear(driver, nm):
            return driver, pre + nm, seq_len * params[pre + nm + ".w"].size

        rows += [linear(src, "q"), linear(src, "k"), linear(src, "v"),
                 (pre + "q", pre + "score", attention),
                 (pre + "v", pre + "mix", attention),
                 linear(pre + "attn", "o"), linear(pre + "h1", "ff1"),
                 linear(pre + "int", "ff2")]
    rows.append((f"blk{cfg.num_layers - 1}.out", "classifier",
                 params["cls.w"].size))
    return rows


def energy_estimate(spike_counts: dict, T: int, table: list,
                    quantized: bool) -> dict:
    """Dynamic accumulate energy over a T-step inference run.

    `spike_counts` are per-neuron spike counts over `T` timesteps, per
    layer.  `table` rows are `op_table`'s (driving layer, driven op name,
    synaptic op count).  Norm#OPS is the sum of IFR(driver) * ops over the
    total ops; the final layer's outgoing term is naturally absent (it
    drives nothing).  An accumulate costs INT_ACC_PJ when `quantized`, else
    FLOAT_ACC_PJ.  Returns the report `energy_report.json` writes: "ifr"
    per layer, "layer_ops" (dense synaptic count) and "driven_ops"
    (IFR-weighted executed accumulates) per op, "norm_ops",
    "total_energy_pj", "acc_energy_pj" and "metadata".
    """
    ifr = compute_ifr(spike_counts, T)
    per_acc = INT_ACC_PJ if quantized else FLOAT_ACC_PJ
    layer_ops, driven = {}, {}
    num = den = 0.0
    for driver, name, ops in table:
        if driver not in ifr:
            raise EnergyConfigError(f"unknown driving layer {driver!r}")
        rate_ops = ifr[driver] * ops
        num += rate_ops
        den += ops
        layer_ops[name] = layer_ops.get(name, 0) + ops
        driven[name] = driven.get(name, 0.0) + rate_ops * T
    total = sum(driven.values()) * per_acc
    return {"ifr": ifr, "layer_ops": layer_ops, "driven_ops": driven,
            "norm_ops": num / den if den else 0.0,
            "total_energy_pj": total, "acc_energy_pj": per_acc,
            "metadata": {"quantized": quantized,
                         "classifier_head_included": True,
                         "final_layer_outgoing_term": "omitted",
                         "T": T}}


def expected_accumulates(spike_counts: dict, stack) -> dict:
    """Per-linear accumulate counts implied by the spike log.

    Each (spiking input = 1, nonzero weight) pair is one accumulate;
    ternary zero codes contribute nothing.  The nonzeros are counted afresh
    on each linear's `stack.pinned()` codes (the latent weights at full
    precision), and its spikes come from its driving layer in `op_table`.
    Must agree exactly with the counts instrumented inside the inference
    kernel.
    """
    drivers = {name: src for src, name, _ops in op_table(stack, 1)}
    out = {}
    for name, pinned in stack.pinned().items():
        nnz_col = np.count_nonzero(pinned.codes, axis=0)
        counts = spike_counts[drivers[name]]
        out[name] = int((counts.reshape(-1, counts.shape[-1]).sum(axis=0)
                         * nnz_col).sum())
    return out


def account(stack, tokens: np.ndarray, T: int) -> dict:
    """One model's energy account of a T-step run on `tokens` (B, seq):
    {"report": its `energy_estimate` over T * B timesteps at the simulated
    length seq, "kernel_ops": the accumulates the kernel counted,
    "expected_ops": those `expected_accumulates` derives from the spikes}.
    """
    counter = OpCounter()
    _, _, counts = stack.temporal_simulate(tokens, T, counter=counter)
    counts = {k: v.sum(axis=0) for k, v in counts.items()}
    report = energy_estimate(
        counts, T * len(tokens), op_table(stack, tokens.shape[-1]),
        quantized=stack.cfg.quant_mode is not QuantMode.FULL_PRECISION)
    return {"report": report, "kernel_ops": dict(counter.per_layer),
            "expected_ops": expected_accumulates(counts, stack)}
