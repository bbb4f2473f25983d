"""Per-layer metrics derived from a traced run's spans and counters.

Each entry names the end-to-end metric it should move in the README's
layer map.  Times are summed over the traced run's fixed amount of work;
counts repeat exactly between runs of one commit and seed.
"""

from __future__ import annotations

import numpy as np
from tracer import QUANTIZERS

# name -> (unit, better); the order is the order printed
PER_LAYER = {
    "pipeline.train_teacher_s": ("s", "lower"),
    "pipeline.distill_student_s": ("s", "lower"),
    "pipeline.finetune_student_s": ("s", "lower"),
    "pipeline.student_accuracy_s": ("s", "lower"),
    "pipeline.energy_compare_s": ("s", "lower"),
    "data.make_dataset_ms": ("ms", "lower"),
    "checkpoint.save_student_ms": ("ms", "lower"),
    "checkpoint.load_student_ms": ("ms", "lower"),
    "quantizer.pack_codes_ms": ("ms", "lower"),
    "quantizer.unpack_codes_ms": ("ms", "lower"),
    "implicit_grad.training_step.calls": ("count", "lower"),
    "implicit_grad.training_step_ms_p50": ("ms", "lower"),
    "implicit_grad.training_step_ms_p90": ("ms", "lower"),
    "implicit_grad.example_gradients.self_ms": ("ms", "lower"),
    "implicit_grad.vjp_terms_per_example": ("ratio", "lower"),
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.backward.self_ms": ("ms", "lower"),
    "autodiff.backward_per_example": ("ratio", "lower"),
    "numerics.adam_step_many.self_ms": ("ms", "lower"),
    "distill.evaluate_kd_loss.self_ms": ("ms", "lower"),
    "model.teacher_forward.calls": ("count", "lower"),
    "equilibrium.solve_fixed_point.calls": ("count", "lower"),
    "equilibrium.solve_fixed_point.self_ms": ("ms", "lower"),
    "equilibrium.sweeps_per_solve": ("ratio", "lower"),
    "model.sweep.calls": ("count", "lower"),
    "model.param_tensors.calls": ("count", "lower"),
    "model.block_forward.calls": ("count", "lower"),
    "model.block_forward.self_ms": ("ms", "lower"),
    "model.spiking_attention.self_ms": ("ms", "lower"),
    "model.temporal_simulate.self_ms": ("ms", "lower"),
    "quantizer.quantize.calls": ("count", "lower"),
    "quantizer.quantize.self_ms": ("ms", "lower"),
    "quantizer.requant_useful_frac": ("frac", "higher"),
    "quantizer.quantized_forward.calls": ("count", "lower"),
    "quantizer.quantized_forward.self_ms": ("ms", "lower"),
    "neuron.lif_step.calls": ("count", "lower"),
    "neuron.lif_step.self_ms": ("ms", "lower"),
    "energy.kernel_ops": ("count", "lower"),
    "energy.expected_accumulates_ms": ("ms", "lower"),
    "traced.latency_ms_p50": ("ms", "lower"),
}


def percentile(samples, p) -> float:
    return float(np.percentile(samples, p)) if len(samples) else 0.0


def layer_metrics(summary: dict, tracer, traced_latency_ms: float) -> dict:
    """Every PER_LAYER metric from `Tracer.summary()` and the tracer's counts."""

    def rec(name):
        return summary.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0,
                                  "outer_ns": 0, "durations_ns": []})

    def calls(*names):
        return sum(rec(n)["calls"] for n in names)

    def self_ms(*names):
        return sum(rec(n)["self_ns"] for n in names) / 1e6

    def incl_ms(name):
        return rec(name)["incl_ns"] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    steps_ms = [d / 1e6 for d in rec("implicit_grad.training_step")["durations_ns"]]
    quantize_calls = calls(*QUANTIZERS)
    linears = tracer.weight_versions
    values = {
        "pipeline.train_teacher_s": incl_ms("pipeline.train_teacher") / 1e3,
        "pipeline.distill_student_s": incl_ms("pipeline.distill_student") / 1e3,
        "pipeline.finetune_student_s": incl_ms("pipeline.finetune_student") / 1e3,
        "pipeline.student_accuracy_s": incl_ms("pipeline.student_accuracy") / 1e3,
        "pipeline.energy_compare_s": incl_ms("pipeline.energy_compare") / 1e3,
        # busy time of the data layer: its spans not nested in another of its own
        "data.make_dataset_ms": sum(r["outer_ns"] for n, r in summary.items()
                                    if n.startswith("data.")) / 1e6,
        "checkpoint.save_student_ms": incl_ms("checkpoint.save_student"),
        "checkpoint.load_student_ms": incl_ms("checkpoint.load_student"),
        "quantizer.pack_codes_ms": incl_ms("quantizer.pack_codes"),
        "quantizer.unpack_codes_ms": incl_ms("quantizer.unpack_codes"),
        "implicit_grad.training_step.calls": calls("implicit_grad.training_step"),
        "implicit_grad.training_step_ms_p50": percentile(steps_ms, 50),
        "implicit_grad.training_step_ms_p90": percentile(steps_ms, 90),
        "implicit_grad.example_gradients.self_ms":
            self_ms("implicit_grad.example_gradients"),
        "implicit_grad.vjp_terms_per_example": ratio(
            tracer.counts["implicit_grad.f_jacobian_vjp"],
            calls("implicit_grad.implicit_vjp")),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_ms": self_ms("autodiff.backward"),
        "autodiff.backward_per_example": ratio(
            calls("autodiff.backward"), calls("implicit_grad.example_gradients")),
        "numerics.adam_step_many.self_ms": self_ms("numerics.adam_step_many"),
        "distill.evaluate_kd_loss.self_ms": self_ms("distill.evaluate_kd_loss"),
        "model.teacher_forward.calls": calls("model.teacher_forward"),
        "equilibrium.solve_fixed_point.calls": calls("equilibrium.solve_fixed_point"),
        "equilibrium.solve_fixed_point.self_ms":
            self_ms("equilibrium.solve_fixed_point"),
        "equilibrium.sweeps_per_solve": ratio(
            tracer.counts["equilibrium.sweeps"],
            calls("equilibrium.solve_fixed_point")),
        "model.sweep.calls": calls("model.EncoderStack.sweep"),
        "model.param_tensors.calls": calls("model.EncoderStack.param_tensors"),
        "model.block_forward.calls": calls("model.EncoderStack.block_forward"),
        "model.block_forward.self_ms": self_ms("model.EncoderStack.block_forward"),
        "model.spiking_attention.self_ms": self_ms("model.spiking_attention"),
        "model.temporal_simulate.self_ms":
            self_ms("model.EncoderStack.temporal_simulate"),
        "quantizer.quantize.calls": quantize_calls,
        "quantizer.quantize.self_ms": self_ms(*QUANTIZERS),
        # distinct (set-up, linear, latent-weight version) per quantize call
        "quantizer.requant_useful_frac": ratio(linears, quantize_calls),
        "quantizer.quantized_forward.calls": calls("quantizer.quantized_forward"),
        "quantizer.quantized_forward.self_ms": self_ms("quantizer.quantized_forward"),
        "neuron.lif_step.calls": calls("neuron.lif_step"),
        "neuron.lif_step.self_ms": self_ms("neuron.lif_step"),
        "energy.kernel_ops": tracer.counts["energy.kernel_ops"],
        "energy.expected_accumulates_ms": incl_ms("energy.expected_accumulates"),
        "traced.latency_ms_p50": traced_latency_ms,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}


def count_failures(workload, summary: dict, tracer, ops: int) -> list:
    """The traced run's call-count assertions, as failure messages."""
    failed = []
    if tracer.counts["equilibrium.not_converged"]:
        failed.append(f"{tracer.counts['equilibrium.not_converged']} solves "
                      "returned without converging")
    for name, want in workload.expected_counts(ops).items():
        got = summary.get(name, {"calls": 0})["calls"]
        if got != want:
            failed.append(f"{name}: {got} calls, the workload implies {want}")
    for name in workload.must_trace:
        if name not in summary:
            failed.append(f"{name}: never traced; a binding was missed")
    return failed
