"""Fixed-point solving of the stack's rate equations and convergence traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad


@dataclass(frozen=True)
class SolverConfig:
    # the bound on max|rate_map(a*) - a*| that certifies a solution a*
    tol: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0:  # rejects NaN too
            raise ValueError("tol must be positive")


@dataclass
class EquilibriumSolution:
    asr_star: list
    sublayer_asr: dict = field(default_factory=dict)
    # a solve is one sweep, and a solve that returns has converged
    iters_used = 1
    converged = True


def solve_fixed_point(stack, tokens, cfg: SolverConfig) -> EquilibriumSolution:
    """Solve the stack's steady-state rate equations in one forward sweep.

    `tokens` is one sentence (seq,) or a stacked batch (B, seq) of
    equal-length sentences, solved together in one pass; `asr_star` and
    `sublayer_asr` then carry the leading batch axis.  Sentences do not
    interact, so a batch solve equals the per-sentence solves.

    The solve is `stack.sweep` untaped: block i reads only block i-1, so
    it lands on the fixed point exactly; `stack.rate_map` certifies it to
    `cfg.tol` from outside.  An unfrozen stack is quantized once per solve.
    Raises NumericError on a non-finite rate.
    """
    record = {}
    with no_grad():
        rates = stack.sweep(tokens, stack.param_tensors(), record)
    return EquilibriumSolution(asr_star=[a.data for a in rates],
                               sublayer_asr=record)


def convergence_trace(stack, tokens, T: int, solver_cfg: SolverConfig | None = None):
    """Temporal simulation trace: (step, layer, mean rate, |mean - target|) rows.

    Targets are the per-layer mean equilibrium rates, so the residual column
    tracks how far each sub-layer still is from its fixed point.  Returns
    the rows, the equilibrium solution and the `temporal_simulate` result
    (logits, ASRs, spike counts) of the traced run.
    """
    solver_cfg = solver_cfg or SolverConfig(tol=1e-8)
    sol = solve_fixed_point(stack, tokens, solver_cfg)
    targets = {name: float(np.mean(v)) for name, v in sol.sublayer_asr.items()}
    rows = []
    result = stack.temporal_simulate(tokens, T, trace=rows, trace_targets=targets)
    return rows, sol, result


def write_trace_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,layer_name,mean_asr,residual\n")
        for step, layer, mean_asr, resid in rows:
            fh.write(f"{step},{layer},{mean_asr:.12g},{resid:.12g}\n")
