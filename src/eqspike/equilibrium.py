"""Fixed-point solving of the stack's rate equations and convergence traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class EquilibriumSolution:
    asr_star: list
    residual_history: list
    iters_used: int
    converged: bool
    sublayer_asr: dict = field(default_factory=dict)


class ConvergenceError(RuntimeError):
    def __init__(self, residual_history):
        self.residual_history = residual_history
        super().__init__(
            f"fixed-point iteration did not converge; last residual "
            f"{residual_history[-1]:.3e} after {len(residual_history)} iterations")


def solve_fixed_point(stack, tokens, cfg: SolverConfig) -> EquilibriumSolution:
    """Solve the stack's steady-state rate equations by Gauss-Seidel sweeps.

    `tokens` is one sentence (seq,) or a stacked batch (B, seq) of
    equal-length sentences, solved together in one pass; `asr_star` and
    `sublayer_asr` then carry the leading batch axis, and each residual is
    the largest over the batch.  Sentences do not interact, so a batch
    solve equals the per-sentence solves.

    Block i reads only block i-1, so the first sweep already lands on the
    fixed point and the second certifies it with a zero residual.  The
    parameter leaves, each linear's effective weight (so an unfrozen stack
    is quantized once per solve, not once per sweep) and the encoding are
    built once per solve.  Raises ConvergenceError (with the residual
    history attached) when the iteration budget is exhausted.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    state = stack.initial_state(tokens.shape)
    history = []
    with no_grad():
        leaves = stack.param_tensors()
        weights = stack.effective_weights(leaves)
        a0 = stack.encoding(tokens, leaves)
        record = {"input": a0.data}
        for it in range(1, cfg.max_iters + 1):
            state, residual = stack.sweep(a0, state, leaves, weights,
                                           record=record)
            history.append(residual)
            if residual <= cfg.tol:
                return EquilibriumSolution(asr_star=state, residual_history=history,
                                           iters_used=it, converged=True,
                                           sublayer_asr=record)
    raise ConvergenceError(history)


def convergence_trace(stack, tokens, T: int, solver_cfg: SolverConfig | None = None):
    """Temporal simulation trace: (step, layer, mean rate, |mean - target|) rows.

    Targets are the per-layer mean equilibrium rates, so the residual column
    tracks how far each sub-layer still is from its fixed point.
    """
    solver_cfg = solver_cfg or SolverConfig(tol=1e-8)
    sol = solve_fixed_point(stack, tokens, solver_cfg)
    targets = {name: float(np.mean(v)) for name, v in sol.sublayer_asr.items()}
    rows = []
    stack.temporal_simulate(tokens, T, trace=rows, trace_targets=targets)
    return rows, sol


def write_trace_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,layer_name,mean_asr,residual\n")
        for step, layer, mean_asr, resid in rows:
            fh.write(f"{step},{layer},{mean_asr:.12g},{resid:.12g}\n")
