"""Fixed-point solving of the stack's rate equations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SolverConfig:
    # the bound on max|rate_map(a*) - a*| that certifies a solution a*
    tol: float = 1e-8

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


def solve_fixed_point(stack, tokens, cfg=None) -> EquilibriumSolution:
    """Solve the stack's steady-state rate equations in one forward sweep.

    `tokens` is one sentence (seq,) or a stacked batch (B, seq), as
    `data.stack_items` makes, solved together in one pass; `asr_star` and
    `sublayer_asr` then carry the leading batch axis.  Sentences do not
    interact, so a batch solve equals the per-sentence solves.

    The solve is `stack.sweep` without caches, which lands on the fixed
    point exactly (the `model` module docstring says why); `stack.rate_map`
    certifies it to a `SolverConfig.tol` from outside.  `cfg` is not read;
    it stays for callers that pass a `SolverConfig` positionally.  An
    unfrozen stack is quantized once per solve.  Raises NumericError on a
    non-finite rate.
    """
    record = {}
    rates = stack.sweep(tokens, record)
    return EquilibriumSolution(asr_star=rates, sublayer_asr=record)
