import numpy as np
import pytest

from eqspike.equilibrium import (ConvergenceError, SolverConfig,
                                 convergence_trace, solve_fixed_point,
                                 write_trace_csv)
from eqspike.model import EncoderStack, StackConfig
from eqspike.quantizer import QuantMode


def small_stack(seed=0, mode=QuantMode.FULL_PRECISION):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": 0.0},
                                 {"max_iters": -3}, {"tol": -1e-6}])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_solve_raises_when_iteration_budget_runs_out():
    # one sweep lands on a* but cannot certify it: the residual is |a* - 0|
    with pytest.raises(ConvergenceError) as err:
        solve_fixed_point(small_stack(), np.array([2, 4, 5]),
                          SolverConfig(max_iters=1))
    assert len(err.value.residual_history) == 1
    assert err.value.residual_history[0] > 0.0


def test_solve_builds_leaves_once_and_runs_two_sweeps(monkeypatch):
    stack = small_stack()
    calls = {"param_tensors": 0, "block_forward": 0}
    for name in calls:
        def counted(self, *args, _orig=getattr(EncoderStack, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(EncoderStack, name, counted)
    solve_fixed_point(stack, np.array([2, 4, 5]), SolverConfig(tol=1e-12))
    assert calls == {"param_tensors": 1,
                     "block_forward": 2 * stack.cfg.num_layers}


def test_stack_fixed_point_is_self_consistent():
    stack = small_stack()
    tokens = np.array([2, 4, 5, 6])
    sol = solve_fixed_point(stack, tokens, SolverConfig(tol=1e-10))
    assert sol.converged
    # a* must be invariant under one more application of the rate map
    again = stack.rate_map(tokens, [a.copy() for a in sol.asr_star])
    for a, b in zip(sol.asr_star, again):
        np.testing.assert_allclose(a, b, atol=1e-9)
    assert all(0.0 <= a.min() and a.max() <= 1.0 for a in sol.asr_star)


def test_feedforward_stack_converges_in_depth_iterations():
    # Information flows strictly forward through the blocks, so undamped
    # Gauss-Seidel settles in one sweep and certifies on the second.
    stack = small_stack()
    sol = solve_fixed_point(stack, np.array([2, 4, 5]), SolverConfig(tol=1e-12))
    assert sol.iters_used == 2
    assert sol.residual_history[-1] == 0.0


def test_solution_records_sublayer_rates():
    stack = small_stack()
    sol = solve_fixed_point(stack, np.array([2, 4]), SolverConfig(tol=1e-10))
    for i in range(stack.cfg.num_layers):
        for sub in ("q", "k", "v", "attn", "h1", "int", "out"):
            assert f"blk{i}.{sub}" in sol.sublayer_asr


def test_convergence_trace_rows_and_csv(tmp_path):
    stack = small_stack()
    rows, sol = convergence_trace(stack, np.array([2, 4, 5]), T=20)
    steps = sorted({r[0] for r in rows})
    assert steps == list(range(1, 21))
    layers = {r[1] for r in rows}
    assert "input" in layers and any(l.startswith("blk") for l in layers)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,layer_name,mean_asr,residual"
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    float(first[2]), float(first[3])  # numeric columns parse
