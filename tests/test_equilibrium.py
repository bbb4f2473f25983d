import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike import quantizer
from eqspike.cli import write_trace_csv
from eqspike.equilibrium import SolverConfig, solve_fixed_point
from eqspike.model import EncoderStack, StackConfig
from eqspike.numerics import NumericError
from eqspike.quantizer import QuantMode


def small_stack(seed=0, mode=QuantMode.FULL_PRECISION):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("bad", [{"tol": float("nan")}, {"tol": 0.0},
                                 {"tol": -np.inf}, {"tol": -1e-6}])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_certification_tolerance_is_1e_8_without_a_config_key():
    # the bound the config's removed solver.tol always supplied
    tol = pl.solver_config(pl.load_config(None)).tol
    assert tol == 1e-8 == SolverConfig().tol


def test_solve_builds_leaves_once_and_runs_one_sweep(monkeypatch):
    # the effective weights are built once per solve
    stack = small_stack()
    calls = {"effective_weights": 0, "block_forward": 0}
    for name in calls:
        def counted(self, *args, _orig=getattr(EncoderStack, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(EncoderStack, name, counted)
    sol = solve_fixed_point(stack, np.array([2, 4, 5]))
    assert calls == {"effective_weights": 1,
                     "block_forward": stack.cfg.num_layers}
    assert sol.iters_used == 1 and sol.converged


def test_stack_fixed_point_is_self_consistent():
    stack = small_stack()
    tokens = np.array([2, 4, 5, 6])
    sol = solve_fixed_point(stack, tokens)
    assert sol.converged
    # a* must be invariant under one more application of the rate map
    again = stack.rate_map(tokens, [a.copy() for a in sol.asr_star])
    for a, b in zip(sol.asr_star, again):
        np.testing.assert_allclose(a, b, atol=1e-9)
    assert all(0.0 <= a.min() and a.max() <= 1.0 for a in sol.asr_star)


def test_feedforward_stack_converges_in_depth_iterations():
    # Information flows strictly forward through the blocks, so one sweep
    # of the L blocks lands exactly on the fixed point.
    stack = small_stack()
    tokens = np.array([2, 4, 5])
    sol = solve_fixed_point(stack, tokens)
    for got, want in zip(stack.rate_map(tokens, sol.asr_star), sol.asr_star):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["tok_emb", "blk1.ff2.w"])
def test_non_finite_rate_is_numeric_error(name):
    stack = small_stack()
    stack.params[name][2, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite rates"):
        solve_fixed_point(stack, np.array([2, 4, 5]))


def test_solution_records_sublayer_rates():
    stack = small_stack()
    sol = solve_fixed_point(stack, np.array([2, 4]))
    for i in range(stack.cfg.num_layers):
        for sub in ("q", "k", "v", "attn", "h1", "int", "out"):
            assert f"blk{i}.{sub}" in sol.sublayer_asr


def test_convergence_trace_rows_and_csv(tmp_path):
    stack = small_stack()
    rows, _summary = pl.simulate(None, stack, np.array([2, 4, 5]), T=20)
    # the rows trace against each layer's mean equilibrium rate, and the
    # traced run's result is the untraced simulation's
    sol = solve_fixed_point(stack, np.array([2, 4, 5]))
    targets = {name: float(np.mean(v)) for name, v in sol.sublayer_asr.items()}
    trace = []
    logits, counts = stack.temporal_simulate(np.array([2, 4, 5]), T=20,
                                             trace=trace)
    assert [(t, name, m, abs(m - targets[name])) for t, name, m in trace] \
        == rows
    want_logits, want_counts = stack.temporal_simulate(np.array([2, 4, 5]),
                                                       T=20)
    np.testing.assert_array_equal(logits, want_logits)
    assert list(counts) == list(want_counts)
    for name in want_counts:
        np.testing.assert_array_equal(counts[name], want_counts[name])
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


def test_pipeline_simulate_runs_one_simulation(monkeypatch):
    stack = small_stack(seed=3, mode=QuantMode.TERNARY_158BIT)
    cfg = pl.load_config(None, {})
    tokens, T = np.array([2, 4, 5]), 20
    # the summary as solve and an untraced simulation give it
    sol = solve_fixed_point(stack, tokens)
    _, counts = stack.temporal_simulate(tokens, T)
    want = {
        f"layer_{i}": float(np.mean(np.abs(counts[f"blk{i}.out"] / T - a)))
        for i, a in enumerate(sol.asr_star)}
    calls = []
    simulate = EncoderStack.temporal_simulate

    def counted(self, *args, **kwargs):
        calls.append(args)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(EncoderStack, "temporal_simulate", counted)
    rows, summary = pl.simulate(cfg, stack, tokens, T)
    assert len(calls) == 1
    assert len(rows) == T * len(counts)
    assert summary == {"T": T, "mean_abs_deviation": want,
                       "max_mean_abs_deviation": max(want.values())}


@pytest.mark.parametrize("mode", list(QuantMode), ids=lambda m: m.value)
def test_batch_solve_equals_per_sentence_solves(mode):
    stack = small_stack(seed=1, mode=mode)
    batch = np.random.default_rng(2).integers(0, 11, size=(5, 6))
    sol = solve_fixed_point(stack, batch)
    assert sol.converged and sol.asr_star[0].shape == (5, 6, 8)
    for b, tokens in enumerate(batch):
        one = solve_fixed_point(stack, tokens)
        for got, want in zip(sol.asr_star, one.asr_star):
            np.testing.assert_array_equal(got[b], want)
        assert set(sol.sublayer_asr) == set(one.sublayer_asr)
        for name, want in one.sublayer_asr.items():
            np.testing.assert_array_equal(sol.sublayer_asr[name][b], want,
                                          err_msg=name)


@pytest.mark.parametrize("mode", [QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=lambda m: m.value)
def test_frozen_solve_uses_pinned_codes(mode, monkeypatch):
    stack = small_stack(seed=3, mode=mode)
    tokens = np.array([[2, 4, 5], [6, 7, 1]])
    fresh = solve_fixed_point(stack, tokens)
    stack.freeze_quantization()
    calls = []
    for name in ("quantize_1bit", "quantize_158bit"):
        def counted(*args, _orig=getattr(quantizer, name), **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(quantizer, name, counted)
    pinned = solve_fixed_point(stack, tokens)
    assert calls == []
    for got, want in zip(pinned.asr_star, fresh.asr_star):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mode", [QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=lambda m: m.value)
def test_unfrozen_solve_quantizes_each_linear_once(mode, monkeypatch):
    stack = small_stack(seed=4, mode=mode)
    tokens = np.array([[2, 4, 5], [6, 7, 1]])
    calls = []
    for name in ("quantize_1bit", "quantize_158bit"):
        def counted(w, *args, _orig=getattr(quantizer, name), **kwargs):
            calls.append(w.shape)
            return _orig(w, *args, **kwargs)
        monkeypatch.setattr(quantizer, name, counted)
    sol = solve_fixed_point(stack, tokens)
    # one quantizer call per weight shape, each on that shape's stack:
    # q/k/v/o of every block, then ff1, then ff2
    num, d, inter = (stack.cfg.num_layers, stack.cfg.hidden_dim,
                     stack.cfg.intermediate_dim)
    assert calls == [(4 * num, d, d), (num, inter, d), (num, d, inter)]
    # the prebuilt weights are the ones the rate map builds per block
    for got, want in zip(stack.rate_map(tokens, sol.asr_star), sol.asr_star):
        np.testing.assert_array_equal(got, want)
