import dataclasses

import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike.energy import (FLOAT_ACC_PJ, INT_ACC_PJ, EnergyConfigError,
                            compute_ifr, energy_estimate, expected_accumulates,
                            op_table)
from eqspike.model import EncoderStack, StackConfig
from eqspike.quantizer import OpCounter, QuantMode
from oracles import per_model_energy_compare

T = 2


def hand_counts():
    # Two layers, built from a hand-traced spike log over T = 2 steps:
    #   "a": 3 neurons, 3 total spikes -> IFR 0.5
    #   "b": 2 neurons, 1 total spike  -> IFR 0.25
    return {"a": np.array([[2.0, 1.0, 0.0]]), "b": np.array([[1.0, 0.0]])}


def test_compute_ifr_hand_values():
    ifr = compute_ifr(hand_counts(), T)
    assert ifr == {"a": 0.5, "b": 0.25}


def test_compute_ifr_rejects_bad_horizon():
    with pytest.raises(ValueError):
        compute_ifr(hand_counts(), 0)


def test_norm_ops_weighted_fraction():
    table = [("a", "lin1", 100), ("b", "lin2", 300)]
    # (0.5*100 + 0.25*300) / 400 = 0.3125
    assert energy_estimate(hand_counts(), T, table, quantized=True)[
        "norm_ops"] == pytest.approx(0.3125)


def test_norm_ops_rejects_unknown_driver():
    with pytest.raises(EnergyConfigError):
        energy_estimate(hand_counts(), T, [("missing", "lin", 10)],
                        quantized=True)


def test_technology_profile_default_ratio_is_nine():
    assert FLOAT_ACC_PJ / INT_ACC_PJ == pytest.approx(9.0)


def test_energy_estimate_quantized_vs_float():
    table = [("a", "lin1", 100), ("b", "lin2", 300)]
    q = energy_estimate(hand_counts(), T, table, quantized=True)
    f = energy_estimate(hand_counts(), T, table, quantized=False)
    # same executed accumulates, different per-accumulate cost
    executed = (0.5 * 100 + 0.25 * 300) * T
    assert q["total_energy_pj"] == pytest.approx(executed * 0.1)
    assert f["total_energy_pj"] == pytest.approx(executed * 0.9)
    assert f["total_energy_pj"] / q["total_energy_pj"] == pytest.approx(9.0)
    assert q["acc_energy_pj"] == 0.1 and f["acc_energy_pj"] == 0.9
    assert q["norm_ops"] == f["norm_ops"] == pytest.approx(0.3125)


def test_energy_report_metadata():
    rep = energy_estimate(hand_counts(), T, [("a", "lin", 10)], quantized=True)
    assert rep["metadata"]["quantized"] is True
    assert rep["metadata"]["classifier_head_included"] is True
    assert rep["metadata"]["T"] == 2


def make_stack(mode, max_len=6):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=2, max_len=max_len, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(0))


def test_op_table_counts():
    rows = op_table(make_stack(QuantMode.TERNARY_158BIT), seq_len=3)
    d, inter = 8, 12
    total = sum(c for _, _, c in rows)
    per_block = 4 * 3 * d * d + 2 * 3 * 3 * d + 3 * d * inter + 3 * inter * d
    assert total == 2 * per_block + d * 2
    drivers = {src for src, _, _ in rows}
    assert "input" in drivers and "blk1.out" in drivers


def test_energy_report_is_priced_at_the_simulated_length():
    # 4-token sentences on max_len-12 models: the op table counts the 4
    # positions that run, so max_len does not reach the report
    stacks = [make_stack(m, max_len=12) for m in (QuantMode.TERNARY_158BIT,
                                                  QuantMode.FULL_PRECISION)]
    items = [(np.array([2, 4, 5, 6]), 0), (np.array([3, 7, 1, 9]), 1)]
    result = pl.energy_compare(None, *stacks, items, T=10)
    d = stacks[0].cfg.hidden_dim
    for tag in ("quantized", "full_precision"):
        layer_ops = result[tag]["report"]["layer_ops"]
        assert layer_ops["blk0.q"] == 4 * d * d
        assert layer_ops["blk0.score"] == 4 * 4 * d
    for stack in stacks:  # the same parameters, at max_len 4
        stack.cfg = dataclasses.replace(stack.cfg, max_len=4)
    assert pl.energy_compare(None, *stacks, items, T=10) == result


def test_expected_accumulates_matches_instrumented_kernel_exactly():
    # The counts logged inside the spike-driven kernel must equal the
    # counts reconstructed afterwards from the spike totals and the weight
    # sparsity pattern: sum over inputs of spikes * nonzero column weights.
    for mode in (QuantMode.TERNARY_158BIT, QuantMode.BINARY_1BIT):
        stack = make_stack(mode)
        counter = OpCounter()
        _, counts = stack.temporal_simulate(np.array([2, 4, 5]), T=40,
                                            counter=counter)
        expected = expected_accumulates(counts, stack)
        assert counter.per_layer == expected


def test_expected_accumulates_binary_has_dense_columns():
    stack = make_stack(QuantMode.BINARY_1BIT)
    _, counts = stack.temporal_simulate(np.array([2, 4]), T=10)
    expected = expected_accumulates(counts, stack)
    # binary codes have no zeros, so each q/k/v accumulate count is
    # exactly (total input spikes) * out_dim
    total_in = counts["input"].sum()
    assert expected["blk0.q"] == total_in * stack.cfg.hidden_dim


def test_energy_compare_rejects_an_empty_set():
    with pytest.raises(pl.ConfigError):
        pl.energy_compare(pl.default_config(),
                          make_stack(QuantMode.TERNARY_158BIT),
                          make_stack(QuantMode.FULL_PRECISION), [], T=10)


def test_energy_compare_runs_one_simulation(monkeypatch):
    # both students in one `temporal_simulate` call, so the spike path's
    # time is that one call's
    stacks = [make_stack(mode) for mode in (QuantMode.TERNARY_158BIT,
                                            QuantMode.FULL_PRECISION)]
    items = [(np.array([2, 4, 5]), 0)]
    want = per_model_energy_compare(*stacks, items, T=20)
    calls = []
    simulate = EncoderStack.temporal_simulate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(EncoderStack, "temporal_simulate", counted)
    assert pl.energy_compare(None, *stacks, items, T=20) == want
    assert calls == [stacks[0]]
