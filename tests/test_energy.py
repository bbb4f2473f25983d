import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike.energy import (EnergyConfigError, SpikeStats, TechnologyProfile,
                            compute_ifr, energy_estimate, expected_accumulates)
from eqspike.model import EncoderStack, StackConfig
from eqspike.quantizer import OpCounter, QuantMode


def hand_stats():
    # Two layers, built from a hand-traced spike log:
    #   "a": 3 neurons, 2 steps, 3 total spikes -> IFR 0.5
    #   "b": 2 neurons, 2 steps, 1 total spike  -> IFR 0.25
    counts = {"a": np.array([[2.0, 1.0, 0.0]]), "b": np.array([[1.0, 0.0]])}
    return SpikeStats.from_counts(counts, T=2)


def test_spike_stats_from_counts():
    stats = hand_stats()
    assert stats.spike_totals == {"a": 3.0, "b": 1.0}
    assert stats.neuron_counts == {"a": 3, "b": 2}


def test_compute_ifr_hand_values():
    ifr = compute_ifr(hand_stats())
    assert ifr == {"a": 0.5, "b": 0.25}


def test_compute_ifr_rejects_bad_horizon():
    stats = hand_stats()
    stats.T = 0
    with pytest.raises(ValueError):
        compute_ifr(stats)


def test_norm_ops_weighted_fraction():
    stats = hand_stats()
    table = [("a", "lin1", 100), ("b", "lin2", 300)]
    # (0.5*100 + 0.25*300) / 400 = 0.3125
    assert energy_estimate(stats, table, quantized=True).norm_ops == \
        pytest.approx(0.3125)


def test_norm_ops_rejects_unknown_driver():
    with pytest.raises(EnergyConfigError):
        energy_estimate(hand_stats(), [("missing", "lin", 10)], quantized=True)


def test_technology_profile_default_ratio_is_nine():
    profile = TechnologyProfile()
    assert profile.float_acc_pj / profile.int_acc_pj == pytest.approx(9.0)


def test_energy_estimate_quantized_vs_float():
    stats = hand_stats()
    table = [("a", "lin1", 100), ("b", "lin2", 300)]
    q = energy_estimate(stats, table, quantized=True)
    f = energy_estimate(stats, table, quantized=False)
    # same executed accumulates, different per-accumulate cost
    executed = (0.5 * 100 + 0.25 * 300) * stats.T
    assert q.total_energy_pj == pytest.approx(executed * 0.1)
    assert f.total_energy_pj == pytest.approx(executed * 0.9)
    assert f.total_energy_pj / q.total_energy_pj == pytest.approx(9.0)
    assert q.acc_energy_pj == 0.1 and f.acc_energy_pj == 0.9
    assert q.norm_ops == f.norm_ops == pytest.approx(0.3125)


def test_energy_estimate_rejects_nonpositive_profile():
    with pytest.raises(EnergyConfigError):
        energy_estimate(hand_stats(), [("a", "lin", 1)], quantized=True,
                        profile=TechnologyProfile(int_acc_pj=0.0))


def test_energy_report_metadata():
    rep = energy_estimate(hand_stats(), [("a", "lin", 10)], quantized=True)
    assert rep.metadata["quantized"] is True
    assert rep.metadata["classifier_head_included"] is True
    assert rep.metadata["T"] == 2


def make_stack(mode):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode)
    return EncoderStack(cfg, np.random.default_rng(0))


def test_expected_accumulates_matches_instrumented_kernel_exactly():
    # The counts logged inside the spike-driven kernel must equal the
    # counts reconstructed afterwards from the spike totals and the weight
    # sparsity pattern: sum over inputs of spikes * nonzero column weights.
    for mode in (QuantMode.TERNARY_158BIT, QuantMode.BINARY_1BIT):
        stack = make_stack(mode)
        counter = OpCounter()
        _, _, counts = stack.temporal_simulate(np.array([2, 4, 5]), T=40,
                                               counter=counter)
        expected = expected_accumulates(counts, stack)
        assert counter.per_layer == expected


def test_expected_accumulates_binary_has_dense_columns():
    stack = make_stack(QuantMode.BINARY_1BIT)
    _, _, counts = stack.temporal_simulate(np.array([2, 4]), T=10)
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
