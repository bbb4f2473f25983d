import numpy as np
import pytest

from eqspike import autodiff as ad
from eqspike.equilibrium import SolverConfig, solve_fixed_point
from eqspike.model import (EncoderStack, StackConfig, TeacherConfig,
                           TeacherModel, spiking_attention, teacher_forward)
from eqspike.numerics import ShapeError
from eqspike.quantizer import OpCounter, QuantMode


def make_stack(seed=0, mode=QuantMode.FULL_PRECISION, **kw):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode, **kw)
    return EncoderStack(cfg, np.random.default_rng(seed))


def test_stack_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        StackConfig(vocab_size=5, hidden_dim=7, intermediate_dim=8,
                    num_heads=2, num_layers=1, max_len=4, num_labels=2)


def test_encoding_lies_in_unit_interval():
    stack = make_stack()
    with ad.no_grad():
        enc = stack.encoding(np.array([2, 4, 5]), stack.param_tensors()).data
    assert enc.shape == (3, stack.cfg.hidden_dim)
    assert enc.min() >= 0.0 and enc.max() <= 1.0


def test_encoding_rejects_long_sequences():
    stack = make_stack()
    with pytest.raises(ShapeError):
        stack.encoding(np.arange(stack.cfg.max_len + 1), stack.param_tensors())


def test_named_params_cover_all_sublayers():
    stack = make_stack()
    names = set(stack.named_params())
    assert {"tok_emb", "pos_emb", "cls.w", "cls.b"} <= names
    for i in range(2):
        for nm in ("q", "k", "v", "o", "ff1", "ff2"):
            assert f"blk{i}.{nm}.w" in names and f"blk{i}.{nm}.b" in names
        assert f"blk{i}.ln1_g" in names and f"blk{i}.ln2_b" in names


def test_set_quant_mode_and_freeze_roundtrip():
    stack = make_stack()
    stack.set_quant_mode(QuantMode.TERNARY_158BIT)
    assert stack.cfg.quant_mode is QuantMode.TERNARY_158BIT
    assert all(lin.mode is QuantMode.TERNARY_158BIT
               for blk in stack.blocks for lin in blk.linears().values())
    stack.freeze_quantization()
    assert all(lin.frozen for blk in stack.blocks
               for lin in blk.linears().values())


def test_spiking_attention_is_convex_mixer():
    rng = np.random.default_rng(1)
    q = rng.random((5, 8))
    k = rng.random((5, 8))
    v = rng.random((5, 8))
    with ad.no_grad():
        out = spiking_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), 2).data
    assert out.shape == (5, 8)
    # per-head convex combination of value rows stays inside their range
    assert out.min() >= v.min() - 1e-12 and out.max() <= v.max() + 1e-12


def test_spiking_attention_single_head_matches_manual():
    rng = np.random.default_rng(2)
    q, k, v = rng.random((3, 4)), rng.random((3, 4)), rng.random((3, 4))
    with ad.no_grad():
        out = spiking_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), 1).data
    scores = q @ k.T / np.sqrt(4)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out, w @ v, atol=1e-12)


def test_spiking_attention_shape_errors():
    with pytest.raises(ShapeError):
        spiking_attention(ad.Tensor(np.zeros((3, 5))), ad.Tensor(np.zeros((3, 5))),
                          ad.Tensor(np.zeros((3, 5))), 2)


@pytest.mark.parametrize("mode", [QuantMode.FULL_PRECISION,
                                  QuantMode.TERNARY_158BIT,
                                  QuantMode.BINARY_1BIT])
def test_temporal_simulate_outputs(mode):
    stack = make_stack(mode=mode)
    tokens = np.array([2, 4, 5])
    logits, asrs, counts = stack.temporal_simulate(tokens, T=30)
    assert logits.shape == (2,)
    assert asrs["blk1.out"].shape == (3, stack.cfg.hidden_dim)
    assert all(a.min() >= 0.0 and a.max() <= 1.0 for a in asrs.values())
    # spike counts are integers bounded by T
    for name, c in counts.items():
        assert c.min() >= 0 and c.max() <= 30
        np.testing.assert_array_equal(c, np.round(c))


def test_temporal_simulate_rejects_bad_horizon():
    with pytest.raises(ValueError):
        make_stack().temporal_simulate(np.array([2]), T=0)


def test_temporal_asr_approaches_fixed_point():
    stack = make_stack(seed=4)
    tokens = np.array([2, 4, 5, 6])
    sol = solve_fixed_point(stack, tokens, SolverConfig(tol=1e-10))
    _, asrs, _ = stack.temporal_simulate(tokens, T=800)
    for i, target in enumerate(sol.asr_star):
        dev = float(np.mean(np.abs(asrs[f"blk{i}.out"] - target)))
        assert dev < 0.02


def test_op_counter_only_counts_quantized_kernels():
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    counter = OpCounter()
    stack.temporal_simulate(np.array([2, 4]), T=10, counter=counter)
    assert counter.total > 0
    assert set(counter.per_layer) == {f"blk{i}.{nm}" for i in range(2)
                                      for nm in ("q", "k", "v", "o", "ff1", "ff2")}


def test_linear_op_table_counts():
    stack = make_stack()
    rows = stack.linear_op_table(seq_len=3)
    d, inter = 8, 16
    total = sum(c for _, _, c in rows)
    per_block = 4 * 3 * d * d + 2 * 3 * 3 * d + 3 * d * inter + 3 * inter * d
    assert total == 2 * per_block + d * 2
    drivers = {src for src, _, _ in rows}
    assert "input" in drivers and "blk1.out" in drivers


def test_teacher_forward_shapes_and_determinism():
    cfg = TeacherConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                        num_heads=2, num_layers=2, max_len=6, num_labels=3)
    teacher = TeacherModel(cfg, np.random.default_rng(0))
    hiddens, logits = teacher_forward(teacher, np.array([2, 4, 5]))
    assert len(hiddens) == 2 and hiddens[0].shape == (3, 8)
    assert logits.shape == (3,)
    h2, l2 = teacher_forward(teacher, np.array([2, 4, 5]))
    np.testing.assert_array_equal(logits, l2)


def test_teacher_rejects_out_of_vocab():
    cfg = TeacherConfig(vocab_size=5, hidden_dim=8, intermediate_dim=16,
                        num_heads=2, num_layers=1, max_len=6)
    teacher = TeacherModel(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        teacher_forward(teacher, np.array([7]))
