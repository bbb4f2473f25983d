import numpy as np
import pytest

from eqspike import model
from eqspike import pipeline as pl
from eqspike import quantizer
from eqspike.data import stack_by_length
from eqspike.equilibrium import solve_fixed_point
from eqspike.implicit_grad import batch_gradients
from eqspike.model import (EncoderStack, StackConfig, TeacherConfig,
                           TeacherModel, attention_backward, spiking_attention,
                           teacher_forward)
from eqspike.numerics import NumericError, ShapeError
from eqspike.quantizer import OpCounter, QuantMode, quantize_158bit
import oracles as tp
from oracles import finite_difference_grad, step_major_simulate


MODES = pytest.mark.parametrize("mode", [QuantMode.FULL_PRECISION,
                                         QuantMode.BINARY_1BIT,
                                         QuantMode.TERNARY_158BIT],
                                ids=["fp", "1bit", "1.58bit"])


def make_stack(seed=0, mode=QuantMode.FULL_PRECISION, **kw):
    cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                      num_heads=2, num_layers=2, max_len=6, num_labels=2,
                      quant_mode=mode, **kw)
    return EncoderStack(cfg, np.random.default_rng(seed))


def test_stack_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        StackConfig(vocab_size=5, hidden_dim=7, intermediate_dim=8,
                    num_heads=2, num_layers=1, max_len=4, num_labels=2)


@pytest.mark.parametrize("bad", [{"gamma": 1.5}, {"gamma": 0.0},
                                 {"v_th": 0.0}, {"v_th": -1.0}])
def test_stack_config_validates_lif_parameters(bad):
    # the neuron is fixed at no leak and threshold 1: neither is a field
    with pytest.raises(TypeError):
        StackConfig(vocab_size=5, hidden_dim=8, intermediate_dim=8,
                    num_heads=2, num_layers=1, max_len=4, num_labels=2, **bad)


def test_encoding_lies_in_unit_interval():
    stack = make_stack()
    enc = stack.encoding(np.array([2, 4, 5]))
    assert enc.shape == (3, stack.cfg.hidden_dim)
    assert enc.min() >= 0.0 and enc.max() <= 1.0


def test_encoding_rejects_long_sequences():
    stack = make_stack()
    with pytest.raises(ShapeError):
        stack.encoding(np.arange(stack.cfg.max_len + 1))


def test_named_params_cover_all_sublayers():
    stack = make_stack()
    names = set(stack.params)
    assert {"tok_emb", "pos_emb", "cls.w", "cls.b"} <= names
    for i in range(2):
        for nm in ("q", "k", "v", "o", "ff1", "ff2"):
            assert f"blk{i}.{nm}.w" in names and f"blk{i}.{nm}.b" in names
        assert f"blk{i}.ln1_g" in names and f"blk{i}.ln2_b" in names


def test_student_and_teacher_store_the_same_parameters():
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                         intermediate_dim=16, max_len=6),
                           np.random.default_rng(0))
    assert {k: v.shape for k, v in stack.params.items()} == \
        {k: v.shape for k, v in teacher.params.items()}
    assert len(stack.linear_names) == 6 * stack.cfg.num_layers
    assert list(stack.pinned()) == stack.linear_names
    for k in stack.linear_names:
        assert {k + ".w", k + ".b"} <= set(stack.params)
    assert stack.cls_w is stack.params["cls.w"]
    assert stack.cls_b is stack.params["cls.b"]


def test_set_quant_mode_and_freeze_roundtrip():
    stack = make_stack()
    stack.set_quant_mode(QuantMode.TERNARY_158BIT)
    assert stack.cfg.quant_mode is QuantMode.TERNARY_158BIT
    assert stack.frozen is None
    for name, pinned in stack.pinned().items():
        q, beta = quantize_158bit(stack.params[name + ".w"])
        np.testing.assert_array_equal(pinned.codes, q)
        assert pinned.scale == beta
    stack.freeze_quantization()
    assert stack.pinned() is stack.frozen
    assert list(stack.frozen) == stack.linear_names


@pytest.mark.parametrize("case", ["one-token", "distinct", "negative-zero"])
def test_token_embedding_gradient_equals_add_at_bitwise(case):
    # the input neuron's backward is replaced by one that returns g_in, so
    # that the embedding step alone is checked against np.add.at
    rng = np.random.default_rng(4)
    stack = make_stack(seed=3, mode=QuantMode.TERNARY_158BIT)
    if case == "distinct":  # every (sentence, position) on its own token
        tokens = rng.permutation(stack.cfg.vocab_size)[:10].reshape(2, 5)
    else:  # every position on one token: the order of the sums shows
        tokens = np.full((3, 5), 7)
    # magnitudes 16 orders apart, so that any other order rounds otherwise
    g_in = rng.normal(size=tokens.shape + (8,)) * 10.0 ** rng.integers(
        -8, 8, size=tokens.shape + (8,))
    start = rng.normal(size=stack.params["tok_emb"].shape)
    if case == "negative-zero":
        g_in[...] = -0.0
        start[...] = -0.0  # -0 + -0 stays -0; the table's 0 + -0 is +0
    stack.neurons = {**stack.neurons,
                     "input": (stack.neurons["input"][0], lambda g, _: g_in)}
    caches = []
    blocks = stack.sweep(tokens, caches=caches)
    grads = stack.params.zeros()
    grads["tok_emb"][...] = start
    stack.backward(caches, [None, np.zeros_like(blocks[-1])], grads)
    table = np.zeros_like(start)
    np.add.at(table, tokens, g_in)
    assert grads["tok_emb"].tobytes() == (start + table).tobytes()


def test_spiking_attention_is_convex_mixer():
    rng = np.random.default_rng(1)
    q = rng.random((5, 8))
    k = rng.random((5, 8))
    v = rng.random((5, 8))
    out = spiking_attention(q, k, v, 2)[0]
    assert out.shape == (5, 8)
    # per-head convex combination of value rows stays inside their range
    assert out.min() >= v.min() - 1e-12 and out.max() <= v.max() + 1e-12


def test_spiking_attention_single_head_matches_manual():
    rng = np.random.default_rng(2)
    q, k, v = rng.random((3, 4)), rng.random((3, 4)), rng.random((3, 4))
    out = spiking_attention(q, k, v, 1)[0]
    scores = q @ k.T / np.sqrt(4)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out, w @ v, atol=1e-12)


def composite_attention(q, k, v, num_heads):
    """Reference: split/matmul/softmax/merge as plain numpy ops."""
    shape = q.shape
    dh = shape[-1] // num_heads
    lead = tuple(range(len(shape) - 2))
    heads_first = lead + (len(lead) + 1, len(lead), len(lead) + 2)
    keys_last = lead + (len(lead), len(lead) + 2, len(lead) + 1)

    def split(x):
        return np.transpose(np.reshape(x, shape[:-1] + (num_heads, dh)),
                            heads_first)

    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, np.transpose(kh, keys_last)) * (1.0 / np.sqrt(dh))
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    weights = e / np.sum(e, axis=-1, keepdims=True)
    return np.reshape(np.transpose(np.matmul(weights, vh), heads_first), shape)


# the last is a spike-path window's (C, B, seq, d)
ATTENTION_CASES = pytest.mark.parametrize(
    "heads,shape", [(1, (5, 4)), (2, (5, 4)), (1, (3, 5, 4)), (2, (3, 5, 4)),
                    (2, (4, 2, 5, 4))],
    ids=["1head-seq", "2head-seq", "1head-batch", "2head-batch",
         "2head-window"])


@ATTENTION_CASES
def test_spiking_attention_equals_composite_bitwise(heads, shape):
    rng = np.random.default_rng(3)
    q, k, v = (rng.random(shape) for _ in range(3))
    want = composite_attention(q, k, v, heads)
    np.testing.assert_array_equal(spiking_attention(q, k, v, heads)[0], want)


@ATTENTION_CASES
def test_attention_without_intermediates_is_the_saved_output_bitwise(heads,
                                                                     shape):
    # q, k and v are the thirds of one array, as the spike path passes its
    # q/k/v ASRs; zeros of both signs, and a value column of -0.0, so that
    # the byte comparison sees the sign of every zero
    rng = np.random.default_rng(5)
    qkv = rng.normal(size=shape[:-1] + (3 * shape[-1],))
    qkv[qkv > 1.0] = 0.0
    qkv[qkv < -1.0] = -0.0
    qkv[..., 2 * shape[-1]] = -0.0
    q, k, v = np.split(qkv, 3, axis=-1)
    mixed, saved = spiking_attention(q, k, v, heads, save=False)
    assert saved is None
    assert mixed.shape == shape and mixed.flags.c_contiguous
    assert mixed.tobytes() == spiking_attention(q, k, v, heads)[0].tobytes()
    assert mixed.tobytes() == composite_attention(q, k, v, heads).tobytes()


@ATTENTION_CASES
def test_spiking_attention_grads_match_finite_differences(heads, shape):
    rng = np.random.default_rng(4)
    qkv = [rng.random(shape) * 2.0 for _ in range(3)]
    w = rng.normal(size=shape)  # a generic cotangent

    def loss(args):
        return float((spiking_attention(*args, heads)[0] * w).sum())

    grads = attention_backward(w, spiking_attention(*qkv, heads)[1])
    for j in range(3):
        def f(x, j=j):
            return loss([x if i == j else a for i, a in enumerate(qkv)])

        fd = finite_difference_grad(f, qkv[j].copy(), h=1e-5)
        np.testing.assert_allclose(grads[j], fd, atol=1e-8, err_msg="qkv"[j])


def test_spiking_attention_shape_errors():
    with pytest.raises(ShapeError):
        spiking_attention(np.zeros((3, 5)), np.zeros((3, 5)), np.zeros((3, 5)), 2)


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


def _assert_temporal_asr_near_fixed_point(stack):
    tokens = np.array([2, 4, 5, 6])
    sol = solve_fixed_point(stack, tokens)
    _, asrs, _ = stack.temporal_simulate(tokens, T=800)
    for i, target in enumerate(sol.asr_star):
        dev = float(np.mean(np.abs(asrs[f"blk{i}.out"] - target)))
        assert dev < 0.02


def test_temporal_asr_approaches_fixed_point():
    _assert_temporal_asr_near_fixed_point(make_stack(seed=4))


@pytest.mark.parametrize("mode", [QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=["1bit", "1.58bit"])
def test_quantized_temporal_asr_approaches_fixed_point(mode):
    stack = make_stack(seed=4, mode=mode)
    stack.freeze_quantization()
    _assert_temporal_asr_near_fixed_point(stack)


def test_op_counter_only_counts_quantized_kernels():
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    counter = OpCounter()
    stack.temporal_simulate(np.array([2, 4]), T=10, counter=counter)
    assert sum(counter.per_layer.values()) > 0
    assert set(counter.per_layer) == {f"blk{i}.{nm}" for i in range(2)
                                      for nm in ("q", "k", "v", "o", "ff1", "ff2")}


def test_temporal_simulate_quantizes_each_linear_once(monkeypatch):
    cfg = pl.load_config(None, {})  # the default 2-block ternary shape
    tok, _train, dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    frozen = pl.build_student(cfg, tok, num_labels=len(labels))
    frozen.freeze_quantization()
    tokens = dev[0][0]
    want_counter = OpCounter()
    want = frozen.temporal_simulate(tokens, T=50, counter=want_counter)
    calls = []

    def counting(w, *args):
        calls.append(w.shape)
        return quantize_158bit(w, *args)

    monkeypatch.setattr(quantizer, "quantize_158bit", counting)
    counter = OpCounter()
    got = stack.temporal_simulate(tokens, T=50, counter=counter)
    # once per weight shape for the whole simulation, never per step: the
    # q/k/v/o stack of every block, then ff1's, then ff2's
    num, d, inter = (stack.cfg.num_layers, stack.cfg.hidden_dim,
                     stack.cfg.intermediate_dim)
    assert calls == [(4 * num, d, d), (num, inter, d), (num, d, inter)]
    assert stack.frozen is None
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        for name in w:
            np.testing.assert_array_equal(g[name], w[name])
    assert counter.per_layer == want_counter.per_layer


@MODES
def test_batched_temporal_simulate_equals_rows(mode):
    cfg = pl.load_config(None, {"seed": 5})  # the default 2-block shape
    tok, _train, dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, quant_mode=mode.value,
                             num_labels=len(labels))
    tokens = np.stack([t for t, _ in dev[:5]])
    counter = OpCounter()
    logits, asrs, counts = stack.temporal_simulate(tokens, T=40,
                                                   counter=counter)
    assert logits.shape == (5, 2) and sum(counter.per_layer.values()) > 0
    rows = OpCounter()  # one counter over the rows, as per-sentence runs
    for b, row in enumerate(tokens):
        want = stack.temporal_simulate(row, T=40, counter=rows)
        np.testing.assert_array_equal(logits[b], want[0])
        for got, per_row in zip((asrs, counts), want[1:]):
            assert list(got) == list(per_row)
            for name in per_row:
                np.testing.assert_array_equal(got[name][b], per_row[name])
    assert counter.per_layer == rows.per_layer
    one, first = OpCounter(), OpCounter()  # a batch of one is the 1-D call
    got = stack.temporal_simulate(tokens[:1], T=40, counter=one)
    want = stack.temporal_simulate(tokens[0], T=40, counter=first)
    np.testing.assert_array_equal(got[0], want[0][None])
    for g, w in zip(got[1:], want[1:]):
        for name in w:
            np.testing.assert_array_equal(g[name], w[name][None])
    assert one.per_layer == first.per_layer


def test_temporal_simulate_calls_each_kernel_once_per_sublayer_per_window(
        monkeypatch):
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    calls = {"quantized_forward": 0, "lif_step": 0}
    adds = []

    def counted(name):
        inner = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    def add(self, *args, **kwargs):
        adds.append((args, kwargs))
        self.per_layer[args[0]] = self.per_layer.get(args[0], 0) + args[1]

    for name in calls:
        monkeypatch.setattr(model, name, counted(name))
    monkeypatch.setattr(OpCounter, "add", add)
    tokens = np.array([[2, 4, 5], [3, 6, 7]])
    # steps per window: the q/k/v currents (3d wide) are the widest array
    steps = model.WINDOW_BYTES // (8 * 3 * stack.cfg.hidden_dim * tokens.size)
    T, L = 2 * steps + 1, stack.cfg.num_layers  # two full windows and one step
    stack.temporal_simulate(tokens, T, counter=OpCounter())
    windows = 3
    # q/k/v run as one stacked linear driving one neuron layer
    assert calls == {"quantized_forward": 4 * L * windows,
                     "lif_step": (1 + 5 * L) * windows}
    assert len(adds) == 6 * L * windows
    # add(name, count), positionally: a tracer reads the count argument
    assert all(len(args) == 2 and not kwargs for args, kwargs in adds)


def test_temporal_simulate_window_is_one_step_for_large_batches(monkeypatch):
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    # a batch whose q/k/v currents (3d wide) fill the budget in one step
    rows = model.WINDOW_BYTES // (8 * 3 * stack.cfg.hidden_dim)
    tokens = np.tile(np.array([2, 4, 5, 6]), (rows // 4, 1))
    windows = []
    inner = model.lif_step

    def counted(state, currents, *args):
        windows.append(len(currents))
        return inner(state, currents, *args)

    monkeypatch.setattr(model, "lif_step", counted)
    stack.temporal_simulate(tokens, 3)
    assert windows == [1] * (1 + 5 * stack.cfg.num_layers) * 3


ORACLE_TOKENS = np.array([[2, 4, 5, 6, 7], [3, 8, 9, 10, 1], [2, 2, 6, 5, 4]])


def _assert_windows_equal_oracle(monkeypatch, stack, tokens, timesteps):
    """`stack.temporal_simulate` of `tokens` at each of `timesteps`, traced
    and not, equals `step_major_simulate` bitwise: logits, rates, spike
    counts, membranes, op counts and trace."""
    # the neuron layers temporal_simulate makes, in the order it makes them
    states, make = [], model.LifLayerState.zeros

    def zeros(cls, *args):
        states.append(make(*args))
        return states[-1]

    monkeypatch.setattr(model.LifLayerState, "zeros", classmethod(zeros))
    names = ["input"] + [f"blk{i}.{nm}" for i in range(stack.cfg.num_layers)
                         for nm in ("qkv", "attn", "h1", "out", "int")]
    for T in timesteps:
        want_counter, want_trace, want_u = OpCounter(), [], {}
        want = step_major_simulate(stack, tokens, T, counter=want_counter,
                                   trace=want_trace, membranes=want_u)
        for tracing in (False, True):
            counter, trace = OpCounter(), [] if tracing else None
            states.clear()
            got = stack.temporal_simulate(tokens, T, counter=counter,
                                          trace=trace)
            got_u = {}
            for name, st in zip(names, states, strict=True):
                parts = [name[:-3] + nm for nm in "qkv"] \
                    if name.endswith("qkv") else [name]
                got_u.update(zip(parts, np.split(st.u, len(parts), axis=-1)))
            assert list(got_u) == list(want_u)
            for name, u in want_u.items():
                np.testing.assert_array_equal(got_u[name], u)
            np.testing.assert_array_equal(got[0], want[0])
            for g, w in zip(got[1:], want[1:]):
                assert list(g) == list(w)
                for name in w:
                    assert g[name].dtype == w[name].dtype
                    np.testing.assert_array_equal(g[name], w[name])
            assert list(counter.per_layer.items()) == \
                list(want_counter.per_layer.items())
        assert [row[:2] for row in trace] == [row[:2] for row in want_trace]
        np.testing.assert_array_equal([row[2:] for row in trace],
                                      [row[2:] for row in want_trace])
        assert len(trace) == T * len(want[1])


@MODES
@pytest.mark.parametrize("kw", [{}, {"binary_output_scale": True}],
                         ids=["1.0", "1.0-output-scale"])
@pytest.mark.parametrize("batch", [False, True], ids=["seq", "B-seq"])
def test_windowed_simulation_equals_step_major_oracle_bitwise(
        monkeypatch, mode, kw, batch):
    stack = make_stack(seed=2, mode=mode, **kw)
    stack.freeze_quantization()
    tokens = ORACLE_TOKENS if batch else ORACLE_TOKENS[0]
    # a budget of four steps a window: the tiling is the same at any budget,
    # and the oracle's cost grows with T (the real one is crossed below)
    monkeypatch.setattr(model, "WINDOW_BYTES",
                        4 * 8 * 3 * stack.cfg.hidden_dim * tokens.size)
    # steps per window: the q/k/v currents (3d wide) are the widest array
    steps = model.WINDOW_BYTES // (8 * 3 * stack.cfg.hidden_dim * tokens.size)
    _assert_windows_equal_oracle(monkeypatch, stack, tokens,
                                 (1, steps - 1, steps + 1, 200))


def test_windowed_simulation_crosses_the_real_budget_bitwise(monkeypatch):
    stack = make_stack(seed=2, mode=QuantMode.TERNARY_158BIT)
    stack.freeze_quantization()
    steps = model.WINDOW_BYTES // (8 * 3 * stack.cfg.hidden_dim
                                   * ORACLE_TOKENS.size)
    assert steps > 1
    _assert_windows_equal_oracle(monkeypatch, stack, ORACLE_TOKENS,
                                 (steps + 1,))


@pytest.mark.parametrize("poison", ["tok_emb", "ln_gain", "fp_weight"])
def test_non_finite_spike_path_is_numeric_error(poison):
    stack = make_stack(mode=QuantMode.FULL_PRECISION)
    if poison == "tok_emb":
        stack.params["tok_emb"][4, 1] = np.nan
    elif poison == "ln_gain":
        stack.params["blk1.ln1_g"][3] = np.nan
    else:
        stack.params["blk0.ff1.w"][2, 5] = np.inf
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        stack.temporal_simulate(np.array([[2, 4, 5], [3, 6, 7]]), T=20)


def test_batched_solve_logits_equal_each_sentence_alone():
    cfg = pl.load_config(None, {"seed": 5})
    tok, _train, dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    stack.freeze_quantization()
    for tokens, _labels in stack_by_length(dev[:16]):
        batch = stack.logits(solve_fixed_point(stack, tokens).asr_star[-1])
        assert batch.shape == (len(tokens), len(labels))
        for row, sentence in zip(batch, tokens):
            alone = solve_fixed_point(stack, sentence).asr_star[-1]
            np.testing.assert_array_equal(row, stack.logits(alone))


def test_temporal_simulate_rejects_bad_token_shapes():
    stack = make_stack()
    for tokens in (np.zeros((1, 2, 3), dtype=int),
                   np.zeros(stack.cfg.max_len + 1, dtype=int)):
        with pytest.raises(ShapeError):
            stack.temporal_simulate(tokens, T=5)


@pytest.mark.parametrize("with_loss", [False, True], ids=["alone", "loss"])
def test_block_backward_equals_taped_block_bitwise(with_loss):
    # one block of the default 2-block ternary shape under a generic output
    # gradient; `with_loss` adds a gradient of the loss's own on the input
    cfg = pl.load_config(None, {})
    tok, train, _dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    rng = np.random.default_rng(5)
    a_prev = rng.random((3, 12, 32))
    g_out, g_loss = rng.normal(size=(2, 3, 12, 32))
    caches = []
    out = stack.block_forward(1, a_prev, stack.effective_weights(), None, caches)
    grads = stack.params.zeros()
    g_in = stack.block_backward(1, g_out, caches[0], grads,
                                g_loss if with_loss else None)

    leaves = tp.param_tensors(stack)
    x = tp.Tensor(a_prev, requires_grad=True)
    taped = tp.taped_block(stack, 1, x, leaves, tp.taped_weights(stack, leaves))
    loss = tp.tensor_sum(tp.mul(taped, g_out))
    if with_loss:  # as the KD loss reads block outputs: block i before i+1
        loss = tp.add(tp.tensor_sum(tp.mul(x, g_loss)), loss)
    tp.backward([loss], [1.0])
    np.testing.assert_array_equal(out, taped.data)
    np.testing.assert_array_equal(g_in, x.grad)
    for name, leaf in leaves.items():
        want = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        np.testing.assert_array_equal(grads[name], want, err_msg=name)


def test_sweep_equals_taped_sweep_bitwise_at_the_inference_shape():
    # the shape `eqspike eval` solves at in the benchmark: a frozen 1-bit
    # d=64, inter=128, L=4 stack on 30-token sentences
    cfg = StackConfig(vocab_size=50, hidden_dim=64, intermediate_dim=128,
                      num_heads=2, num_layers=4, max_len=32, num_labels=2,
                      quant_mode=QuantMode.BINARY_1BIT)
    stack = EncoderStack(cfg, np.random.default_rng(12))
    stack.freeze_quantization()
    leaves = tp.param_tensors(stack)
    rng = np.random.default_rng(13)
    for tokens in (rng.integers(0, 50, 30), rng.integers(0, 50, (3, 30))):
        outs = stack.sweep(tokens)
        with tp.no_grad():
            taped = tp.taped_sweep(stack, tokens, leaves)
        assert len(outs) == len(taped) == 4
        for i, (got, want) in enumerate(zip(outs, taped)):
            np.testing.assert_array_equal(got, want.data, err_msg=f"block {i}")
            np.testing.assert_array_equal(np.signbit(got),
                                          np.signbit(want.data))


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


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_both_models_reject_the_same_bad_tokens(kind):
    # vocab_size 11 and max_len 6 for both models
    if kind == "student":
        stack = make_stack()

        def forward(tokens):
            return solve_fixed_point(stack, tokens)
    else:
        teacher = TeacherModel(TeacherConfig(
            vocab_size=11, hidden_dim=8, intermediate_dim=16, num_heads=2,
            num_layers=1, max_len=6), np.random.default_rng(0))

        def forward(tokens):
            return teacher_forward(teacher, tokens)
    for ids in ([2, 11], [[2, 4], [-1, 3]]):
        with pytest.raises(ValueError, match="vocabulary"):
            forward(np.array(ids))
    for shape in ((7,), (2, 7), (1, 2, 3)):
        with pytest.raises(ShapeError):
            forward(np.full(shape, 2))


def test_non_finite_teacher_weight_is_numeric_error():
    # the shared sweep checks every block output, the teacher's too
    cfg = TeacherConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                        num_heads=2, num_layers=2, max_len=6)
    teacher = TeacherModel(cfg, np.random.default_rng(0))
    teacher.params["blk0.ff1.w"][3, 1] = np.nan
    tokens = np.array([2, 4, 5])
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        teacher_forward(teacher, tokens)
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        batch_gradients(teacher, [(tokens, 1)])


def test_batched_teacher_forward_equals_rows():
    cfg = TeacherConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                        num_heads=2, num_layers=2, max_len=6, num_labels=3)
    teacher = TeacherModel(cfg, np.random.default_rng(1))
    tokens = np.random.default_rng(2).integers(0, 11, size=(4, 5))
    hiddens, logits = teacher_forward(teacher, tokens)
    assert hiddens[0].shape == (4, 5, 8) and logits.shape == (4, 3)
    for b, row in enumerate(tokens):
        h_row, l_row = teacher_forward(teacher, row)
        for got, want in zip(hiddens, h_row):
            np.testing.assert_array_equal(got[b], want)
        np.testing.assert_array_equal(logits[b], l_row)
