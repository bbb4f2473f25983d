import numpy as np
import pytest

from eqspike import autodiff as ad
from eqspike import model
from eqspike import pipeline as pl
from eqspike import quantizer
from eqspike.data import stack_by_length
from eqspike.equilibrium import SolverConfig, solve_fixed_point
from eqspike.model import (EncoderStack, StackConfig, TeacherConfig,
                           TeacherModel, spiking_attention, teacher_forward)
from eqspike.numerics import NumericError, ShapeError
from eqspike.quantizer import OpCounter, QuantMode, quantize_158bit
from oracles import finite_difference_grad, step_major_simulate


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
    with pytest.raises(ValueError):
        StackConfig(vocab_size=5, hidden_dim=8, intermediate_dim=8,
                    num_heads=2, num_layers=1, max_len=4, num_labels=2, **bad)


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


def test_student_and_teacher_store_the_same_parameters():
    stack = make_stack(mode=QuantMode.TERNARY_158BIT)
    teacher = TeacherModel(TeacherConfig(vocab_size=11, hidden_dim=8,
                                         intermediate_dim=16, max_len=6),
                           np.random.default_rng(0))
    assert stack.named_params() is stack.params
    assert {k: v.shape for k, v in stack.params.items()} == \
        {k: v.shape for k, v in teacher.params.items()}
    assert len(stack.linears) == 6 * stack.cfg.num_layers
    for k, lin in stack.linears.items():
        assert lin.latent_w is stack.params[k + ".w"]
        assert lin.bias is stack.params[k + ".b"]
    assert stack.cls_w is stack.params["cls.w"]
    assert stack.cls_b is stack.params["cls.b"]


def test_set_quant_mode_and_freeze_roundtrip():
    stack = make_stack()
    stack.set_quant_mode(QuantMode.TERNARY_158BIT)
    assert stack.cfg.quant_mode is QuantMode.TERNARY_158BIT
    assert all(lin.mode is QuantMode.TERNARY_158BIT
               for lin in stack.linears.values())
    stack.freeze_quantization()
    assert all(lin.frozen for lin in stack.linears.values())


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


ATTENTION_CASES = pytest.mark.parametrize(
    "heads,shape", [(1, (5, 4)), (2, (5, 4)), (1, (3, 5, 4)), (2, (3, 5, 4))],
    ids=["1head-seq", "2head-seq", "1head-batch", "2head-batch"])


@ATTENTION_CASES
def test_spiking_attention_equals_composite_bitwise(heads, shape):
    rng = np.random.default_rng(3)
    q, k, v = (rng.random(shape) for _ in range(3))
    want = composite_attention(q, k, v, heads)
    np.testing.assert_array_equal(spiking_attention(q, k, v, heads).data, want)


@ATTENTION_CASES
def test_spiking_attention_grads_match_finite_differences(heads, shape):
    rng = np.random.default_rng(4)
    qkv = [rng.random(shape) * 2.0 for _ in range(3)]
    w = rng.normal(size=shape)  # a generic cotangent

    def loss(args):
        return ad.tensor_sum(ad.mul(spiking_attention(*args, heads), w))

    leaves = [ad.Tensor(x.copy(), requires_grad=True) for x in qkv]
    ad.backward([loss(leaves)], [1.0])
    for j in range(3):
        def f(x, j=j):
            return float(loss([x if i == j else a
                               for i, a in enumerate(qkv)]).data)

        fd = finite_difference_grad(f, qkv[j].copy(), h=1e-5)
        np.testing.assert_allclose(leaves[j].grad, fd, atol=1e-8,
                                   err_msg="qkv"[j])


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
    assert len(calls) == 6 * stack.cfg.num_layers  # once per linear, not per step
    assert not any(lin.frozen for lin in stack.linears.values())
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        for name in w:
            np.testing.assert_array_equal(g[name], w[name])
    assert counter.per_layer == want_counter.per_layer


@pytest.mark.parametrize("mode", [QuantMode.FULL_PRECISION,
                                  QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=["fp", "1bit", "1.58bit"])
def test_batched_temporal_simulate_equals_rows(mode):
    cfg = pl.load_config(None, {"seed": 5})  # the default 2-block shape
    tok, _train, dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, quant_mode=mode.value,
                             num_labels=len(labels))
    tokens = np.stack([t for t, _ in dev[:5]])
    counter = OpCounter()
    logits, asrs, counts = stack.temporal_simulate(tokens, T=40,
                                                   counter=counter)
    assert logits.shape == (5, 2) and counter.total > 0
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
    steps = model.WINDOW_ROWS // tokens.size  # steps per window
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
    tokens = np.tile(np.array([2, 4, 5, 6]), (model.WINDOW_ROWS // 4, 1))
    windows = []
    inner = model.lif_step

    def counted(state, currents, *args):
        windows.append(len(currents))
        return inner(state, currents, *args)

    monkeypatch.setattr(model, "lif_step", counted)
    stack.temporal_simulate(tokens, 3)
    assert windows == [1] * (1 + 5 * stack.cfg.num_layers) * 3


@pytest.mark.parametrize("mode", [QuantMode.FULL_PRECISION,
                                  QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=["fp", "1bit", "1.58bit"])
@pytest.mark.parametrize("gamma,lif", [
    (1.0, {}), (0.9, {}), (1.0, {"v_th": 2.0}), (0.9, {"v_th": 2.0}),
    (1.0, {"binary_output_scale": True})],
    ids=["1.0", "0.9", "1.0-vth2", "0.9-vth2", "1.0-output-scale"])
@pytest.mark.parametrize("batch", [False, True], ids=["seq", "B-seq"])
def test_windowed_simulation_equals_step_major_oracle_bitwise(
        monkeypatch, mode, gamma, lif, batch):
    stack = make_stack(seed=2, mode=mode, gamma=gamma, **lif)
    stack.freeze_quantization()
    tokens = np.array([[2, 4, 5, 6, 7], [3, 8, 9, 10, 1], [2, 2, 6, 5, 4]])
    if not batch:
        tokens = tokens[0]
    steps = model.WINDOW_ROWS // tokens.size  # steps per window
    targets = {"input": 0.5, "blk0.q": 0.25, "blk1.out": 0.75}
    # the neuron layers temporal_simulate makes, in the order it makes them
    states, make = [], model.LifLayerState.zeros

    def zeros(cls, *args):
        states.append(make(*args))
        return states[-1]

    monkeypatch.setattr(model.LifLayerState, "zeros", classmethod(zeros))
    names = ["input"] + [f"blk{i}.{nm}" for i in range(stack.cfg.num_layers)
                         for nm in ("qkv", "attn", "h1", "out", "int")]
    for T in (1, steps - 1, steps + 1, 200):
        want_counter, want_trace, want_u = OpCounter(), [], {}
        want = step_major_simulate(stack, tokens, T, counter=want_counter,
                                   trace=want_trace, trace_targets=targets,
                                   membranes=want_u)
        for tracing in (False, True):
            counter, trace = OpCounter(), [] if tracing else None
            states.clear()
            got = stack.temporal_simulate(tokens, T, counter=counter,
                                          trace=trace, trace_targets=targets)
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


@pytest.mark.parametrize("poison", ["tok_emb", "ln_gain", "fp_weight"])
def test_non_finite_spike_path_is_numeric_error(poison):
    stack = make_stack(mode=QuantMode.FULL_PRECISION)
    if poison == "tok_emb":
        stack.tok_emb[4, 1] = np.nan
    elif poison == "ln_gain":
        stack.params["blk1.ln1_g"][3] = np.nan
    else:
        stack.linears["blk0.ff1"].latent_w[2, 5] = np.inf
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        stack.temporal_simulate(np.array([[2, 4, 5], [3, 6, 7]]), T=20)


def test_batched_solve_logits_equal_each_sentence_alone():
    cfg = pl.load_config(None, {"seed": 5})
    tok, _train, dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    stack.freeze_quantization()
    scfg = pl.solver_config(cfg)
    for tokens, _labels in stack_by_length(dev[:16]):
        batch = stack.logits(solve_fixed_point(stack, tokens, scfg).asr_star[-1])
        assert batch.shape == (len(tokens), len(labels))
        for row, sentence in zip(batch, tokens):
            alone = solve_fixed_point(stack, sentence, scfg).asr_star[-1]
            np.testing.assert_array_equal(row, stack.logits(alone))


def test_temporal_simulate_rejects_bad_token_shapes():
    stack = make_stack()
    for tokens in (np.zeros((1, 2, 3), dtype=int),
                   np.zeros(stack.cfg.max_len + 1, dtype=int)):
        with pytest.raises(ShapeError):
            stack.temporal_simulate(tokens, T=5)


def test_block_forward_tapes_one_node_per_fused_op():
    cfg = pl.load_config(None, {})  # the default 2-block ternary shape
    tok, train, _dev, labels = pl.make_dataset(cfg)
    stack = pl.build_student(cfg, tok, num_labels=len(labels))
    leaves = stack.param_tensors()
    enc = stack.encoding(train[0][0], leaves)
    out = stack.block_forward(0, enc, leaves, stack.effective_weights(leaves))
    below = {id(n) for n in ad._toposort([enc])}
    nodes = [n for n in ad._toposort([out]) if id(n) not in below]
    # 16 parameter leaves, 6 straight-through weight views, and 18 ops:
    # 6 linears, 7 threshold clips, attention, 2 layer norms, 2 residual adds
    assert sum(n._vjp is None for n in nodes) == 16
    assert len(nodes) == 40


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
        np.testing.assert_allclose(logits[b], l_row, rtol=1e-13, atol=1e-15)
