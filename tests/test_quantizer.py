import dataclasses

import numpy as np
import pytest
from oracles import dense_spike_linear, per_matrix_quantization

from eqspike.autodiff import linear_backward
from eqspike.model import WINDOW_BYTES
from eqspike.numerics import ShapeError
from eqspike.quantizer import (OpCounter, Pinned, QuantMode,
                               effective_weight_tensor, pin, quantize_1bit,
                               quantize_158bit, quantized_forward,
                               stack_pinned)


def test_binary_codes_and_alpha():
    w = np.array([[0.5, -0.5], [1.5, 0.5]])
    q, alpha = quantize_1bit(w)
    assert alpha == 0.5
    np.testing.assert_array_equal(q, [[-1.0, -1.0], [1.0, -1.0]])  # Sign(0) = -1


def test_binary_shift_equivariance():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 4))
    q1, _ = quantize_1bit(w)
    q2, alpha2 = quantize_1bit(w + 3.7)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_allclose(alpha2, w.mean() + 3.7)


def test_ternary_codes_beta_and_rounding():
    w = np.array([0.1, -0.1, 1.0, -1.0])
    q, beta = quantize_158bit(w)
    assert beta == pytest.approx(0.55)
    # 0.1/0.55 ~= 0.18 -> 0; 1.0/0.55 clips to 1 -> 1
    np.testing.assert_array_equal(q, [0.0, 0.0, 1.0, -1.0])


def test_ternary_ties_round_away_from_zero():
    # Power-of-two construction keeps every float op exact: beta = 2 and
    # the entries +-a scale to exactly the 0.5 rounding tie.
    eps = 2.0 ** -20
    a = 1.0 + eps
    b = 4.0 - a
    w = np.array([a, -a, b, -b])
    q, beta = quantize_158bit(w, epsilon=eps)
    assert beta == 2.0
    assert a / (beta * (1.0 + eps)) == 0.5  # exact tie
    np.testing.assert_array_equal(q, [1.0, -1.0, 1.0, -1.0])


def test_ternary_positive_scale_code_invariance():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(5, 5))
    q1, beta1 = quantize_158bit(w)
    q2, beta2 = quantize_158bit(4.0 * w)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_allclose(beta2, 4.0 * beta1)


@pytest.mark.parametrize("fn", [quantize_1bit, quantize_158bit])
def test_quantizers_reject_empty(fn):
    with pytest.raises(ShapeError):
        fn(np.zeros((0, 3)))


def _layer(mode, rng=None, out_dim=4, in_dim=6, binary_output_scale=False):
    """(pinned linear, its latent weight, a bias) of a random weight."""
    rng = rng or np.random.default_rng(2)
    w = rng.normal(size=(out_dim, in_dim))
    return pin([w], mode, binary_output_scale)[0], w, rng.normal(size=out_dim)


def test_effective_weight_fp_is_latent():
    layer, w, _ = _layer(QuantMode.FULL_PRECISION)
    weight = effective_weight_tensor(layer)
    assert weight.base is w and layer.codes is weight
    assert layer.scale is None and not layer.quantized


def test_effective_weight_ternary_is_scaled_codes():
    layer, w, _ = _layer(QuantMode.TERNARY_158BIT)
    q, beta = quantize_158bit(w)
    np.testing.assert_allclose(effective_weight_tensor(layer), q * beta)
    assert layer.scale == beta


def test_freeze_pins_codes():
    layer, w, _ = _layer(QuantMode.TERNARY_158BIT)
    before = effective_weight_tensor(layer).copy()
    w += 10.0  # latent drift must not change frozen inference
    np.testing.assert_array_equal(effective_weight_tensor(layer), before)


@pytest.mark.parametrize("mode,output_scale", [
    (QuantMode.BINARY_1BIT, False), (QuantMode.BINARY_1BIT, True),
    (QuantMode.TERNARY_158BIT, False)], ids=["1bit", "1bit-scaled", "1.58bit"])
def test_pinned_arrays_are_built_once_and_read_only(mode, output_scale):
    layer, latent, _ = _layer(mode, binary_output_scale=output_scale)
    q, w = layer.codes, layer.weight
    assert q.dtype == np.float64 and not q.flags.writeable
    assert not w.flags.writeable and not layer.column_nnz.flags.writeable
    np.testing.assert_array_equal(
        w, effective_weight_tensor(pin([latent], mode, output_scale)[0]))
    if output_scale or mode is QuantMode.TERNARY_158BIT:
        np.testing.assert_array_equal(w, q * layer.scale)
    else:
        assert w is q  # unscaled binary codes are the weight
    with pytest.raises(ValueError):
        w[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.scale = 1.0
    assert effective_weight_tensor(layer) is w


def test_spike_accumulation_matches_dense_matmul():
    rng = np.random.default_rng(3)
    for mode in (QuantMode.BINARY_1BIT, QuantMode.TERNARY_158BIT):
        layer, _, bias = _layer(mode, rng)
        spikes = (rng.random((5, layer.codes.shape[1])) < 0.4).astype(float)
        out = quantized_forward(layer, spikes, bias)
        dense = spikes @ effective_weight_tensor(layer).T + bias
        np.testing.assert_allclose(out, dense, atol=1e-12)


def test_accumulate_kernel_sums_columns():
    codes = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
    layer = Pinned(codes, codes, 1.0)
    bias = np.array([0.25, -0.5])
    x = np.array([True, True, False])
    np.testing.assert_array_equal(quantized_forward(layer, x, bias),
                                  np.array([0.0, 1.0]) + bias)


def column_sum_oracle(codes, x):
    """Reference: per row, the sum of the code columns whose spike is 1."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros((flat.shape[0], codes.shape[0]))
    for r in range(flat.shape[0]):
        out[r] = codes[:, np.nonzero(flat[r])[0]].sum(axis=1)
    return out.reshape(x.shape[:-1] + (codes.shape[0],))


@pytest.mark.parametrize("mode,output_scale", [
    (QuantMode.BINARY_1BIT, False), (QuantMode.BINARY_1BIT, True),
    (QuantMode.TERNARY_158BIT, False)], ids=["1bit", "1bit-scaled", "1.58bit"])
def test_accumulate_equals_column_sum_oracle_on_batched_spikes(mode,
                                                               output_scale):
    rng = np.random.default_rng(6)
    layer, latent, bias = _layer(mode, rng, out_dim=9, in_dim=40,
                                 binary_output_scale=output_scale)
    codes, in_dim = layer.codes, layer.codes.shape[1]
    scale = float(np.abs(latent).mean()) \
        if output_scale or mode is QuantMode.TERNARY_158BIT else 1.0
    spikes = rng.random((3, 7, in_dim)) < 0.3
    spikes[0, 0] = False  # a row with no spike
    spikes[0, 1] = True  # and one where every input spikes
    want = column_sum_oracle(codes, spikes)
    counter = OpCounter()
    out = quantized_forward(layer, spikes, bias, counter, "lin")
    np.testing.assert_array_equal(out, scale * want + bias)
    assert sum(counter.per_layer.values()) == int(
        (spikes.reshape(-1, in_dim).sum(axis=0)
         * np.count_nonzero(codes, axis=0)).sum())


def test_op_counter_counts_spikes_times_nonzero_column_weights():
    layer, = pin([np.array([[0.05, 2.0], [1.0, -0.05]])],
                 QuantMode.TERNARY_158BIT)
    nnz_col = np.count_nonzero(layer.codes, axis=0)
    spikes = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    counter = OpCounter()
    quantized_forward(layer, spikes, np.zeros(2), counter=counter, name="lin")
    expected = int((spikes.sum(axis=0) * nnz_col).sum())
    assert counter.per_layer["lin"] == expected
    assert sum(counter.per_layer.values()) == expected


STACK_CASES = {"fp": (QuantMode.FULL_PRECISION, False),
               "1bit": (QuantMode.BINARY_1BIT, False),
               "1bit-scaled": (QuantMode.BINARY_1BIT, True),
               "1.58bit": (QuantMode.TERNARY_158BIT, False)}


def _bits(a):
    """`a`'s bytes: equal only if every value, signed zeros included, is."""
    return np.ascontiguousarray(a).tobytes()


def _shape_group(rng, d):
    """Six (d, 2d) latents: four random ones at scales far apart, one with
    exact zeros of both signs, and an all-zero one, whose absmean 0 takes
    the ternary zero-divide guard."""
    ws = [rng.normal(size=(d, 2 * d)) * s for s in (1e-3, 0.1, 1.0, 40.0)]
    signed = rng.normal(size=(d, 2 * d))
    signed[::2, ::3] = 0.0
    signed[1::2, ::3] = -0.0
    return ws + [signed, np.zeros((d, 2 * d))]


@pytest.mark.parametrize("d", [8, 32, 48, 64])
@pytest.mark.parametrize("mode,output_scale", list(STACK_CASES.values()),
                         ids=list(STACK_CASES))
def test_shape_group_pins_are_each_linears_own_bitwise(mode, output_scale, d):
    ws = _shape_group(np.random.default_rng(d), d)
    group = pin(ws, mode, output_scale)
    assert len(group) == len(ws)
    for got, w in zip(group, ws):
        own, = pin([w], mode, output_scale)
        codes, weight, scale = per_matrix_quantization(w, mode, output_scale)
        for pinned in (got, own):
            assert _bits(pinned.codes) == _bits(codes)
            assert _bits(pinned.weight) == _bits(weight)
            assert pinned.scale == scale and type(pinned.scale) is type(scale)
            assert not pinned.codes.flags.writeable
            assert not pinned.weight.flags.writeable
        if not got.quantized:  # full precision: views of the latent itself
            assert np.shares_memory(got.weight, w) and got.codes is got.weight
        elif mode is QuantMode.BINARY_1BIT and not output_scale:
            assert got.weight is got.codes
    zero = group[-1]
    if mode is QuantMode.TERNARY_158BIT:  # beta = 0: every code 0
        assert zero.scale == 0.0 and not zero.codes.any()


def test_quantizers_take_one_statistic_per_stacked_matrix():
    ws = _shape_group(np.random.default_rng(5), 8)
    stack = np.stack(ws)
    for fn in (quantize_1bit, quantize_158bit):
        q, stats = fn(stack)
        assert q.shape == stack.shape and stats.shape == (len(ws),)
        for j, w in enumerate(ws):
            q_own, stat = fn(w)
            assert isinstance(stat, float) and stats[j] == stat
            assert _bits(q[j]) == _bits(q_own)


# each mode with an `OpCounter`, then without one ("-no-counter")
@pytest.mark.parametrize(
    "mode,output_scale,counted",
    [case + (True,) for case in STACK_CASES.values()]
    + [case + (False,) for case in STACK_CASES.values()],
    ids=list(STACK_CASES) + [f"{k}-no-counter" for k in STACK_CASES])
def test_stacked_layer_is_its_parts_bitwise(mode, output_scale, counted):
    # d = 64 and 20 x 12 rows: a shape at which one (., 64) @ (64, 192)
    # matmul of real weights rounds differently from three (., 64) @ (64, 64)
    rng = np.random.default_rng(8)
    layers = [_layer(mode, rng, out_dim=64, in_dim=64,
                     binary_output_scale=output_scale) for _ in range(3)]
    parts, biases = [p for p, _, _ in layers], [b for _, _, b in layers]
    before = [(p.codes.copy(), p.weight.copy(), p.column_nnz.copy())
              for p in parts]
    spikes = rng.random((20, 12, 64)) < 0.4
    stacked = stack_pinned(parts)
    counter, want_counter = (OpCounter(), OpCounter()) if counted \
        else (None, None)
    out = quantized_forward(stacked, spikes, np.concatenate(biases), counter,
                            ("q", "k", "v"))
    want = np.concatenate([quantized_forward(p, spikes, b, want_counter, nm)
                           for p, b, nm in zip(parts, biases, "qkv")], axis=-1)
    np.testing.assert_array_equal(out, want)
    if counted:
        assert list(counter.per_layer.items()) == \
            list(want_counter.per_layer.items())
    for p, arrays in zip(parts, before):  # the parts are left as they were
        for got, was in zip((p.codes, p.weight, p.column_nnz), arrays):
            np.testing.assert_array_equal(got, was)
    assert not any(a.flags.writeable for a in (
        stacked.codes, stacked.weight, stacked.column_nnz))
    with pytest.raises(ShapeError):
        stack_pinned([parts[0], _layer(mode, rng, out_dim=32, in_dim=64)[0]])


def per_index_forward(layer, x, bias, counter, names):
    """Reference: the spike kernel as one product per leading (C, B) index
    of x, then scaled and biased; its counts, one `OpCounter.add` per part
    in order, from each input's spikes times its nonzero codes."""
    codes, in_dim = layer.codes, layer.codes.shape[1]
    out = np.empty(x.shape[:-1] + (codes.shape[0],))
    for idx in np.ndindex(x.shape[:-2]):
        out[idx] = x[idx] @ codes.T
    out *= layer.scale
    out += bias
    active = (x.reshape(-1, in_dim) != 0).sum(axis=0)
    for name, part in zip(names, np.split(codes, layer.parts), strict=True):
        counter.add(name, int(active @ np.count_nonzero(part, axis=0)))
    return out


@pytest.mark.parametrize("spike_dtype", [bool, float], ids=["bool", "float"])
@pytest.mark.parametrize("mode,stacked", [
    (QuantMode.BINARY_1BIT, False), (QuantMode.TERNARY_158BIT, False),
    (QuantMode.BINARY_1BIT, True), (QuantMode.TERNARY_158BIT, True)],
    ids=["1bit", "1.58bit", "1bit-qkv", "1.58bit-qkv"])
def test_code_kernel_equals_per_index_products_bitwise(mode, stacked,
                                                       spike_dtype):
    # a (C, B, seq, in) window of spikes, as `temporal_simulate` passes it
    rng = np.random.default_rng(14)
    parts = [_layer(mode, rng, out_dim=64, in_dim=64) for _ in range(3)]
    if stacked:
        layer, names = stack_pinned([p for p, _, _ in parts]), ("q", "k", "v")
        bias = np.concatenate([b for _, _, b in parts])
    else:
        (layer, _, bias), names = parts[0], ("q",)
    spikes = (rng.random((5, 3, 12, 64)) < 0.4).astype(spike_dtype)
    spikes[0, 0, 0] = 0  # a row with no spike
    counter, want_counter = OpCounter(), OpCounter()
    out = quantized_forward(layer, spikes, bias, counter,
                            names if stacked else names[0])
    want = per_index_forward(layer, spikes, bias, want_counter, names)
    assert out.shape == want.shape
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
    assert list(counter.per_layer.items()) == \
        list(want_counter.per_layer.items())


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "qkv"])
@pytest.mark.parametrize("mode", [QuantMode.FULL_PRECISION,
                                  QuantMode.BINARY_1BIT,
                                  QuantMode.TERNARY_158BIT],
                         ids=lambda m: m.value)
def test_op_counts_equal_the_dense_oracle(mode, stacked):
    rng = np.random.default_rng(30)
    in_dim, names = 8, ("q", "k", "v") if stacked else ("q",)
    parts = []
    for _ in names:
        w = rng.normal(size=(16, in_dim))
        w[rng.random(w.shape) < 0.2] = 0.0  # zero weights count nothing
        parts.append((pin([w], mode)[0], rng.normal(size=16)))
    layer = stack_pinned([p for p, _ in parts]) if stacked else parts[0][0]
    bias = np.concatenate([b for _, b in parts])
    # a linear of fan-in in_dim sees at most this many rows in a window,
    # the widest window array being at least in_dim values per row
    most_rows = WINDOW_BYTES // (8 * in_dim)
    assert most_rows < 2 ** 24  # the float32 spike counts stay exact
    for spikes in (rng.random((5, 3, 12, in_dim)) < 0.3,  # (C, B, seq, in)
                   np.ones((most_rows, in_dim), dtype=bool)):
        counter, want = OpCounter(), OpCounter()
        quantized_forward(layer, spikes, bias, counter,
                          names if stacked else names[0])
        for (part, b), name in zip(parts, names):
            dense_spike_linear(part, spikes, b, want, name)
        assert counter.per_layer == want.per_layer
        assert all(ops > 0 for ops in counter.per_layer.values())


def _constant_codes(sign, fan_in, scale=0.375, out_dim=5):
    codes = np.full((out_dim, fan_in), float(sign))
    return Pinned(codes, codes * scale, scale)


def _float32_kernel_case(case):
    """(pinned linear, 0/1 spikes, bias) for one float32-kernel case."""
    rng = np.random.default_rng(21)
    bias = rng.normal(size=5)
    if case in ("all+1", "all-1"):  # every input spikes: sums of +-fan-in
        layer = _constant_codes(1 if case == "all+1" else -1, 128)
        return layer, np.ones((2, 128), dtype=bool), bias
    if case == "ternary-zeros":
        layer, _, bias = _layer(QuantMode.TERNARY_158BIT, rng, out_dim=5,
                                in_dim=128)
        assert 0 < np.count_nonzero(layer.codes == 0) < layer.codes.size
    elif case == "1bit-unscaled":
        layer, _, bias = _layer(QuantMode.BINARY_1BIT, rng, out_dim=5,
                                in_dim=128)
        assert layer.scale == 1.0
    else:  # a q/k/v stack, each part with its own scale, on (B, seq, in)
        parts = [_layer(QuantMode.TERNARY_158BIT, rng, out_dim=64, in_dim=64)
                 for _ in range(3)]
        layer = stack_pinned([p for p, _, _ in parts])
        assert len({p.scale for p, _, _ in parts}) == 3
        spikes = rng.random((4, 12, 64)) < 0.5
        spikes[0, 0] = True
        return layer, spikes, np.concatenate([b for _, _, b in parts])
    return layer, rng.random((3, 7, 128)) < 0.5, bias


@pytest.mark.parametrize("case", ["all+1", "all-1", "ternary-zeros",
                                  "1bit-unscaled", "qkv-stack"])
def test_float32_code_kernel_equals_float64_reference_bitwise(case):
    layer, spikes, bias = _float32_kernel_case(case)
    assert layer.codes_t32.dtype == np.float32
    assert layer.codes_t32.flags.c_contiguous
    assert not layer.codes_t32.flags.writeable
    want = spikes.astype(float) @ layer.codes.T * layer.scale + bias
    out = quantized_forward(layer, spikes, bias)
    assert out.dtype == np.float64 and out.shape == want.shape
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
    if case.startswith("all"):  # the extreme sums, +-fan-in
        np.testing.assert_array_equal(
            quantized_forward(layer, spikes, np.zeros_like(bias)),
            np.full(want.shape, 128 * layer.codes[0, 0] * layer.scale))


def test_quantized_forward_rejects_bad_width():
    layer, w, bias = _layer(QuantMode.FULL_PRECISION)
    with pytest.raises(ShapeError):
        quantized_forward(layer, np.zeros(w.shape[1] + 1), bias)


def test_effective_weight_tensor_ste_gradient():
    layer, w, _ = _layer(QuantMode.TERNARY_158BIT)
    w_eff = effective_weight_tensor(layer)
    q, beta = quantize_158bit(w)
    np.testing.assert_allclose(w_eff, q * beta)
    rng = np.random.default_rng(4)
    out_dim, in_dim = w.shape
    x, g = rng.random((3, in_dim)), rng.normal(size=(3, out_dim))
    _gx, gw, _gb = linear_backward(g, x, w_eff)
    # identity straight-through: the latent weights get the gradient of
    # the effective weight
    np.testing.assert_array_equal(gw, g.T @ x)
