import base64
import dataclasses

import numpy as np
import pytest

from eqspike.autodiff import linear_backward
from eqspike.numerics import ShapeError
from eqspike.quantizer import (OpCounter, Pinned, QuantMode,
                               effective_weight_tensor, pack_codes, pin,
                               quantize_1bit, quantize_158bit,
                               quantized_forward, stack_pinned,
                               unpack_codes)


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
    return pin(w, mode, binary_output_scale), w, rng.normal(size=out_dim)


def test_effective_weight_fp_is_latent():
    layer, w, _ = _layer(QuantMode.FULL_PRECISION)
    weight = effective_weight_tensor(layer)
    assert weight.base is w and layer.codes is weight
    assert layer.scale is None and not layer.quantized


def test_effective_weight_ternary_is_scaled_codes():
    layer, w, _ = _layer(QuantMode.TERNARY_158BIT)
    q, beta = quantize_158bit(w)
    np.testing.assert_allclose(effective_weight_tensor(layer), q * beta)
    assert layer.beta == beta


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
        w, effective_weight_tensor(pin(latent, mode, output_scale)))
    if output_scale or mode is QuantMode.TERNARY_158BIT:
        np.testing.assert_array_equal(w, q * layer.beta)
    else:
        assert w is q  # unscaled binary codes are the weight
    with pytest.raises(ValueError):
        w[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.beta = 1.0
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
    layer = Pinned(codes, codes, 1.0, 0.0, 0.0)
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
    layer, _, bias = _layer(mode, rng, out_dim=9, in_dim=40,
                            binary_output_scale=output_scale)
    codes, in_dim = layer.codes, layer.codes.shape[1]
    scale = layer.beta if output_scale or mode is QuantMode.TERNARY_158BIT \
        else 1.0
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
    layer = pin(np.array([[0.05, 2.0], [1.0, -0.05]]), QuantMode.TERNARY_158BIT)
    nnz_col = np.count_nonzero(layer.codes, axis=0)
    spikes = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    counter = OpCounter()
    quantized_forward(layer, spikes, np.zeros(2), counter=counter, name="lin")
    expected = int((spikes.sum(axis=0) * nnz_col).sum())
    assert counter.per_layer["lin"] == expected
    assert sum(counter.per_layer.values()) == expected


@pytest.mark.parametrize("mode,output_scale", [
    (QuantMode.FULL_PRECISION, False), (QuantMode.BINARY_1BIT, False),
    (QuantMode.BINARY_1BIT, True), (QuantMode.TERNARY_158BIT, False)],
    ids=["fp", "1bit", "1bit-scaled", "1.58bit"])
def test_stacked_layer_is_its_parts_bitwise(mode, output_scale):
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
    counter, want_counter = OpCounter(), OpCounter()
    out = quantized_forward(stacked, spikes, np.concatenate(biases), counter,
                            ("q", "k", "v"))
    want = np.concatenate([quantized_forward(p, spikes, b, want_counter, nm)
                           for p, b, nm in zip(parts, biases, "qkv")], axis=-1)
    np.testing.assert_array_equal(out, want)
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


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(5)
    q = rng.integers(-1, 2, size=(7, 5)).astype(float)
    packed = pack_codes(q)
    np.testing.assert_array_equal(unpack_codes(packed, q.shape), q)


def test_pack_codes_layout():
    # little-endian within the byte: codes [+1, 0, -1, 0] -> 0b00_11_00_01
    packed = pack_codes(np.array([1, 0, -1, 0]))
    import base64
    assert base64.b64decode(packed) == bytes([0b00110001])


_TO_BITS = {0: 0b00, 1: 0b01, -1: 0b11}
_FROM_BITS = {0b00: 0, 0b01: 1, 0b11: -1}


def pack_loop(q):
    """Reference: the per-code packing loop."""
    flat = q.astype(np.int64).reshape(-1)
    out = bytearray((flat.size + 3) // 4)
    for k, val in enumerate(flat):
        out[k // 4] |= _TO_BITS[int(val)] << ((k % 4) * 2)
    return base64.b64encode(bytes(out)).decode("ascii")


def unpack_loop(packed, shape):
    """Reference: the per-code unpacking loop."""
    raw = base64.b64decode(packed.encode("ascii"))
    n = int(np.prod(shape))
    flat = np.empty(n, dtype=np.float64)
    for k in range(n):
        bits = (raw[k // 4] >> ((k % 4) * 2)) & 0b11
        if bits == 0b10:
            raise ValueError("invalid 2-bit weight code")
        flat[k] = _FROM_BITS[bits]
    return flat.reshape(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 13, 62, 1023])
def test_pack_and_unpack_match_per_code_loop(n):
    rng = np.random.default_rng(n)
    q = rng.integers(-1, 2, size=n).astype(float)
    packed = pack_codes(q)
    assert packed == pack_loop(q)
    np.testing.assert_array_equal(unpack_codes(packed, (n,)), unpack_loop(packed, (n,)))
    # arbitrary bytes: both decode alike, or both reject a 0b10 code
    raw = base64.b64encode(rng.integers(0, 256, size=(n + 3) // 4,
                                        dtype=np.uint8).tobytes()).decode()
    try:
        want = unpack_loop(raw, (n,))
    except ValueError:
        with pytest.raises(ValueError):
            unpack_codes(raw, (n,))
    else:
        np.testing.assert_array_equal(unpack_codes(raw, (n,)), want)


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_codes(np.array([2]))


def test_unpack_rejects_invalid_bit_pattern():
    import base64
    bad = base64.b64encode(bytes([0b10])).decode()
    with pytest.raises(ValueError):
        unpack_codes(bad, (1,))
