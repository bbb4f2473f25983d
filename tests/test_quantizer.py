import numpy as np
import pytest

from eqspike import autodiff as ad
from eqspike.numerics import ShapeError
from eqspike.quantizer import (OpCounter, QuantizedLinear, QuantMode,
                               _accumulate, effective_weight_tensor,
                               pack_codes, quantize_1bit, quantize_158bit,
                               quantized_forward, unpack_codes)


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


def _layer(mode, rng=None, out_dim=4, in_dim=6, **kw):
    rng = rng or np.random.default_rng(2)
    return QuantizedLinear(latent_w=rng.normal(size=(out_dim, in_dim)),
                           bias=rng.normal(size=out_dim), mode=mode, **kw)


def test_effective_weight_fp_is_latent():
    layer = _layer(QuantMode.FULL_PRECISION)
    assert layer.effective_weight() is layer.latent_w


def test_effective_weight_ternary_is_scaled_codes():
    layer = _layer(QuantMode.TERNARY_158BIT)
    q, beta = quantize_158bit(layer.latent_w)
    np.testing.assert_allclose(layer.effective_weight(), q * beta)
    assert layer.beta == beta


def test_freeze_pins_codes():
    layer = _layer(QuantMode.TERNARY_158BIT)
    layer.freeze()
    before = layer.effective_weight().copy()
    layer.latent_w += 10.0  # latent drift must not change frozen inference
    np.testing.assert_array_equal(layer.effective_weight(), before)


def test_spike_accumulation_matches_dense_matmul():
    rng = np.random.default_rng(3)
    for mode in (QuantMode.BINARY_1BIT, QuantMode.TERNARY_158BIT):
        layer = _layer(mode, rng)
        spikes = (rng.random((5, layer.in_dim)) < 0.4).astype(float)
        out = quantized_forward(layer, spikes)
        dense = spikes @ layer.effective_weight().T + layer.bias
        np.testing.assert_allclose(out, dense, atol=1e-12)


def test_accumulate_kernel_sums_columns():
    codes = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
    x = np.array([1.0, 1.0, 0.0])
    np.testing.assert_array_equal(_accumulate(codes, x), [0.0, 1.0])


def test_op_counter_counts_spikes_times_nonzero_column_weights():
    layer = QuantizedLinear(latent_w=np.array([[0.05, 2.0], [1.0, -0.05]]),
                            bias=np.zeros(2), mode=QuantMode.TERNARY_158BIT)
    codes = layer.codes()
    nnz_col = np.count_nonzero(codes, axis=0)
    spikes = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    counter = OpCounter()
    quantized_forward(layer, spikes, counter=counter, name="lin")
    expected = int((spikes.sum(axis=0) * nnz_col).sum())
    assert counter.per_layer["lin"] == expected
    assert counter.total == expected


def test_quantized_forward_rejects_bad_width():
    layer = _layer(QuantMode.FULL_PRECISION)
    with pytest.raises(ShapeError):
        quantized_forward(layer, np.zeros(layer.in_dim + 1))


def test_effective_weight_tensor_ste_gradient():
    layer = _layer(QuantMode.TERNARY_158BIT)
    latent = ad.Tensor(layer.latent_w.copy(), requires_grad=True)
    w_eff = effective_weight_tensor(layer, latent)
    np.testing.assert_allclose(w_eff.data, layer.effective_weight())
    g = np.random.default_rng(4).normal(size=w_eff.shape)
    ad.backward([ad.tensor_sum(ad.mul(w_eff, ad.Tensor(g)))], [1.0])
    np.testing.assert_array_equal(latent.grad, g)  # identity straight-through


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


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_codes(np.array([2]))


def test_unpack_rejects_invalid_bit_pattern():
    import base64
    bad = base64.b64encode(bytes([0b10])).decode()
    with pytest.raises(ValueError):
        unpack_codes(bad, (1,))
