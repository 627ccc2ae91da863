"""Tests for the NF4 blockwise quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant import (
    DEFAULT_BLOCK_SIZE,
    NF4_CODEBOOK,
    QuantizedTensor,
    quantization_error,
    quantize,
)


class TestCodebook:
    def test_sixteen_levels(self):
        assert NF4_CODEBOOK.shape == (16,)

    def test_sorted_and_symmetric_endpoints(self):
        assert np.all(np.diff(NF4_CODEBOOK) > 0)
        assert NF4_CODEBOOK[0] == -1.0
        assert NF4_CODEBOOK[-1] == 1.0

    def test_zero_is_representable(self):
        assert 0.0 in NF4_CODEBOOK


class TestQuantizeDequantize:
    def test_roundtrip_shape_preserved(self, rng):
        w = rng.standard_normal((7, 13))
        qt = quantize(w)
        assert qt.dequantize().shape == (7, 13)

    def test_codebook_values_are_exact_fixed_points(self):
        """Values exactly on scaled codebook levels reconstruct exactly."""
        scale = 3.7
        w = NF4_CODEBOOK * scale  # one block of 16, absmax = scale
        qt = quantize(w, block_size=16)
        np.testing.assert_allclose(qt.dequantize(), w, rtol=1e-6)

    def test_gaussian_relative_error_small(self, rng):
        w = rng.standard_normal(4096)
        assert quantization_error(w) < 0.12  # NF4 on gaussian data: ~8% RMS

    def test_error_worse_than_zero_for_nonzero_input(self, rng):
        assert quantization_error(rng.standard_normal(256)) > 0.0

    def test_zero_input_exact(self):
        qt = quantize(np.zeros(128))
        np.testing.assert_allclose(qt.dequantize(), 0.0)
        assert quantization_error(np.zeros(128)) == 0.0

    def test_non_multiple_block_size_padding(self, rng):
        w = rng.standard_normal(100)  # not a multiple of 64
        qt = quantize(w)
        assert qt.dequantize().shape == (100,)

    def test_packing_is_half_byte_per_element(self, rng):
        w = rng.standard_normal(1024)
        qt = quantize(w)
        assert qt.packed.nbytes == 512  # 2 codes per byte

    def test_nominal_bytes_includes_scales(self, rng):
        qt = quantize(rng.standard_normal(128), block_size=64)
        assert qt.nominal_bytes == 64 + 2 * 4  # packed + 2 fp32 scales

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            quantize(np.ones(4), block_size=0)

    def test_blockwise_scales_isolate_outliers(self):
        """An outlier in one block must not destroy precision elsewhere."""
        w = np.concatenate([np.full(64, 0.01), np.full(64, 100.0)])
        qt = quantize(w, block_size=64)
        out = qt.dequantize()
        np.testing.assert_allclose(out[:64], 0.01, rtol=1e-6)
        np.testing.assert_allclose(out[64:], 100.0, rtol=1e-6)

    def test_scale_dtype_fp32(self, rng):
        assert quantize(rng.standard_normal(64)).scales.dtype == np.float32


def reference_dequantize(qt, dtype=np.float64):
    """The nibble-unpacking decode that the pair-table decode replaced."""
    n = qt.num_elements
    codes = np.empty(((n + qt.block_size - 1) // qt.block_size) * qt.block_size, dtype=np.uint8)
    codes[0::2] = qt.packed >> 4
    codes[1::2] = qt.packed & 0x0F
    values = NF4_CODEBOOK[codes].reshape(-1, qt.block_size) * qt.scales[:, None]
    return values.reshape(-1)[:n].reshape(qt.shape).astype(dtype)


class TestPairTableDecode:
    """``dequantize`` decodes two codes per byte from a 256-row table; its
    bytes must be the reference decode's."""

    @pytest.mark.parametrize("shape, block_size", [
        ((96, 48), 64), ((100,), 64), ((7, 5), 64), ((3,), 64), ((5, 9), 16), ((12,), 6),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference_bytes(self, rng, shape, block_size, dtype):
        qt = quantize(rng.standard_normal(shape), block_size=block_size)
        out = qt.dequantize(dtype=dtype)
        expected = reference_dequantize(qt, dtype)
        assert (out.dtype, out.shape) == (expected.dtype, expected.shape)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()

    def test_all_zero_blocks(self, rng):
        w = rng.standard_normal(192)
        w[64:128] = 0.0
        qt = quantize(w, block_size=64)
        out = qt.dequantize()
        assert out.tobytes() == reference_dequantize(qt).tobytes()
        assert np.all(out[64:128] == 0.0)

    def test_each_call_returns_a_fresh_array(self, rng):
        qt = quantize(rng.standard_normal((4, 16)))
        first = qt.dequantize()
        first[:] = 0.0
        assert qt.dequantize().tobytes() == reference_dequantize(qt).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 300),
           elements=st.floats(min_value=-100, max_value=100, allow_nan=False)),
)
def test_roundtrip_error_bounded_by_block_absmax(w):
    """|x - dequant(quant(x))| <= absmax * max codebook gap / 2, per block."""
    qt = quantize(w, block_size=64)
    out = qt.dequantize()
    max_gap = np.max(np.diff(NF4_CODEBOOK))
    padded = np.zeros(((len(w) + 63) // 64) * 64)
    padded[: len(w)] = w
    blocks = padded.reshape(-1, 64)
    absmax = np.maximum(np.abs(blocks).max(axis=1), 1e-12)
    bound = np.repeat(absmax * max_gap / 2, 64)[: len(w)]
    assert np.all(np.abs(out - w) <= bound + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(1, 4))
def test_dequantize_idempotent_fixed_point(n, seed):
    """quant(dequant(quant(x))) == quant(x) — codes are a fixed point."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    qt1 = quantize(w)
    qt2 = quantize(qt1.dequantize())
    np.testing.assert_allclose(qt1.dequantize(), qt2.dequantize(), rtol=1e-9, atol=1e-12)
