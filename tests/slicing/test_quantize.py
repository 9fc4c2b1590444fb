"""Per-channel affine uint8 quantization and its float32 inverse."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slicing import QuantizationParams, dequantize_rows, quantize_uint8
from repro.slicing.quantize import max_quantization_error


@pytest.fixture()
def features(rng):
    return rng.normal(size=(200, 16)).astype(np.float32)


class TestQuantizeUint8:
    def test_codes_are_uint8(self, features):
        codes, params = quantize_uint8(features)
        assert codes.dtype == np.uint8
        assert codes.shape == features.shape
        assert params.num_channels == features.shape[1]

    def test_round_trip_within_half_step(self, features):
        codes, params = quantize_uint8(features)
        recon = dequantize_rows(codes, params)
        bound = max_quantization_error(params) + 1e-6
        assert np.max(np.abs(recon - features)) <= bound

    def test_channel_extremes_are_exact(self, features):
        # min maps to code 0, max to 255; affine reconstruction recovers
        # both endpoints up to f32 rounding.
        codes, params = quantize_uint8(features)
        recon = dequantize_rows(codes, params)
        np.testing.assert_allclose(
            recon.min(axis=0), features.min(axis=0), atol=1e-5
        )

    def test_constant_channel_reproduced_exactly(self):
        features = np.full((50, 3), 2.5, dtype=np.float32)
        codes, params = quantize_uint8(features)
        assert np.all(codes == 0)
        recon = dequantize_rows(codes, params)
        np.testing.assert_array_equal(recon, features)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_the_channel(self, poison):
        features = np.ones((50, 4), dtype=np.float32)
        features[7, 2] = poison
        features[9, 3] = poison
        with pytest.raises(ValueError, match="channel 2 holds NaN or Inf"):
            quantize_uint8(features)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_uint8(np.zeros(10, dtype=np.float32))


class TestQuantizationParams:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            QuantizationParams(scale=np.ones(3), offset=np.zeros(4))

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            QuantizationParams(scale=np.array([1.0, 0.0]), offset=np.zeros(2))

    def test_coerced_to_float32(self):
        params = QuantizationParams(
            scale=np.ones(2, dtype=np.float64), offset=np.zeros(2, dtype=np.int64)
        )
        assert params.scale.dtype == np.float32
        assert params.offset.dtype == np.float32


class TestDequantizeRows:
    def test_reconstructs_into_fresh_float32(self, features):
        codes, params = quantize_uint8(features)
        recon = dequantize_rows(codes, params)
        assert recon.dtype == np.float32
        assert not np.shares_memory(recon, codes)
        expected = codes.astype(np.float32) * params.scale + params.offset
        np.testing.assert_array_equal(recon, expected)

    def test_channel_count_validated(self, features):
        codes, params = quantize_uint8(features)
        with pytest.raises(ValueError):
            dequantize_rows(codes[:, :4], params)


FLOAT32_MAX = float(np.finfo(np.float32).max)


@st.composite
def extreme_channels(draw):
    """(N, F) float32 features whose channels sit anywhere in float32's
    finite range: near +-max, subnormal, mixed signs, or constant."""
    n_rows = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["any", "huge", "constant"]))
        if kind == "constant":
            value = draw(st.floats(width=32, allow_nan=False, allow_infinity=False))
            columns.append([value] * n_rows)
            continue
        if kind == "huge":
            magnitude = st.floats(FLOAT32_MAX / 4, FLOAT32_MAX, width=32)
            values = st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())
        else:
            values = st.floats(width=32, allow_nan=False, allow_infinity=False)
        columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    return np.array(columns, dtype=np.float32).T.copy()


@settings(max_examples=300, deadline=None)
@given(features=extreme_channels())
def test_extreme_finite_ranges_decode_finite_or_are_refused(features):
    """Never a silent inf or NaN: a channel whose top code would decode
    past float32's largest value is refused by name, and only an extreme
    one is (its range overflows float32 or its maximum is within rounding
    of it); every other channel decodes finite, within one step (half a
    step plus float32 rounding), and a constant one exactly."""
    lo = features.min(axis=0).astype(np.float64)
    hi = features.max(axis=0).astype(np.float64)
    try:
        codes, params = quantize_uint8(features)
    except ValueError as exc:
        channel = int(re.search(r"channel (\d+) spans", str(exc)).group(1))
        assert hi[channel] - lo[channel] > FLOAT32_MAX or hi[channel] > FLOAT32_MAX * (
            1 - 2.0**-20
        )
        return
    recon = dequantize_rows(codes, params)
    assert np.all(np.isfinite(recon))
    step = params.scale.astype(np.float64)
    error = np.abs(recon.astype(np.float64) - features)
    assert np.all(error <= step + 1e-6 * np.maximum(np.abs(lo), np.abs(hi)))
    constant = lo == hi
    np.testing.assert_array_equal(recon[:, constant], features[:, constant])


def test_range_overflowing_float32_is_refused_naming_the_channel():
    """``hi - lo`` overflows to inf: before, the scale was inf and the
    channel decoded to NaN."""
    features = np.array([[1.0, -3e38], [2.0, 3e38], [3.0, 0.0]], np.float32)
    with pytest.raises(ValueError, match="channel 1 spans"):
        quantize_uint8(features)
