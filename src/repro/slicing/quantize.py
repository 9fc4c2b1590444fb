"""Quantized feature representations, dequantized at the device boundary.

FastSample (PAPERS.md) argues feature compression is the key lever for
billion-scale graphs — compress what crosses the slow links, decompress
where the compute is: at papers100M scale the fp16 feature slab alone
exceeds host RAM, so the cold tier stores either

- ``float16`` — the baseline's conventional optimization (iii), 2 bytes
  per value, exact for our synthetic stand-ins (they are generated in
  fp16); or
- ``uint8`` per-channel affine codes — 1 byte per value plus two fp32
  parameters per *channel* (amortized to nothing per row), for a further
  2x over fp16 at a bounded reconstruction error.

The affine code for channel ``c`` is ``code = round((x - offset_c) /
scale_c)`` with ``scale_c = (max_c - min_c) / 255`` and ``offset_c =
min_c``; reconstruction is ``x_hat = code * scale_c + offset_c``, so the
worst-case per-value error is ``scale_c / 2`` — half a quantization step.

Codes are sliced, staged and transferred as stored, 1 byte per value.
:func:`dequantize_rows` is the inverse, and its only caller is
:meth:`~repro.slicing.memmap_store.MemmapFeatureStore.decode`, the store's
one float32 seam, which runs on the device side of the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizationParams",
    "quantize_uint8",
    "dequantize_rows",
    "max_quantization_error",
]


@dataclass(frozen=True)
class QuantizationParams:
    """Per-channel affine dequantization parameters (``x = code*scale+offset``)."""

    scale: np.ndarray  # (F,) float32, > 0
    offset: np.ndarray  # (F,) float32

    def __post_init__(self) -> None:
        scale = np.ascontiguousarray(self.scale, dtype=np.float32)
        offset = np.ascontiguousarray(self.offset, dtype=np.float32)
        if scale.ndim != 1 or scale.shape != offset.shape:
            raise ValueError("scale/offset must be matching 1-D channel vectors")
        if not np.all(scale > 0):
            raise ValueError("scale entries must be positive")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    @property
    def num_channels(self) -> int:
        return self.scale.shape[0]

    def nbytes(self) -> int:
        return self.scale.nbytes + self.offset.nbytes


def quantize_uint8(
    features: np.ndarray,
) -> tuple[np.ndarray, QuantizationParams]:
    """Per-channel affine uint8 quantization of a (N, F) feature matrix.

    Channel statistics are computed in float32 regardless of the input
    dtype (fp16 min/max would already be exact, but the scale division is
    not). Constant channels get ``scale = 1`` so dequantization reproduces
    them exactly (every code is 0).  A channel whose top code would decode
    past float32's largest value (its range overflows float32, or its
    maximum sits within rounding of it) raises ``ValueError``, as a
    non-finite one does, rather than decoding to inf or NaN.
    """
    if features.ndim != 2:
        raise ValueError("features must be 2-D (nodes x channels)")
    x = np.asarray(features, dtype=np.float32)
    lo = x.min(axis=0) if len(x) else np.zeros(x.shape[1], np.float32)
    hi = x.max(axis=0) if len(x) else np.zeros(x.shape[1], np.float32)
    # NaN poisons min/max and +-Inf is its own extremum, so the two channel
    # vectors already say whether any entry of the matrix is non-finite.
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
    if len(bad):
        raise ValueError(
            f"features must be finite: channel {bad[0]} holds NaN or Inf "
            f"(min {lo[bad[0]]}, max {hi[bad[0]]})"
        )
    with np.errstate(over="ignore"):  # overflow is what the check finds
        scale = (hi - lo) / 255.0
        top = scale * np.uint8(255) + lo  # what code 255 decodes to
    # A channel whose range exceeds float32's largest value (hi - lo is
    # then inf), or whose top code's decode rounds past it, would decode
    # finite features to inf or NaN.  No affine uint8 code over float32
    # can span such a channel, so it is refused like a non-finite one.
    wide = np.flatnonzero(~np.isfinite(top))
    if len(wide):
        raise ValueError(
            f"channel {wide[0]} spans {lo[wide[0]]} .. {hi[wide[0]]}: its top "
            "code would decode past float32's largest value"
        )
    scale[scale <= 0] = 1.0
    params = QuantizationParams(scale=scale, offset=lo)
    codes = np.rint((x - params.offset) / params.scale)
    np.clip(codes, 0.0, 255.0, out=codes)
    return codes.astype(np.uint8), params


def dequantize_rows(codes: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Reconstruct feature rows from uint8 codes as a fresh float32 array.

    Two ufuncs, both in float32 (uint8 * f32 promotes to f32; the add runs
    in place), so every element is converted once.
    """
    if codes.ndim != 2 or codes.shape[1] != params.num_channels:
        raise ValueError(
            f"codes shape {codes.shape} does not match "
            f"{params.num_channels} channels"
        )
    out = np.multiply(codes, params.scale)
    np.add(out, params.offset, out=out)
    return out


def max_quantization_error(params: QuantizationParams) -> float:
    """Worst-case absolute reconstruction error: half the largest step."""
    return float(params.scale.max()) / 2.0
