"""Feature/label slicing and the feature stores: in host RAM
(:class:`FeatureStore`) or in an on-disk slab (:class:`MemmapFeatureStore`,
a ``FeatureStore`` too)."""

from .memmap_store import MemmapFeatureStore, write_slab
from .quantize import QuantizationParams, dequantize_rows, quantize_uint8
from .slicer import SlicedBatch, slice_batch_fused, slice_batch_reference
from .store import FeatureStore

__all__ = [
    "FeatureStore",
    "MemmapFeatureStore",
    "write_slab",
    "QuantizationParams",
    "quantize_uint8",
    "dequantize_rows",
    "SlicedBatch",
    "slice_batch_reference",
    "slice_batch_fused",
]
