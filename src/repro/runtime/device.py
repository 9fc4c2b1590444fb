"""Simulated accelerator: device tensors, streams and metered transfers.

No GPU is available in this environment (see DESIGN.md), so the "device" is
modeled explicitly:

- :class:`DeviceTensor` wraps an array that has been "moved" to the device;
  compute consumes float32 device tensors (the paper computes fp32 on GPU
  while storing fp16 on the host).
- :attr:`Device.transfer_stream` is an in-order command queue: a
  one-thread :class:`~concurrent.futures.ThreadPoolExecutor` whose
  :class:`~concurrent.futures.Future` is the completion event — the
  mechanism Section 4.3 uses to overlap transfers with GPU computation
  ("separate GPU streams for computation and data transfer, synchronizing
  those streams").
- :class:`Device` meters transfers against a configurable bandwidth and can
  inject the baseline's round-trip latency per transferred tensor (the
  redundant sparse-tensor validity assertions SALIENT eliminates).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DeviceTensor", "Device", "DeviceBatch"]


@dataclass
class DeviceTensor:
    """An array resident on the simulated device."""

    data: np.ndarray
    device: "Device"

    @property
    def shape(self) -> tuple:
        return self.data.shape


@dataclass
class DeviceBatch:
    """A mini-batch resident on the device (the ``batch.to(GPU)`` result)."""

    xs: DeviceTensor
    ys: DeviceTensor
    mfg: object  # MFG adjacency; index arrays are device-side copies
    batch_index: int = -1


class Device:
    """Simulated GPU with transfer metering.

    Parameters
    ----------
    transfer_bandwidth:
        Modeled DMA bandwidth in bytes/second, or None for unmetered copies.
        The paper's machine peaks at 12.3 GB/s.
    roundtrip_latency:
        Extra blocking delay injected *per transferred tensor*, modeling the
        baseline's redundant CPU-GPU round trips (PyG sparse-tensor
        assertions). SALIENT sets this to 0 ("skip assertions"), lifting
        effective transfer efficiency from ~75% to ~99% (Section 4.3).
    """

    def __init__(
        self,
        transfer_bandwidth: Optional[float] = None,
        roundtrip_latency: float = 0.0,
    ) -> None:
        self.transfer_bandwidth = transfer_bandwidth
        self.roundtrip_latency = roundtrip_latency
        self.bytes_transferred = 0
        self.num_transfers = 0
        #: in-order transfer stream: one thread, so a submitted copy starts
        #: only after every earlier one has finished
        self.transfer_stream = ThreadPoolExecutor(
            1, thread_name_prefix="stream-transfer"
        )
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _meter(self, nbytes: int, num_tensors: int) -> None:
        delay = 0.0
        if self.transfer_bandwidth:
            delay += nbytes / self.transfer_bandwidth
        delay += self.roundtrip_latency * num_tensors
        if delay > 0:
            time.sleep(delay)
        with self._stats_lock:
            self.bytes_transferred += nbytes
            self.num_transfers += 1

    def transfer_batch(self, batch, batch_index: int = -1) -> DeviceBatch:
        """Move a :class:`SlicedBatch` to the device (blocking).

        The metered bytes are the features as stored (fp16, or uint8
        codes); on the device side they are copied out of their (pinned)
        staging buffer into float32 by the slicing store's ``decode``,
        matching the paper's compact-host / fp32-GPU scheme. The metered
        adjacency bytes are each layer's CSR (``SlicedBatch.nbytes``); the
        round-trip count models the Fig. 1(a) baseline's per-tensor
        assertions, not these bytes.
        """
        # The baseline's round trips: one per tensor of its wire format,
        # ``n_id`` and one ``edge_index`` per layer (not this batch's CSR).
        adj_tensors = 1 + len(batch.mfg.adjs)
        nbytes = batch.nbytes()
        self._meter(nbytes, 2 + adj_tensors)
        xs = DeviceTensor(batch.store.decode(batch.xs), self)
        ys = DeviceTensor(batch.ys.copy(), self)
        return DeviceBatch(xs=xs, ys=ys, mfg=batch.mfg, batch_index=batch_index)

    def synchronize(self) -> None:
        """Block until every transfer submitted so far has completed (the
        stream runs in order, so one no-op behind them is enough)."""
        self.transfer_stream.submit(lambda: None).result()

    def shutdown(self) -> None:
        self.transfer_stream.shutdown()
