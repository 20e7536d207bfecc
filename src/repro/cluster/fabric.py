"""Cluster interconnect model (Section V-A: 100 Gbps fabric).

KV-cache migrations serialize over per-instance NICs.  A transfer occupies
both endpoints' links for its serialization delay; concurrent migrations
targeting the same instance queue FIFO behind each other, which is exactly
the contention effect Section V-C measures (P99 transfer latencies of
0.14 s / 0.25 s under high arrival rates).
"""

from __future__ import annotations

from repro.config import FabricConfig


class Fabric:
    """Per-NIC FIFO bandwidth model."""

    def __init__(self, config: FabricConfig, n_instances: int):
        if n_instances < 1:
            raise ValueError("need at least one instance")
        self.config = config
        #: Earliest time each instance's NIC is free again.
        self._nic_free_at = [0.0] * n_instances
        self.transfers = 0
        self.bytes_moved = 0.0

    def reserve_transfer(
        self, src: int, dst: int, n_bytes: float, now: float
    ) -> tuple[float, float]:
        """Book a transfer; returns (start_time, completion_time).

        The transfer begins once *both* NICs are free and occupies both
        until completion (store-and-forward over a switched fabric).
        """
        if src == dst:
            raise ValueError("no transfer needed within one instance")
        if n_bytes < 0:
            raise ValueError(f"bytes must be non-negative, got {n_bytes}")
        start = max(now, self._nic_free_at[src], self._nic_free_at[dst])
        duration = self.config.transfer_seconds(n_bytes)
        completion = start + duration
        self._nic_free_at[src] = completion
        self._nic_free_at[dst] = completion
        self.transfers += 1
        self.bytes_moved += n_bytes
        return start, completion
