"""Paged KV-cache pool with GPU/CPU residency.

Models vLLM's PagedAttention block allocator at the granularity the paper's
scheduling decisions need: each request's KV cache occupies
``ceil(tokens / block_size)`` fixed-size blocks, wholly resident either in
GPU HBM or (after preemption) in CPU DRAM.  The pool enforces both
capacities and exposes the free-space queries the schedulers and the
adaptive-migration policy rely on.
"""

from __future__ import annotations

from repro.workload.request import Request


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied."""


class KVPool:
    """Per-instance KV cache accounting (GPU pool + CPU swap pool)."""

    def __init__(
        self,
        gpu_capacity_tokens: int,
        cpu_capacity_tokens: int,
        block_size: int = 16,
    ):
        if gpu_capacity_tokens < 0 or cpu_capacity_tokens < 0:
            raise ValueError("capacities must be non-negative")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.gpu_capacity_blocks = gpu_capacity_tokens // block_size
        self.cpu_capacity_blocks = cpu_capacity_tokens // block_size
        self.gpu_used_blocks = 0
        self.cpu_used_blocks = 0
        #: High-water mark of GPU usage (defines "oracle capacity").
        self.peak_gpu_used_blocks = 0
        #: rid -> request for every request holding KV here.  Each
        #: request's own ``kv_tokens``/``on_gpu`` are its residency
        #: record; only this pool writes them while it holds the request.
        self._residency: dict[int, Request] = {}
        #: Running token totals per residency side.  The members' fields
        #: stay authoritative; these counters make ``gpu_used_tokens`` /
        #: ``cpu_used_tokens`` / ``total_kv_tokens`` O(1) for the
        #: placement and monitor queries that fire on every arrival and
        #: phase transition.  ``check_invariants`` re-derives them.
        self._gpu_tokens = 0
        self._cpu_tokens = 0

    def _note_gpu_usage(self) -> None:
        if self.gpu_used_blocks > self.peak_gpu_used_blocks:
            self.peak_gpu_used_blocks = self.gpu_used_blocks

    def peak_gpu_tokens(self) -> int:
        """Peak GPU KV usage observed so far, in tokens."""
        return self.peak_gpu_used_blocks * self.block_size

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to cache ``tokens`` tokens."""
        if tokens < 0:
            raise ValueError(f"tokens must be non-negative, got {tokens}")
        return -(-tokens // self.block_size)

    def gpu_free_blocks(self) -> int:
        return self.gpu_capacity_blocks - self.gpu_used_blocks

    def gpu_free_tokens(self) -> int:
        """Guaranteed-allocatable tokens on the GPU (conservative)."""
        return self.gpu_free_blocks() * self.block_size

    def gpu_used_tokens(self) -> int:
        return self._gpu_tokens

    def cpu_used_tokens(self) -> int:
        return self._cpu_tokens

    def total_kv_tokens(self) -> int:
        """GPU + CPU footprint: the ``m_i`` input of Algorithm 1."""
        return self._gpu_tokens + self._cpu_tokens

    def can_allocate_gpu(self, tokens: int) -> bool:
        return self.blocks_for(tokens) <= self.gpu_free_blocks()

    def holds(self, req: Request) -> bool:
        return req.rid in self._residency

    def on_gpu(self, req: Request) -> bool:
        return req.rid in self._residency and req.on_gpu

    # ------------------------------------------------------------------
    # allocation lifecycle
    # ------------------------------------------------------------------
    def allocate(self, req: Request, tokens: int, on_gpu: bool = True) -> None:
        """Register a request's KV cache (initial admission or migration)."""
        if req.rid in self._residency:
            raise OutOfMemoryError(f"request {req.rid} already allocated")
        blocks = self.blocks_for(tokens)
        if on_gpu:
            if blocks > self.gpu_free_blocks():
                raise OutOfMemoryError(
                    f"GPU pool full: need {blocks} blocks, "
                    f"have {self.gpu_free_blocks()}"
                )
            self.gpu_used_blocks += blocks
            self._note_gpu_usage()
            self._gpu_tokens += tokens
        else:
            if blocks > self.cpu_capacity_blocks - self.cpu_used_blocks:
                raise OutOfMemoryError("CPU pool full")
            self.cpu_used_blocks += blocks
            self._cpu_tokens += tokens
        self._residency[req.rid] = req
        req.kv_tokens = tokens
        req.on_gpu = on_gpu

    def grow(self, req: Request, n_tokens: int = 1) -> None:
        """Extend a GPU-resident cache by newly generated tokens."""
        if req.rid not in self._residency:
            raise OutOfMemoryError(f"request {req.rid} has no allocation")
        if not req.on_gpu:
            raise OutOfMemoryError(
                f"request {req.rid} cannot grow while swapped out"
            )
        tokens = req.kv_tokens
        new_tokens = tokens + n_tokens
        delta_blocks = self.blocks_for(new_tokens) - self.blocks_for(tokens)
        if delta_blocks > self.gpu_free_blocks():
            raise OutOfMemoryError("GPU pool full during growth")
        self.gpu_used_blocks += delta_blocks
        self._note_gpu_usage()
        self._gpu_tokens += n_tokens
        req.kv_tokens = new_tokens

    def grow_all(self, requests: list[Request], crossing_blocks: int) -> None:
        """Grow every request by one token in a single accounting pass.

        The decode fast path (``ServingInstance._open_epoch``) knows, from
        the plan's crossing histogram, exactly how many block boundaries
        this step crosses — so the per-request ``blocks_for`` arithmetic of
        :meth:`grow` collapses to one counter update plus one ``kv_tokens``
        increment per request.  Every request must be GPU-resident (a
        decode plan only ever batches resident requests).
        """
        if crossing_blocks:
            if crossing_blocks > self.gpu_free_blocks():
                raise OutOfMemoryError("GPU pool full during growth")
            self.gpu_used_blocks += crossing_blocks
            self._note_gpu_usage()
        self._gpu_tokens += len(requests)
        for req in requests:
            req.kv_tokens += 1

    def grow_all_n(
        self, requests: list[Request], n_steps: int, crossing_blocks: int
    ) -> None:
        """Grow every request by ``n_steps`` tokens in one accounting pass.

        The bulk form of :meth:`grow_all`, used when the decode fast path
        emits a run of milestone-free steps at once.  ``crossing_blocks``
        is the total over all ``n_steps`` steps (the caller walks the
        plan's crossing histogram); the horizon computation already
        reserved the budget, so exceeding free blocks indicates a caller
        bug, not backpressure.
        """
        if crossing_blocks:
            if crossing_blocks > self.gpu_free_blocks():
                raise OutOfMemoryError("GPU pool full during growth")
            self.gpu_used_blocks += crossing_blocks
            self._note_gpu_usage()
        self._gpu_tokens += n_steps * len(requests)
        for req in requests:
            req.kv_tokens += n_steps

    def swap_out(self, req: Request) -> int:
        """GPU -> CPU; returns tokens moved (for PCIe cost accounting)."""
        if req.rid not in self._residency:
            raise OutOfMemoryError(f"request {req.rid} has no allocation")
        if not req.on_gpu:
            raise OutOfMemoryError(f"request {req.rid} already swapped out")
        tokens = req.kv_tokens
        blocks = self.blocks_for(tokens)
        if blocks > self.cpu_capacity_blocks - self.cpu_used_blocks:
            raise OutOfMemoryError("CPU pool full; cannot swap out")
        self.gpu_used_blocks -= blocks
        self.cpu_used_blocks += blocks
        self._gpu_tokens -= tokens
        self._cpu_tokens += tokens
        req.on_gpu = False
        return tokens

    def swap_in(self, req: Request) -> int:
        """CPU -> GPU; returns tokens moved."""
        if req.rid not in self._residency:
            raise OutOfMemoryError(f"request {req.rid} has no allocation")
        if req.on_gpu:
            raise OutOfMemoryError(f"request {req.rid} already on GPU")
        tokens = req.kv_tokens
        blocks = self.blocks_for(tokens)
        if blocks > self.gpu_free_blocks():
            raise OutOfMemoryError("GPU pool full; cannot swap in")
        self.cpu_used_blocks -= blocks
        self.gpu_used_blocks += blocks
        self._note_gpu_usage()
        self._cpu_tokens -= tokens
        self._gpu_tokens += tokens
        req.on_gpu = True
        return tokens

    def release(self, req: Request) -> int:
        """Drop a request's cache entirely (completion or migration out)."""
        if self._residency.pop(req.rid, None) is None:
            raise OutOfMemoryError(f"request {req.rid} has no allocation")
        tokens = req.kv_tokens
        blocks = self.blocks_for(tokens)
        if req.on_gpu:
            self.gpu_used_blocks -= blocks
            self._gpu_tokens -= tokens
        else:
            self.cpu_used_blocks -= blocks
            self._cpu_tokens -= tokens
        req.kv_tokens = 0
        req.on_gpu = False
        return tokens

    # ------------------------------------------------------------------
    # invariants (exercised by property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Internal consistency: the running counters match the totals
        re-derived from the members' own ``kv_tokens``/``on_gpu``."""
        gpu_tokens = cpu_tokens = gpu_blocks = cpu_blocks = 0
        for req in self._residency.values():
            if req.on_gpu:
                gpu_tokens += req.kv_tokens
                gpu_blocks += self.blocks_for(req.kv_tokens)
            else:
                cpu_tokens += req.kv_tokens
                cpu_blocks += self.blocks_for(req.kv_tokens)
        if gpu_tokens != self._gpu_tokens:
            raise AssertionError(
                f"GPU token-counter drift: registry={gpu_tokens} "
                f"counter={self._gpu_tokens}"
            )
        if cpu_tokens != self._cpu_tokens:
            raise AssertionError(
                f"CPU token-counter drift: registry={cpu_tokens} "
                f"counter={self._cpu_tokens}"
            )
        if gpu_blocks != self.gpu_used_blocks:
            raise AssertionError(
                f"GPU block leak: registry={gpu_blocks} "
                f"counter={self.gpu_used_blocks}"
            )
        if cpu_blocks != self.cpu_used_blocks:
            raise AssertionError(
                f"CPU block leak: registry={cpu_blocks} "
                f"counter={self.cpu_used_blocks}"
            )
        if self.gpu_used_blocks > self.gpu_capacity_blocks:
            raise AssertionError("GPU pool over capacity")
        if self.cpu_used_blocks > self.cpu_capacity_blocks:
            raise AssertionError("CPU pool over capacity")
