"""Analytical roofline performance model.

The paper uses a *profile-based* single-instance simulator: per-step GPU
latencies come from vLLM profiling data on a real H100 (Section V-A).  We
cannot profile hardware here, so this module provides the closed-form
roofline equivalent for the same model/GPU geometry:

* **decode step** — memory-bandwidth bound: the GPU streams all weights once
  per step plus the KV cache of every sequence in the batch, with a small
  per-sequence kernel overhead;
* **prefill step** — compute bound: ~2 FLOPs per parameter per prompt token
  at a prefill MFU, plus a fixed launch overhead;
* **swap** — whole-request KV movement over PCIe (preemption / resumption);
* **migration serialization** — KV bytes over the cluster fabric link.

`repro.perfmodel.profile.ProfileTable` samples this model onto a grid and
interpolates, mirroring the paper's methodology; the validation experiment
(Section V-A's MAPE table) compares the two.
"""

from __future__ import annotations

from itertools import accumulate

from repro.config import GPUConfig, ModelConfig


class PerfModel:
    """Base interface: latency of engine steps and data movement."""

    def decode_step_seconds(self, batch_size: int, kv_tokens: int) -> float:
        raise NotImplementedError

    def decode_epoch(
        self,
        batch_size: int,
        kv_first: int,
        steps: int,
        start: float,
        overhead: float,
    ) -> list[float]:
        """Completion times of ``steps`` decode steps.

        Step ``j`` (from 0) decodes ``batch_size`` tokens over
        ``kv_first + j * batch_size`` cached tokens; ``overhead`` (swap
        time owed by the reform) lands on the first step only, and the
        first step starts at ``start``.  Latencies are accumulated into
        times one step at a time, in step order: the float arithmetic of
        one ``decode_step_seconds`` call per step, which an override must
        reproduce bit for bit.
        """
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        times: list[float] = []
        t = start
        kv = kv_first
        for j in range(steps):
            latency = self.decode_step_seconds(batch_size, kv)
            if j == 0:
                latency += overhead
            t += latency
            times.append(t)
            kv += batch_size
        return times

    def prefill_seconds(self, prompt_tokens: int) -> float:
        raise NotImplementedError

    def swap_seconds(self, kv_tokens: int) -> float:
        raise NotImplementedError


class AnalyticalPerfModel(PerfModel):
    """Roofline model parameterized by model and GPU geometry."""

    #: Fixed per-step scheduling/launch overhead (seconds).
    step_overhead_s = 0.002
    #: Per-sequence attention-kernel overhead during decode (seconds).
    per_seq_overhead_s = 2.0e-4
    #: Small batches under-utilize the memory system: the effective
    #: bandwidth penalty decays as ~1/batch (kernel-efficiency curve).
    small_batch_penalty = 0.15

    def __init__(self, model: ModelConfig, gpu: GPUConfig):
        self.model = model
        self.gpu = gpu
        effective_bw = gpu.hbm_bandwidth * gpu.bw_efficiency
        self._weights_read_s = model.weight_bytes / effective_bw
        self._kv_read_s_per_token = model.kv_bytes_per_token / effective_bw
        self._prefill_s_per_token = (
            2.0 * model.n_params / (gpu.peak_flops * gpu.mfu_prefill)
        )
        # Quadratic self-attention FLOPs dominate very long prompts:
        # ~4 * layers * hidden * P^2 per forward pass.
        self._prefill_s_per_token_sq = (
            4.0
            * model.n_layers
            * model.hidden_size
            / (gpu.peak_flops * gpu.mfu_prefill)
        )
        self._swap_s_per_token = model.kv_bytes_per_token / gpu.pcie_bandwidth

    def decode_step_seconds(self, batch_size: int, kv_tokens: int) -> float:
        """One token for every sequence in the batch.

        ``kv_tokens`` is the total cached context across the batch: decode
        attention must stream all of it from HBM, which is what makes large
        aggregate KV footprints slow down every co-batched request.  The
        ``small_batch_penalty`` term models the measured kernel-efficiency
        curve (tiny batches do not saturate HBM), which is what makes this
        model non-trivial for the profile table to interpolate.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if kv_tokens < 0:
            raise ValueError(f"kv_tokens must be non-negative, got {kv_tokens}")
        efficiency = 1.0 + self.small_batch_penalty / batch_size
        return (
            self.step_overhead_s
            + self._weights_read_s * efficiency
            + batch_size * self.per_seq_overhead_s
            + kv_tokens * self._kv_read_s_per_token
        )

    def decode_epoch(
        self,
        batch_size: int,
        kv_first: int,
        steps: int,
        start: float,
        overhead: float,
    ) -> list[float]:
        """Closed form of the base per-step loop: a step's latency is
        ``fixed + kv * rate``, where ``fixed`` sums the first three terms
        of :meth:`decode_step_seconds` in its order, so every latency and
        every accumulated time is the same float the loop computes."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if kv_first < 0:
            raise ValueError(f"kv_tokens must be non-negative, got {kv_first}")
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        efficiency = 1.0 + self.small_batch_penalty / batch_size
        fixed = (
            self.step_overhead_s
            + self._weights_read_s * efficiency
            + batch_size * self.per_seq_overhead_s
        )
        rate = self._kv_read_s_per_token
        latencies = [
            fixed + kv * rate
            for kv in range(
                kv_first, kv_first + steps * batch_size, batch_size
            )
        ]
        latencies[0] += overhead
        times = list(accumulate(latencies, initial=start))
        del times[0]
        return times

    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Process ``prompt_tokens`` prompt tokens in one forward pass."""
        if prompt_tokens < 0:
            raise ValueError(
                f"prompt_tokens must be non-negative, got {prompt_tokens}"
            )
        if prompt_tokens == 0:
            return 0.0
        return (
            self.step_overhead_s
            + prompt_tokens * self._prefill_s_per_token
            + prompt_tokens * prompt_tokens * self._prefill_s_per_token_sq
        )

    def swap_seconds(self, kv_tokens: int) -> float:
        """Move one request's KV cache across PCIe (either direction)."""
        if kv_tokens < 0:
            raise ValueError(f"kv_tokens must be non-negative, got {kv_tokens}")
        return kv_tokens * self._swap_s_per_token
