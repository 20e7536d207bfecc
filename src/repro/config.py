"""Configuration objects for the PASCAL reproduction.

Every experiment knob lives here so that harness code and tests construct
scenarios from plain dataclasses instead of scattered constants.  The default
values model the paper's evaluation platform: DeepSeek-R1-Distill-Qwen-32B
served on NVIDIA H100 96 GB instances connected by a 100 Gbps fabric, with
CPU DRAM reachable over PCIe 5.0 (Section V-A of the paper).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ModelConfig:
    """Geometry of the served model, used by the performance model.

    Defaults describe DeepSeek-R1-Distill-Qwen-32B (Qwen2.5-32B geometry):
    64 transformer layers, 40 query heads, 8 KV heads (GQA), head dim 128.
    """

    name: str = "deepseek-r1-distill-qwen-32b"
    n_params: float = 32.8e9
    n_layers: int = 64
    hidden_size: int = 5120
    n_heads: int = 40
    n_kv_heads: int = 8
    head_dim: int = 128
    dtype_bytes: int = 2
    #: Token id emitted at the end of the reasoning phase (``</think>``).
    end_of_think_token: str = "</think>"

    @property
    def weight_bytes(self) -> float:
        """Bytes of model weights resident on each instance."""
        return self.n_params * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes required per cached token (keys + values)."""
        return 2 * self.n_layers * self.n_kv_heads * self.head_dim * self.dtype_bytes


@dataclass(frozen=True)
class GPUConfig:
    """One accelerator, roofline-style.  Defaults model an H100 SXM 96 GB."""

    name: str = "h100-96gb"
    hbm_bytes: float = 96e9
    hbm_bandwidth: float = 3.35e12
    peak_flops: float = 9.9e14
    #: Achievable fraction of peak FLOPs during prefill (compute bound).
    mfu_prefill: float = 0.55
    #: Achievable fraction of peak HBM bandwidth during decode (memory bound).
    bw_efficiency: float = 0.8
    #: Effective host<->device bandwidth for KV swap (PCIe 5.0 x16).
    pcie_bandwidth: float = 5.0e10
    #: Fraction of HBM reserved for non-KV use (activations, fragmentation).
    reserve_fraction: float = 0.08

    def kv_capacity_tokens(self, model: ModelConfig) -> int:
        """Tokens of KV cache that fit after weights and the reserve."""
        usable = self.hbm_bytes * (1.0 - self.reserve_fraction) - model.weight_bytes
        if usable <= 0:
            return 0
        return int(usable // model.kv_bytes_per_token)


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objectives (Section II-C / V-A).

    The answering phase is judged by QoE computed from TPOT starting at the
    first answering token; a request violates its SLO when QoE < 0.95.
    TTFAT (time from end of reasoning to the first answering token) has its
    own near-instantaneous target used in the characterization experiments.
    """

    tpot_target_s: float = 0.100
    ttfat_target_s: float = 0.25
    qoe_threshold: float = 0.95

    @property
    def expected_tokens_per_s(self) -> float:
        """User-expected digestion rate implied by the TPOT target."""
        return 1.0 / self.tpot_target_s


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs shared by the intra-instance schedulers (Section V-A)."""

    #: Round-robin token quantum for RR and for each PASCAL queue.
    token_quantum: int = 500
    #: Reasoning requests whose generated-token count exceeds this are
    #: demoted to the low-priority (answering) queue (Section IV-C).
    demotion_threshold_tokens: int = 5000
    #: Maximum requests decodable in one batch (vLLM ``max_num_seqs``).
    max_batch_size: int = 256
    #: Token budget for a prefill step (vLLM ``max_num_batched_tokens``).
    max_prefill_tokens: int = 8192


@dataclass(frozen=True)
class InstanceConfig:
    """One serving instance: a model replica bound to one GPU."""

    model: ModelConfig = field(default_factory=ModelConfig)
    gpu: GPUConfig = field(default_factory=GPUConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Override for the GPU KV capacity in tokens (None = derive from gpu).
    kv_capacity_tokens: int | None = None
    #: CPU-side KV pool for swapped-out requests (256 GB DDR5 by default).
    cpu_kv_bytes: float = 256e9
    #: Coalesce clean decode steps into multi-token epochs (one
    #: ``STEP_COMPLETE`` event per epoch, per-token timestamps computed
    #: analytically).  Equivalent to single-stepping — see
    #: ``repro.serving.instance`` — and on by default; ``False`` forces
    #: one event per token (the single-step reference path used by the
    #: capacity probe and the epoch-equivalence tests).
    epoch_coalescing: bool = True

    def gpu_kv_tokens(self) -> int:
        """GPU KV capacity in tokens, honouring the explicit override."""
        if self.kv_capacity_tokens is not None:
            return self.kv_capacity_tokens
        return self.gpu.kv_capacity_tokens(self.model)

    def cpu_kv_tokens(self) -> int:
        """CPU KV pool capacity in tokens."""
        return int(self.cpu_kv_bytes // self.model.kv_bytes_per_token)

    def with_kv_capacity(self, tokens: int) -> "InstanceConfig":
        """Copy of this config with an explicit GPU KV capacity (tokens)."""
        return dataclasses.replace(self, kv_capacity_tokens=tokens)


@dataclass(frozen=True)
class PoolSpec:
    """Heterogeneous instance-pool declaration (tiered serving).

    Policies that support per-instance scheduler composition read this spec
    from ``ClusterConfig.extensions.pool``: the lowest-``iid`` instances
    form an FCFS "express" tier reserved for requests predicted to reason
    briefly, the rest a "standard" tier running the policy's full
    scheduler.  Single-tier policies ignore it.
    """

    #: Instances reserved for the express tier (clamped so the standard
    #: tier keeps at least one instance; 0 disables tiering).
    express_instances: int = 2
    #: Route to the express tier when the predicted total reasoning length
    #: is at or below this many tokens.  The default sits between the chat
    #: dataset means (~560-970) and the problem-solving means (~750-2680),
    #: so mixed workloads actually split.
    express_threshold_tokens: int = 800

    def express_count(self, n_instances: int) -> int:
        """Express-tier size for a pool of ``n_instances``."""
        if n_instances <= 1:
            return 0
        return max(0, min(self.express_instances, n_instances - 1))


@dataclass(frozen=True)
class ExtensionPolicyConfig:
    """Knobs for the extension policies (beyond the paper's comparison set).

    ``slo-least-load``, ``length-predictive`` and ``tiered-express`` live in
    :mod:`repro.core.extensions`; their tunables are centralized here so
    harness code and tests construct scenarios from plain dataclasses.
    """

    #: Online reasoning-length predictor variant: ``"ewma"`` (flat
    #: per-dataset EWMA of observed lengths) or ``"bucketed-ewma"``
    #: (per-dataset geometric length buckets with EWMA-decayed weights,
    #: predicting the weighted-median bucket — tracks the lognormal
    #: body instead of being dragged by its tail, which is what the flat
    #: EWMA's absolute error pays for on GPQA-like datasets).
    predictor: str = "ewma"
    #: EWMA smoothing factor of the online reasoning-length predictor.
    predictor_alpha: float = 0.25
    #: Predictor prior for a dataset with no observations yet (tokens).
    predictor_prior_tokens: int = 600
    #: ``slo-least-load``: also migrate at phase boundaries (False pins
    #: every request to its arrival instance, like the baselines).
    least_load_migration: bool = True
    #: ``slo-least-load``: weight load by pending decode tokens (the
    #: monitor's token-denominated signal) instead of live request count.
    least_load_weighted: bool = False
    #: Heterogeneous pool layout consumed by tier-aware policies.
    pool: PoolSpec = field(default_factory=PoolSpec)
    #: ``speculative-replace``: re-arrival delay for speculatively
    #: deferred arrivals (seconds in the waiting room per deferral).
    speculative_defer_s: float = 0.4
    #: ``speculative-replace``: deferral budget per request; 0 disables
    #: speculative deferral entirely (no admission gate is installed).
    speculative_max_defers: int = 3
    #: ``speculative-replace``: a dataset with fewer observed reasoning
    #: lengths than this is *rank-uncertain* — its arrivals wait for the
    #: predictor to tighten (cold-start deferral).
    speculative_min_observations: int = 8
    #: ``speculative-replace``: the cluster counts as pressured when
    #: every instance's pending-decode-token backlog (the monitor
    #: signal) is at or above this.
    speculative_pressure_tokens: int = 4000
    #: ``speculative-replace``: predicted reasoning lengths at or above
    #: this are "long" — deferred under pressure, and demotion victims.
    speculative_long_tokens: int = 1200
    #: ``speculative-replace``: demote the predicted-longest in-flight
    #: reasoning request on a pressured placement target (False turns
    #: the preemption mechanism off).
    speculative_preempt: bool = True


@dataclass(frozen=True)
class FabricConfig:
    """Inter-instance interconnect used for KV-cache migration."""

    #: Per-NIC bandwidth; the paper's cluster uses a 100 Gbps fabric.
    link_bandwidth: float = 100e9 / 8
    #: Fixed per-transfer setup latency (connection + metadata).
    base_latency_s: float = 0.002

    def transfer_seconds(self, n_bytes: float) -> float:
        """Serialization delay for one KV transfer on an idle link."""
        return self.base_latency_s + n_bytes / self.link_bandwidth


@dataclass(frozen=True)
class ClusterConfig:
    """The full serving deployment (Section V-A: eight H100 instances)."""

    n_instances: int = 8
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    slo: SLOConfig = field(default_factory=SLOConfig)
    extensions: ExtensionPolicyConfig = field(
        default_factory=ExtensionPolicyConfig
    )

    def with_instance(self, instance: InstanceConfig) -> "ClusterConfig":
        """Copy of this config with a replacement per-instance config."""
        return dataclasses.replace(self, instance=instance)
