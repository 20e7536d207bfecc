"""Reproduction of PASCAL (HPCA 2026): phase-aware scheduling for serving
reasoning-based LLMs.

Public API quick tour::

    from repro import ClusterConfig, Cluster, build_trace, TraceConfig, collect
    from repro.workload.datasets import ALPACA_EVAL

    config = ClusterConfig()                      # 8 x H100-96GB, 100 Gbps
    trace = build_trace(TraceConfig(ALPACA_EVAL, n_requests=200,
                                    arrival_rate_per_s=3.0, seed=7))
    cluster = Cluster(config, policy="pascal")
    cluster.run_trace(trace)
    metrics = collect(cluster)
    print(metrics.mean_ttft(), metrics.slo_report(config.slo).violation_rate)

For *online* serving — live submission, lifecycle events, admission
control, backpressure — use the :mod:`repro.api` façade instead::

    from repro.api import ServingSession, SyntheticSource

    session = ServingSession(policy="pascal")
    session.attach(SyntheticSource(TraceConfig(ALPACA_EVAL, 200, 3.0, 7)))
    session.step(until=60.0)          # or drain() to completion
    print(session.n_completed, session.metrics().mean_ttft())

Subpackages:

* :mod:`repro.api`       — the stable public serving façade:
  ``ServingSession`` (submit/observe/step/drain + lifecycle subscriber
  hooks), pull-based ``ArrivalSource`` workload iterators, and
  ``AdmissionPolicy`` pre-placement gates
* :mod:`repro.core`      — PASCAL itself (hierarchical scheduler,
  Algorithms 1/2, adaptive migration) plus the cluster-policy strategy
  layer: :class:`ClusterPolicy`, the policy registry, and the extension
  policies (``slo-least-load``, ``length-predictive``)
* :mod:`repro.schedulers`— FCFS / RR baselines (the oracle runs FCFS)
* :mod:`repro.serving`   — continuous-batching instance engine
* :mod:`repro.cluster`   — multi-instance orchestration, fabric, migration
* :mod:`repro.workload`  — request model, dataset traces, arrival
  processes, JSONL trace record/replay
* :mod:`repro.perfmodel` — analytical + profile-table latency models
* :mod:`repro.memory`    — paged KV-cache pool with GPU/CPU residency
* :mod:`repro.metrics`   — QoE, SLO and tail-latency statistics
* :mod:`repro.harness`   — declarative per-figure experiment specs and a
  multiprocessing sweep runner (``python -m repro.harness all --jobs 8``)
"""

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    FabricConfig,
    GPUConfig,
    InstanceConfig,
    ModelConfig,
    PoolSpec,
    SchedulerConfig,
    SLOConfig,
)
from repro.core.policy import ClusterPolicy
from repro.core.registry import (
    create_policy,
    policy_names,
    register_policy,
)
from repro.metrics.collector import RunMetrics, collect
from repro.workload.request import Phase, ReqState, Request
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceConfig,
    TraceFormatError,
    build_replay_trace,
    build_trace,
    export_trace,
    iter_trace,
    load_trace,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterPolicy",
    "ExtensionPolicyConfig",
    "FabricConfig",
    "GPUConfig",
    "InstanceConfig",
    "ModelConfig",
    "Phase",
    "PoolSpec",
    "ReplayTraceConfig",
    "ReqState",
    "Request",
    "RunMetrics",
    "SchedulerConfig",
    "SLOConfig",
    "TraceConfig",
    "TraceFormatError",
    "build_replay_trace",
    "build_trace",
    "collect",
    "export_trace",
    "iter_trace",
    "load_trace",
    "create_policy",
    "policy_names",
    "register_policy",
]
