"""Experiment runners: every simulation cell, one memo.

The paper's evaluation is a matrix of deterministic simulations, and each
one is a *cell*:

* :class:`EvalCell` — Section V (Figures 9-16): an eight-instance cluster
  running a dataset trace at a calibrated low/medium/high arrival rate;
* :class:`CharCell` — Section III (Figures 4-5): a single instance whose
  KV capacity is capped at 50 % of the oracle's *peak observed usage*;
* :class:`ReplayCell` — a recorded JSONL trace (see
  :mod:`repro.workload.trace`) replayed through any registered policy,
  optionally rate-rescaled;
* :class:`CapacityCell` — the saturated-throughput probe that anchors an
  evaluation's arrival-rate tiers.

A cell kind is three things: its canonical spec (:meth:`Cell.spec`, the
complete input of the simulation as a JSON-ready dict), its compute
(:meth:`Cell.compute`) and its payload codec (:meth:`Cell.encode` /
:meth:`Cell.decode`).  :func:`run_cell` does the rest, the same way for
every kind.  It hashes the spec, mixed with a simulator-code fingerprint,
into the cell's address (:func:`cell_key`), which is also the key the
on-disk store (:mod:`repro.harness.cache`, enabled by the CLI's
``--cache {ro,rw}`` or :func:`repro.harness.cache.configure`) files the
result under.  Lookup order is one in-process dict, then the disk store,
then compute.  Two cells with equal specs therefore share one result, in
memory and on disk, and cells differing in any knob (a settings field, a
dataset distribution parameter, the content of a replayed trace) never do.

Cells compose through the same path: an evaluation reads its rate tiers
from the memoized :class:`CapacityCell`, and a capped characterization
reads the oracle's peak from the memoized oracle :class:`CharCell`.

Every run rebuilds its workload from the same seed, so all policies see
byte-identical traces.  Evaluation and replay runs are thin clients of
the online :class:`repro.api.ServingSession` façade: workloads stream in
through pull-based :class:`~repro.api.sources.ArrivalSource` iterators,
event-for-event equivalent to a batch preload (the golden tables and
``tests/test_api_session.py`` pin it).  With ``shards > 1`` they run as a
partitioned deployment through :func:`repro.shard.run_sharded` instead.

:func:`sweep` fans a set of cells out over ``multiprocessing`` workers and
files the results in the memo, so a figure build that follows a parallel
sweep reads exactly the data a serial run would have produced.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import ServingSession, SyntheticSource, TraceFileSource
from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    ReplayCluster,
)
from repro.harness import cache as result_cache
from repro.harness import calibrate
from repro.metrics.collector import RunMetrics, collect
from repro.sim.rng import RandomStreams
from repro.workload import arrival, synthetic
from repro.workload.datasets import DatasetSpec, MixedDataset, sample_trace
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceConfig,
    TraceFormatError,
)


def default_scale() -> str:
    """Experiment scale: 'quick' for CI, 'paper' for full-size runs."""
    return os.environ.get("REPRO_SCALE", "quick")


def _resident_requests(
    dataset: DatasetSpec | MixedDataset, n_instances: int, kv_tokens: int
) -> float:
    """How many average requests ``n_instances`` GPU pools hold at once."""
    mean_kv = calibrate.mixture_mean_request_tokens(
        dataset
    ) - calibrate.mixture_mean_decode_tokens(dataset) / 2.0
    return n_instances * kv_tokens / mean_kv


@dataclass(frozen=True)
class EvalSettings:
    """Knobs of the Section V evaluation runs."""

    n_requests: int = 1200
    seed: int = 42
    n_instances: int = 8
    #: Per-instance KV capacity (tokens).  Mirrors the paper's setup: large
    #: relative to any single request (so one chain-of-thought cannot hog an
    #: instance) yet small enough that the high arrival tier saturates it.
    kv_capacity_tokens: int = 60000
    #: The trace must outnumber the cluster's resident-request capacity for
    #: memory pressure to build; traces are sized to this multiple of it.
    trace_residency_multiple: float = 4.5
    load_factors: tuple[tuple[str, float], ...] = (
        ("low", 0.5),
        ("medium", 0.8),
        ("high", 1.1),
    )
    #: Extension-policy knobs (weighted load, heterogeneous pool layout)
    #: threaded into the cluster config.  Part of the cell spec: changing
    #: any knob re-addresses every cell run under these settings.
    extensions: ExtensionPolicyConfig = field(
        default_factory=ExtensionPolicyConfig
    )
    #: On-off burst duty cycle of the arrival process (1.0 = plain
    #: Poisson, draw-for-draw; see
    #: :func:`repro.workload.arrival.iter_onoff_arrivals`).  Part of the
    #: cell spec — burstiness reshapes the offered load.
    arrival_burst_duty: float = 1.0
    #: On-off burst cycle length in seconds (ignored at duty 1.0).
    arrival_burst_cycle_s: float = 60.0
    #: Cluster partitions simulated via :mod:`repro.shard` (1 = the
    #: single-engine path).  Part of the cell spec: sharding partitions
    #: the deployment itself, so results are re-addressed.  Worker-process
    #: count is *not* here — it is an execution knob (like ``--jobs``)
    #: that provably cannot change a byte.
    shards: int = 1

    @classmethod
    def for_scale(cls, scale: str | None = None) -> "EvalSettings":
        scale = scale or default_scale()
        # Like $REPRO_SCALE, the CLI's --shards travels by environment so
        # it reaches every settings construction (including ones inside
        # sweep workers) and lands in the cell spec like any field.
        shards = int(os.environ.get("REPRO_SHARDS", "1"))
        if scale == "paper":
            return cls(trace_residency_multiple=6.0, shards=shards)
        return cls(shards=shards)

    def cluster_config(self) -> ClusterConfig:
        return ReplayCluster(
            self.n_instances, self.kv_capacity_tokens, self.extensions
        ).cluster_config()

    def resident_request_capacity(
        self, dataset: DatasetSpec | MixedDataset
    ) -> float:
        """How many average requests the cluster's GPU pools hold at once."""
        return _resident_requests(
            dataset, self.n_instances, self.kv_capacity_tokens
        )

    def n_requests_for(self, dataset: DatasetSpec | MixedDataset) -> int:
        """Trace length: enough requests to overrun residency at high rate."""
        return max(
            self.n_requests,
            int(
                self.trace_residency_multiple
                * self.resident_request_capacity(dataset)
            ),
        )

    def rates_for(self, dataset: DatasetSpec | MixedDataset) -> dict[str, float]:
        """Arrival rates per tier, anchored at *measured* cluster capacity.

        The tiers are scaled against the saturated throughput of an
        actual probe simulation, so workload-specific effects (prefill
        share, achievable batch depth, swap churn) are in the anchor —
        which is how one would calibrate against a real deployment too.
        """
        capacity_req_per_s = measured_capacity_req_per_s(dataset, self)
        return {
            tier: capacity_req_per_s * factor
            for tier, factor in self.load_factors
        }


@dataclass(frozen=True)
class CharacterizationSettings:
    """Knobs of the Section III single-instance characterization."""

    n_requests: int = 300
    seed: int = 7
    #: Near the constrained configuration's service capacity: one H100
    #: serving the 32B model sustains ~250 decode tokens/s at the capped
    #: memory operating point, and the mean request is ~1.2k tokens.
    #: The reasoning experiment runs slightly hotter so blocking dominates
    #: short requests (Figure 4); the answering experiment runs at capacity
    #: so RR's pacer buffer covers its preemption gaps (Figure 5).
    reasoning_rate_per_s: float = 0.30
    answering_rate_per_s: float = 0.22

    def rate_for(self, phase: str) -> float:
        if phase == "reasoning":
            return self.reasoning_rate_per_s
        if phase == "answering":
            return self.answering_rate_per_s
        raise ValueError(f"unknown characterization phase {phase!r}")

    @classmethod
    def for_scale(cls, scale: str | None = None) -> "CharacterizationSettings":
        scale = scale or default_scale()
        if scale == "paper":
            return cls(n_requests=300)
        return cls(n_requests=150)


@dataclass(frozen=True)
class ReplaySettings(ReplayCluster):
    """The replay cluster as a replay cell's settings (no synthesis knobs
    needed), plus its shard count."""

    #: Cluster partitions for the replay (see :class:`EvalSettings`).
    shards: int = 1


@dataclass
class CharacterizationRun:
    """One characterization result plus the capacity bookkeeping."""

    metrics: RunMetrics
    oracle_peak_tokens: int
    capacity_tokens: int


# ---------------------------------------------------------------------------
# canonical serialization (the cell-spec building blocks)
# ---------------------------------------------------------------------------
def dataset_spec(dataset: DatasetSpec | MixedDataset) -> dict:
    """The full length model of a dataset/mixture as a JSON-ready dict."""
    return dataclasses.asdict(dataset)


def settings_spec(settings: Any) -> dict:
    """Canonical serialization of one settings dataclass.

    The ``settings`` component of every cell spec: recursive
    ``dataclasses.asdict``, so **every** field — including nested config
    dataclasses like ``ExtensionPolicyConfig``/``PoolSpec`` — joins the
    cache key.  The PAS005 lint rule cross-checks declared fields against
    :func:`repro.harness.spec.canonical_field_manifest`, which is derived
    from this function; a field that stops reaching the output here is
    exactly the stale-cache-hit bug class (two runs differing only in
    that knob share a result).
    """
    return dataclasses.asdict(settings)


# ---------------------------------------------------------------------------
# cell kinds: spec + compute + payload codec
# ---------------------------------------------------------------------------
class Cell:
    """One deterministic simulation; subclasses are frozen dataclasses
    whose fields are its inputs.

    The default codec is the :class:`~repro.metrics.collector.RunMetrics`
    one; kinds with another result type override :meth:`encode` and
    :meth:`decode`.  ``decode`` raises (``KeyError``/``TypeError``/
    ``ValueError``/``AttributeError``) on a malformed payload.
    """

    encode = staticmethod(result_cache.metrics_to_payload)
    decode = staticmethod(result_cache.metrics_from_payload)

    def spec(self) -> dict:
        """The complete input of :meth:`compute` as a JSON-ready dict."""
        raise NotImplementedError

    def compute(self) -> Any:
        """Run the simulation (:func:`run_cell` memoizes the result)."""
        raise NotImplementedError

    def prerequisites(self) -> tuple["Cell", ...]:
        """Cells :meth:`compute` reads through :func:`run_cell`.

        Each is shared by many cells, so :func:`sweep` runs it once in the
        parent and hands its result to every worker.
        """
        return ()


@dataclass(frozen=True)
class EvalCell(Cell):
    """One Section V evaluation run: dataset x rate tier x policy."""

    dataset: DatasetSpec | MixedDataset
    tier: str
    policy: str
    settings: EvalSettings

    def spec(self) -> dict:
        return {
            "kind": "eval",
            "dataset": dataset_spec(self.dataset),
            "tier": self.tier,
            "policy": self.policy,
            "settings": settings_spec(self.settings),
        }

    def prerequisites(self) -> tuple[Cell, ...]:
        return (CapacityCell.of(self.dataset, self.settings),)

    def compute(self) -> RunMetrics:
        settings = self.settings
        rates = settings.rates_for(self.dataset)
        if self.tier not in rates:
            raise KeyError(
                f"unknown rate tier {self.tier!r}; expected {sorted(rates)}"
            )
        trace = TraceConfig(
            dataset=self.dataset,
            n_requests=settings.n_requests_for(self.dataset),
            arrival_rate_per_s=rates[self.tier],
            seed=settings.seed,
            burst_duty=settings.arrival_burst_duty,
            burst_cycle_s=settings.arrival_burst_cycle_s,
        )
        return _simulate(
            trace,
            SyntheticSource,
            self.policy,
            settings,
            f"{self.dataset.name}, {self.tier}, {self.policy}",
        )


@dataclass(frozen=True)
class ReplayCell(Cell):
    """One trace-replay run: recorded trace (x rate scale) x policy.

    The spec addresses the trace by its file *content*, not its path, so
    a file rewritten in place is a different cell.  The trace is re-read
    for every run: simulation mutates request state, so each policy must
    see freshly constructed requests — this is what makes replayed
    comparisons byte-identical across policies.
    """

    trace: ReplayTraceConfig
    policy: str
    settings: ReplaySettings

    def spec(self) -> dict:
        return {
            "kind": "replay",
            "trace": {
                "sha256": result_cache.file_sha256(self.trace.path),
                "rate_scale": self.trace.rate_scale,
            },
            "policy": self.policy,
            "settings": settings_spec(self.settings),
        }

    def compute(self) -> RunMetrics:
        metrics = _simulate(
            self.trace,
            TraceFileSource,
            self.policy,
            self.settings,
            f"{self.trace.name}, {self.policy}",
        )
        if not (metrics.requests or metrics.rejected or metrics.cancelled):
            raise TraceFormatError(
                self.trace.path, 1, "trace contains no requests"
            )
        return metrics


def _simulate(
    workload: TraceConfig | ReplayTraceConfig,
    source: Callable[[Any], Any],
    policy: str,
    settings: EvalSettings | ReplaySettings,
    label: str,
) -> RunMetrics:
    """One evaluation/replay run to completion on the settings' cluster.

    A :class:`ServingSession` fed by ``source(workload)``, which streams
    the workload in incrementally instead of materializing it.  With
    ``settings.shards > 1`` the cluster is a K-way partitioned deployment
    instead: :func:`repro.shard.run_sharded` splits instances and
    arrivals across per-shard engines (see docs/sharding.md).  Capacity
    probes stay anchored to the unsharded cluster, so rate tiers mean the
    same thing at any K.
    """
    config = settings.cluster_config()
    if settings.shards > 1:
        # Imported here so CLI start-up (e.g. `serve`) skips the shard
        # package's process plumbing.
        from repro.shard import run_sharded

        return run_sharded(
            workload, policy=policy, config=config, shards=settings.shards
        )
    session = ServingSession(policy=policy, config=config)
    session.attach(source(workload))
    session.step()
    if not session.cluster.all_finished():
        raise RuntimeError(
            f"run did not drain: {session.n_completed}/"
            f"{session.n_submitted} finished ({label})"
        )
    return session.metrics()


#: A capped characterization run's GPU KV capacity as a fraction of the
#: oracle's peak usage (the paper's 50 %).
CAPACITY_FRACTION = 0.5


def oracle_capacity_tokens(requests) -> int:
    """KV capacity guaranteeing the oracle never blocks or preempts.

    The sum of every request's *final* KV footprint upper-bounds any
    instantaneous demand, whatever the arrival pattern.
    """
    total = sum(r.prompt_len + r.total_decode_tokens for r in requests)
    # One spare block per request absorbs block-rounding slack.
    return total + 16 * len(list(requests)) + 16


def _characterization_workload(phase: str, settings: CharacterizationSettings):
    streams = RandomStreams(settings.seed)
    arrivals = arrival.poisson_arrivals(
        settings.rate_for(phase),
        settings.n_requests,
        streams.stream(f"char-arrivals:{phase}"),
    )
    rng = streams.stream(f"char-lengths:{phase}")
    if phase == "reasoning":
        return synthetic.reasoning_phase_workload(
            settings.n_requests, arrivals, rng
        )
    if phase == "answering":
        return synthetic.answering_phase_workload(
            settings.n_requests, arrivals, rng
        )
    raise ValueError(f"unknown characterization phase {phase!r}")


@dataclass(frozen=True)
class CharCell(Cell):
    """One Section III characterization run: phase x policy.

    The oracle runs with capacity covering the whole workload; every other
    policy runs with GPU KV capped at :data:`CAPACITY_FRACTION` of the peak KV
    footprint the oracle actually used (the paper's "50 % of the oracle
    capacity" configuration), read from the memoized oracle cell.
    """

    phase: str
    policy: str
    settings: CharacterizationSettings

    encode = staticmethod(result_cache.char_run_to_payload)
    decode = staticmethod(result_cache.char_run_from_payload)

    def spec(self) -> dict:
        return {
            "kind": "char",
            "phase": self.phase,
            "policy": self.policy,
            "settings": settings_spec(self.settings),
        }

    def prerequisites(self) -> tuple[Cell, ...]:
        if self.policy == "oracle":
            return ()
        return (CharCell(self.phase, "oracle", self.settings),)

    def compute(self) -> CharacterizationRun:
        requests = _characterization_workload(self.phase, self.settings)
        if self.policy == "oracle":
            # Always uncapped: the oracle's peak KV usage *defines* the
            # constrained capacity every other policy gets.
            capacity = oracle_capacity_tokens(requests)
        else:
            (oracle,) = self.prerequisites()
            peak = run_cell(oracle).oracle_peak_tokens
            capacity = max(1024, int(peak * CAPACITY_FRACTION))
        instance = InstanceConfig(kv_capacity_tokens=capacity)
        cluster = Cluster(
            ClusterConfig(n_instances=1, instance=instance), policy=self.policy
        )
        cluster.run_trace(requests)
        if self.policy == "oracle":
            peak = cluster.instances[0].pool.peak_gpu_tokens()
        return CharacterizationRun(
            metrics=collect(cluster),
            oracle_peak_tokens=peak,
            capacity_tokens=capacity,
        )


@dataclass(frozen=True)
class CapacityCell(Cell):
    """Saturated service rate (requests/s) of a cluster for a dataset.

    The prerequisite of every evaluation cell: it anchors the arrival-rate
    tiers.  Its inputs are the dataset model and the cluster shape only,
    not the trace-sizing knobs of :class:`EvalSettings` (so quick- and
    paper-scale runs share a probe) and not its extension knobs (the probe
    runs FCFS, which reads none of them).
    """

    dataset: DatasetSpec | MixedDataset
    n_instances: int
    kv_capacity_tokens: int
    probe_requests: int = 320

    @classmethod
    def of(
        cls,
        dataset: DatasetSpec | MixedDataset,
        settings: EvalSettings,
        probe_requests: int = 320,
    ) -> "CapacityCell":
        return cls(
            dataset,
            settings.n_instances,
            settings.kv_capacity_tokens,
            probe_requests,
        )

    def spec(self) -> dict:
        return {
            "kind": "capacity",
            "dataset": dataset_spec(self.dataset),
            "n_instances": self.n_instances,
            "kv_capacity_tokens": self.kv_capacity_tokens,
            "probe_requests": self.probe_requests,
        }

    @staticmethod
    def encode(rate: float) -> float:
        return rate

    @staticmethod
    def decode(payload: Any) -> float:
        if not isinstance(payload, float):
            raise TypeError(f"capacity payload must be a float: {payload!r}")
        return payload

    def compute(self) -> float:
        """A closed-loop probe under FCFS, run until the backlog drains.

        The sustainable token throughput is the slope of the cluster's
        cumulative-token curve over the middle of the run (the makespan
        itself is dominated by the longest request's sequential decode and
        would badly underestimate it); dividing by the mean decode length
        converts it to a request rate.
        """
        # Size the probe so the backlog over-fills GPU memory: sustained
        # throughput must be measured at full batch depth, not at whatever
        # depth an arbitrary fixed request count happens to reach.
        resident = _resident_requests(
            self.dataset, self.n_instances, self.kv_capacity_tokens
        )
        probe_requests = max(self.probe_requests, int(1.5 * resident))
        # Stage 1: all-at-once burst gives a floor (burst admission churn
        # biases it low).  Stage 2: Poisson at 1.4x the floor approaches
        # the true saturated rate from below without the pathological burst.
        estimate = self._probe_rate(probe_requests, None)
        for _ in range(2):
            estimate = max(
                estimate, self._probe_rate(probe_requests, 1.4 * estimate)
            )
        return estimate

    def _probe_rate(
        self, probe_requests: int, arrival_rate: float | None
    ) -> float:
        """Max sustained completion rate (req/s) observed in one probe run."""
        streams = RandomStreams(1234)
        if arrival_rate is None:
            arrivals = [0.0] * probe_requests
        else:
            arrivals = arrival.poisson_arrivals(
                arrival_rate, probe_requests, streams.stream("probe-arrivals")
            )
        probe = sample_trace(self.dataset, probe_requests, arrivals, streams)
        mean_decode = sum(r.total_decode_tokens for r in probe) / len(probe)
        # The slope is sampled every N *engine events* mid-run, so the
        # probe must step token-by-token: decode-epoch coalescing collapses
        # the event stream and would shift every sample point (and
        # undercount tokens still inside an in-flight epoch), changing the
        # measured capacity that anchors every figure's arrival-rate tiers.
        instance = InstanceConfig(
            kv_capacity_tokens=self.kv_capacity_tokens, epoch_coalescing=False
        )
        cluster = Cluster(
            ClusterConfig(n_instances=self.n_instances, instance=instance),
            policy="fcfs",
        )
        cluster.submit(probe)
        samples: list[tuple[float, int]] = []
        while cluster.engine.step():
            if cluster.engine.events_processed % 200 == 0:
                total = sum(inst.tokens_generated for inst in cluster.instances)
                samples.append((cluster.engine.now, total))
        if len(samples) < 8:
            raise RuntimeError("capacity probe too short to measure a slope")
        total_tokens = samples[-1][1]
        if total_tokens <= 0:
            raise RuntimeError("capacity probe saw no progress")
        # Average slope between the 25% and 90% token marks.  A window
        # average can never exceed the true sustainable rate (unlike a max
        # over short windows, which catches transient young-batch bursts),
        # and by the 25% mark the age mix has reached its steady state.
        lo = next(s for s in samples if s[1] >= 0.25 * total_tokens)
        hi = next(s for s in samples if s[1] >= 0.90 * total_tokens)
        if hi[0] <= lo[0]:
            raise RuntimeError("capacity probe produced a degenerate window")
        tokens_per_s = (hi[1] - lo[1]) / (hi[0] - lo[0])
        return tokens_per_s / mean_decode


# ---------------------------------------------------------------------------
# the result memo: in-process dict -> disk store -> compute
# ---------------------------------------------------------------------------
#: Every result this process computed or loaded, keyed by :func:`cell_key`
#: (the address the disk store files it under).
_results: dict[str, Any] = {}

#: Cells computed by this process (memo and disk hits do not count).  The
#: CLI reports it so a cache-reuse smoke test can assert "second run:
#: zero simulations".
_sim_runs = 0


def simulation_count() -> int:
    """Cells computed by this process (excludes worker processes)."""
    return _sim_runs


def reset_simulation_count() -> None:
    global _sim_runs
    _sim_runs = 0


def cell_spec(cell: Cell) -> dict:
    """Canonical JSON-ready description of one cell.

    The dict is the *complete* input of the cell's simulation: two cells
    with equal specs produce byte-identical results, and any difference —
    a settings knob, a dataset distribution parameter, the content of a
    replayed trace file — yields a different spec.
    """
    if not isinstance(cell, Cell):
        raise TypeError(f"not a sweep cell: {cell!r}")
    return cell.spec()


def cell_key(cell: Cell) -> str:
    """Content address of a cell under the current simulator code."""
    return result_cache.spec_key(cell_spec(cell))


def _address(cell: Cell) -> tuple[str, dict]:
    """``(key, spec)`` of one cell, snapshotted before it runs.

    A replay spec hashes the trace file's content, and the file may be
    rewritten while the simulation reads it: re-deriving the address
    after the run would file the old content's result under the new
    content's key, serving it to every future reader of the new file.
    """
    spec = cell_spec(cell)
    return result_cache.spec_key(spec), spec


def _lookup(cell: Cell, key: str, spec: dict) -> Any:
    """The memoized result, else a disk hit (then memoized), else None.

    A payload that fails to decode (tampered entry, partial schema) counts
    as ``invalid`` and reads as a miss, so the cell is recomputed — the
    store never crashes a run.
    """
    if key in _results:
        return _results[key]
    store = result_cache.active()
    if store is None:
        return None
    payload = store.load(key, spec["kind"])
    if payload is None:
        return None
    try:
        result = cell.decode(payload)
    except (KeyError, TypeError, ValueError, AttributeError):
        store.stats.invalid += 1
        return None
    _results[key] = result
    return result


def _persist(
    cell: Cell, key: str, spec: dict, result: Any, if_missing: bool = False
) -> None:
    """Write one computed result to disk (no-op when off or ``ro``)."""
    store = result_cache.active()
    if store is None or store.mode != "rw":
        return
    write = store.store_if_missing if if_missing else store.store
    write(key, spec["kind"], spec, cell.encode(result))


def run_cell(cell: Cell) -> Any:
    """One cell's result: memoized, else from disk, else computed."""
    global _sim_runs
    key, spec = _address(cell)
    result = _lookup(cell, key, spec)
    if result is None:
        _sim_runs += 1
        result = cell.compute()
        _results[key] = result
        _persist(cell, key, spec, result)
    return result


def run_characterization(
    phase: str,
    policy: str,
    settings: CharacterizationSettings | None = None,
) -> CharacterizationRun:
    """Single-instance run for Figure 4 (reasoning) / Figure 5 (answering)."""
    settings = settings or CharacterizationSettings.for_scale()
    return run_cell(CharCell(phase, policy, settings))


def measured_capacity_req_per_s(
    dataset: DatasetSpec | MixedDataset,
    settings: EvalSettings,
    probe_requests: int = 320,
) -> float:
    """Saturated service rate (requests/s) of the cluster for a dataset."""
    return run_cell(CapacityCell.of(dataset, settings, probe_requests))


def run_evaluation(
    dataset: DatasetSpec | MixedDataset,
    rate_tier: str,
    policy: str,
    settings: EvalSettings | None = None,
) -> RunMetrics:
    """One Section V cluster run."""
    settings = settings or EvalSettings.for_scale()
    return run_cell(EvalCell(dataset, rate_tier, policy, settings))


def run_replay(
    trace: ReplayTraceConfig,
    policy: str,
    settings: ReplaySettings | None = None,
) -> RunMetrics:
    """Replay one recorded trace through one policy."""
    return run_cell(ReplayCell(trace, policy, settings or ReplaySettings()))


def clear_caches() -> None:
    """Drop every memoized result (used by tests)."""
    _results.clear()


def snapshot_caches() -> dict[str, Any]:
    """Copy the in-process memo (tests save/restore around clears, so
    cache-isolation fixtures don't force later tests to resimulate)."""
    return dict(_results)


def restore_caches(snapshot: dict[str, Any]) -> None:
    """Reinstall a :func:`snapshot_caches` copy."""
    _results.clear()
    _results.update(snapshot)


# ---------------------------------------------------------------------------
# parallel sweep
# ---------------------------------------------------------------------------
def _seed_worker(
    seed: dict[str, Any], cache_mode: str, cache_dir: str | None
) -> None:
    """Hand a worker the parent's prerequisite results (spawn-safe; fork
    inherits them anyway) and its disk-store configuration, so workers
    persist their own results atomically."""
    _results.update(seed)
    result_cache.configure(cache_mode, cache_dir)


def sweep(cells, jobs: int | None = None) -> dict[Cell, Any]:
    """Run every cell, fanning out over ``jobs`` worker processes.

    Results land in the memo (so figure builds that follow hit them) and
    are returned keyed by cell.  ``jobs=None`` uses every CPU; ``jobs<=1``
    runs serially.  Cells are deterministic functions of their specs, so
    the parallel schedule cannot change any result.
    """
    unique: list[Cell] = list(dict.fromkeys(cells))
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1:
        return {cell: run_cell(cell) for cell in unique}
    # Addresses are snapshotted before dispatch (see _address).  Disk hits
    # resolve here too: they need no worker slot, so a fully cached sweep
    # skips process fan-out entirely.
    addresses = {cell: _address(cell) for cell in unique}
    pending = [
        cell for cell in unique if _lookup(cell, *addresses[cell]) is None
    ]
    if len(pending) <= 1:
        return {cell: run_cell(cell) for cell in unique}

    # Run the shared prerequisites (capacity probes, oracle
    # characterizations) once, here, instead of once per worker; they are
    # all a worker is seeded with.
    prerequisites = dict.fromkeys(
        dep for cell in pending for dep in cell.prerequisites()
    )
    seed = {cell_key(dep): run_cell(dep) for dep in prerequisites}
    pending = [cell for cell in pending if addresses[cell][0] not in _results]
    if pending:
        store = result_cache.active()
        ctx = multiprocessing.get_context()
        with ctx.Pool(
            processes=min(jobs, len(pending)),
            initializer=_seed_worker,
            initargs=(
                seed,
                store.mode if store is not None else "off",
                str(store.root) if store is not None else None,
            ),
        ) as pool:
            for cell, result in zip(pending, pool.map(run_cell, pending)):
                key, spec = addresses[cell]
                _results[key] = result
                # Workers persist their own results; this covers a worker
                # that died between computing and writing.
                _persist(cell, key, spec, result, if_missing=True)
    return {cell: run_cell(cell) for cell in unique}
