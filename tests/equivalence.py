"""The equivalence harness: what the simulator's property tests share.

Every simulator fast path keeps the slow path it replaced as a reference,
and ``tests/test_equivalence.py::test_modes_agree`` runs random workloads
both ways, for every registered policy on both pool shapes, and compares
everything a run shows.  This module is the one home of what that test
and the property tests beside it share:

* :data:`POOL_SHAPES` and one small-cluster builder
  (:func:`cluster_config`, :func:`build_cluster`, :func:`build_session`);
* one workload strategy, :func:`request_specs` (optional scripted
  cancels; :func:`workloads` draws either kind), and
  :func:`build_requests`;
* one event loop, :func:`drive`, whose ``each_event`` callback is the
  per-event check: :meth:`Cluster.check_invariants` (conservation, then
  every instance's counters re-derived), :func:`census_reads_exact` and
  :func:`runs_equal_token_log`, or all three as :func:`every_check`;
* one :func:`fingerprint` of a drained run, and its parts
  :func:`payload` (for the process-level pairs: cache hit vs compute,
  sweeps, shards) and :func:`counters`;
* the reference paths as named :class:`Mode` s, paired with the fast
  path each one checks in :data:`PAIRS`.

To add a mode, give it a :class:`Mode` (a cluster setting, the feed, or
a context manager that patches its path in) and pair it with the mode it
checks in :data:`PAIRS`; ``test_modes_agree`` then runs the pair, and
:data:`EXAMPLES` sets its hypothesis budget.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from unittest import mock

from hypothesis import strategies as st

from repro.api import ServingSession, SessionSubscriber
from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SchedulerConfig,
    SLOConfig,
)
from repro.core import extensions, placement
from repro.core.extensions import LengthPredictivePolicy
from repro.harness.cache import metrics_to_payload
from repro.metrics.collector import RunMetrics, collect
from repro.perfmodel.unit import UnitPerfModel
from repro.schedulers.base import IntraScheduler
from repro.serving.instance import ServingInstance
from repro.workload.datasets import DatasetSpec, LengthSpec
from repro.workload.request import Request
from repro.workload.trace import TraceConfig, build_trace

# ---------------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------------
#: The pool shapes every policy runs over.  The heterogeneous one adds an
#: express tier and token-weighted load, so the pool-aware policies take
#: their tiered paths, and aggressive speculative knobs (tiny thresholds,
#: short defers), so ``speculative-replace`` defers and demotes on small
#: workloads; every other policy ignores them.
POOL_SHAPES = {
    "homogeneous": ExtensionPolicyConfig(),
    "heterogeneous": ExtensionPolicyConfig(
        least_load_weighted=True,
        pool=PoolSpec(express_instances=2, express_threshold_tokens=30),
        speculative_defer_s=0.05,
        speculative_min_observations=5,
        speculative_pressure_tokens=50,
        speculative_long_tokens=20,
    ),
}

#: SLO targets below a 10 ms decode step, so that answering requests fall
#: behind and ``t_i`` is often False.
TIGHT_SLO = SLOConfig(tpot_target_s=0.009, ttfat_target_s=0.02)

#: Unit-cost decode steps of 10 ms.
UNIT = UnitPerfModel(0.01)

#: Three 256-token instances: several requests contend for residency
#: (preemption, swaps), though any drawn request fits alone, and PASCAL's
#: demotion threshold lies inside the drawn reasoning lengths.
CONTENDED = dict(
    instances=3, kv_capacity=256, quantum=8, demotion_threshold=20, perf=UNIT
)


def cluster_config(
    shape: str = "homogeneous",
    *,
    instances: int = 2,
    kv_capacity: int = 2400,
    quantum: int = 16,
    batch_limit: int = 256,
    demotion_threshold: int = 5000,
    slo: SLOConfig = SLOConfig(),
    epoch_coalescing: bool = True,
) -> ClusterConfig:
    """A small cluster of ``instances`` equal instances."""
    return ClusterConfig(
        n_instances=instances,
        instance=InstanceConfig(
            kv_capacity_tokens=kv_capacity,
            scheduler=SchedulerConfig(
                token_quantum=quantum,
                max_batch_size=batch_limit,
                demotion_threshold_tokens=demotion_threshold,
            ),
            epoch_coalescing=epoch_coalescing,
        ),
        slo=slo,
        extensions=POOL_SHAPES[shape],
    )


def build_cluster(
    policy: str, shape: str = "homogeneous", *, perf=None, **knobs
) -> Cluster:
    """A :class:`Cluster` of :func:`cluster_config` (analytical latencies
    unless ``perf`` is given)."""
    return Cluster(cluster_config(shape, **knobs), policy=policy, perf=perf)


def build_session(
    policy: str,
    shape: str = "homogeneous",
    *,
    perf=None,
    admission=None,
    **knobs,
) -> ServingSession:
    """The same cluster behind a :class:`ServingSession`."""
    return ServingSession(
        policy=policy,
        config=cluster_config(shape, **knobs),
        perf=perf,
        admission=admission,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
@st.composite
def request_specs(draw, cancels: bool = False) -> list[tuple]:
    """One to 20 request specs ``(rid, prompt, reasoning, answer,
    arrival)``, arriving in rid order.  With ``cancels``, each spec has a
    sixth field: a scripted cancel delay after arrival, or None for a
    client that stays.  Small delays catch requests queued or in
    prefill, large ones mid-decode or already finished.

    Each workload draws its arrival density: gaps of up to 0.1, 0.2 or
    0.5 s, so crowded workloads swap and preempt on tight pools while
    sparse ones leave instances idle between arrivals.  A footprint is at
    most 180 tokens, so any request fits a 256-token instance alone.

    Specs, not requests: runs mutate requests, so each run builds its
    own (:func:`build_requests`).
    """
    n = draw(st.integers(min_value=1, max_value=20))
    gap = st.floats(
        min_value=0.0,
        max_value=draw(st.sampled_from((0.1, 0.2, 0.5))),
        allow_nan=False,
    )
    cancel = st.one_of(
        st.none(), st.floats(min_value=0.001, max_value=3.0, allow_nan=False)
    )
    specs = []
    arrival = 0.0
    for rid in range(n):
        arrival += draw(gap)
        spec = (
            rid,
            draw(st.integers(min_value=1, max_value=40)),
            draw(st.integers(min_value=0, max_value=80)),
            draw(st.integers(min_value=1, max_value=60)),
            arrival,
        )
        specs.append((*spec, draw(cancel)) if cancels else spec)
    return specs


def workloads():
    """:func:`request_specs`, with or without scripted cancels."""
    return st.one_of(request_specs(), request_specs(cancels=True))


def build_requests(specs) -> list[Request]:
    """Fresh requests from ``specs`` (see :func:`request_specs`); a
    request reasoning at most 20 tokens is of dataset ``short``, any
    other of ``long``."""
    requests = []
    for rid, prompt, reasoning, answer, arrival, *cancel in specs:
        req = Request(
            rid=rid,
            prompt_len=prompt,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=arrival,
            dataset="short" if reasoning <= 20 else "long",
        )
        if cancel and cancel[0] is not None:
            req.cancel_at = arrival + cancel[0]
        requests.append(req)
    return requests


def cluster_knobs():
    """The cluster settings the fast paths are compared over: batch
    limits that park requests, pools that swap and hit the capacity
    fallback, quanta that expire every few tokens and SLOs that starve."""
    return st.fixed_dictionaries(
        {
            "instances": st.sampled_from((2, 3)),
            "kv_capacity": st.one_of(
                st.integers(min_value=400, max_value=900), st.just(2400)
            ),
            "quantum": st.sampled_from((1, 2, 3, 16)),
            "batch_limit": st.sampled_from((3, 256)),
            "slo": st.sampled_from((SLOConfig(), TIGHT_SLO)),
            "epoch_coalescing": st.booleans(),
        }
    )


#: Short chat lengths, for a trace far faster than two small instances
#: serve it.
SHORT_CHAT = DatasetSpec(
    name="short-chat",
    prompt=LengthSpec(mean=60.0, sigma=0.5, lo=8, hi=256),
    reasoning=LengthSpec(mean=96.0, sigma=0.6, lo=8, hi=512),
    answering=LengthSpec(mean=48.0, sigma=0.5, lo=8, hi=256),
)


def gate_session(policy: str) -> ServingSession:
    """120 :data:`SHORT_CHAT` requests at 80 req/s on two 6000-token
    instances with a 32-token quantum, drained: the session the counter
    gates pin."""
    session = build_session(policy, kv_capacity=6000, quantum=32)
    session.attach(
        build_trace(
            TraceConfig(
                dataset=SHORT_CHAT,
                n_requests=120,
                arrival_rate_per_s=80.0,
                seed=5,
            )
        )
    )
    session.drain()
    return session


# ---------------------------------------------------------------------------
# driving and per-event checks
# ---------------------------------------------------------------------------
def drive(
    cluster: Cluster, each_event: Callable[[Cluster], object] | None = None
) -> bool:
    """Dispatch ``cluster``'s events one at a time until the engine
    drains, calling ``each_event(cluster)`` after every event; a truthy
    result stops the drive there.  Returns whether it stopped early.

    The clock never runs backwards, and a drained engine has resolved
    every submitted request.
    """
    engine = cluster.engine
    last = engine.now
    while engine.step():
        assert engine.now >= last, f"clock ran backwards to t={engine.now}"
        last = engine.now
        if each_event is not None and each_event(cluster):
            return True
    assert cluster.all_finished()
    return False


#: Every census read a policy or admission gate makes, as
#: ``read(monitor, inst, now)``.
CENSUS_READS = (
    lambda monitor, inst, now: inst.total_kv_tokens(),
    lambda monitor, inst, now: inst.gpu_free_tokens(),
    lambda monitor, inst, now: monitor.answering_slo_ok(inst, now),
    lambda monitor, inst, now: monitor.kv_footprint(inst),
    lambda monitor, inst, now: monitor.pending_decode_tokens(inst),
    lambda monitor, inst, now: monitor.reasoning_count(inst),
    lambda monitor, inst, now: monitor.fresh_answering_count(inst),
)


def _census(cluster: Cluster, inst: ServingInstance, now: float) -> list:
    reads = [read(cluster.monitor, inst, now) for read in CENSUS_READS]
    if isinstance(cluster.policy, LengthPredictivePolicy):
        reads.append(cluster.policy.predicted_footprint(inst))
    return reads


def _token_records(inst: ServingInstance) -> tuple:
    """What a catch-up writes: the members' token and KV records, the
    pool's block count and the epoch's emitted index."""
    epoch = inst._epoch
    members = list(inst.requests)
    if epoch is not None:
        members += epoch.plan.requests
    return (
        [
            (r.rid, r.generated_tokens, r.kv_tokens, r.quantum_used,
             len(r.answer_token_times))
            for r in members
        ],
        inst.pool.gpu_used_blocks,
        None if epoch is None else epoch.emitted,
    )


def census_reads_exact(cluster: Cluster) -> None:
    """On every instance, each census read writes nothing and equals the
    same read after ``sync``: the reads add the open epoch's owed steps
    instead of catching the instance up."""
    now = cluster.engine.now
    for inst in cluster.instances:
        before = _token_records(inst)
        unsynced = _census(cluster, inst, now)
        assert _token_records(inst) == before
        inst.sync(now)
        assert inst.owed_steps(now) == 0
        assert _census(cluster, inst, now) == unsynced


def runs_equal_token_log(cluster: Cluster) -> None:
    """Every request's answer times, built from its runs, equal its token
    log past the reasoning tokens; unsynced members lag in both alike.
    Needs :meth:`Cluster.enable_token_log`."""
    log = cluster.token_log
    for req in cluster.submitted:
        assert req.answer_token_times == log.get(req.rid, [])[
            req.reasoning_len:
        ], f"request {req.rid}"


def every_check(cluster: Cluster) -> None:
    """:func:`runs_equal_token_log` before anything syncs, then
    :func:`census_reads_exact` and :meth:`Cluster.check_invariants`."""
    runs_equal_token_log(cluster)
    census_reads_exact(cluster)
    cluster.check_invariants()


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
class HookRecorder(SessionSubscriber):
    """The lifecycle stream, verbatim, in dispatch order."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_admit(self, handle, now, instance_id):
        self.events.append(("admit", handle.rid, now, instance_id))

    def on_reject(self, handle, now, reason):
        self.events.append(("reject", handle.rid, now, reason))

    def on_defer(self, handle, now, delay_s):
        self.events.append(("defer", handle.rid, now, delay_s))

    def on_phase_change(self, handle, now):
        self.events.append(("phase", handle.rid, now))

    def on_first_token(self, handle, now):
        self.events.append(("first-token", handle.rid, now))

    def on_complete(self, handle, now):
        self.events.append(("complete", handle.rid, now))

    def on_cancel(self, handle, now):
        self.events.append(("cancel", handle.rid, now))


def payload(metrics: RunMetrics) -> str:
    """A run's canonical metrics payload: every request record (each
    timestamp, count, state and breakdown cell, the answer times), the
    rejected and cancelled ones, and the run-level columns."""
    return json.dumps(metrics_to_payload(metrics), sort_keys=True)


def counters(cluster: Cluster) -> list[tuple]:
    """Each instance's work counters."""
    return [
        (inst.tokens_generated, inst.decode_steps, inst.prefill_steps,
         inst.reforms, inst.swap_out_tokens, inst.swap_in_tokens,
         inst.pool.peak_gpu_used_blocks)
        for inst in cluster.instances
    ]


def fingerprint(session: ServingSession, hooks: HookRecorder) -> tuple:
    """Everything a drained run shows: its :func:`payload`, each
    instance's :func:`counters`, the lifecycle stream and the token
    log."""
    cluster = session.cluster
    return (
        payload(collect(cluster)),
        counters(cluster),
        hooks.events,
        cluster.token_log,
    )


# ---------------------------------------------------------------------------
# reference paths
# ---------------------------------------------------------------------------
def per_token_emit_step(self, j):
    """Reference ``ServingInstance._emit_step``: every member of step
    ``j`` takes the per-token path through ``_emit_token``."""
    epoch = self._epoch
    now = epoch.times[j]
    self.decode_steps += 1
    self._emitting = True
    try:
        for req in epoch.plan.requests:
            self._emit_token(req, now)
    finally:
        self._emitting = False
    epoch.emitted = j + 1


def per_token_emission():
    return mock.patch.object(
        ServingInstance, "_emit_step", per_token_emit_step
    )


def _never(self, *args):
    return None


@contextlib.contextmanager
def forced_walk():
    """Every reform walks: no steady plan, no admission plan."""
    with mock.patch.object(
        IntraScheduler, "steady_plan", _never
    ), mock.patch.object(IntraScheduler, "admission_plan", _never):
        yield


_STEADY_PLAN = IntraScheduler.steady_plan
_WALK = IntraScheduler.walk


def checked_steady_plan(self, inst):
    """``steady_plan``, checked against the walk from the same state.

    In steady state the walk moves nothing, so running it here leaves
    the instance as it found it whenever the two plans agree."""
    plan = _STEADY_PLAN(self, inst)
    if plan is not None:
        walked = _WALK(self, inst, inst.engine.now)
        assert walked.kind is plan.kind
        assert walked.requests == plan.requests
        assert inst.steady
    return plan


def eager_least_loaded_clean(monitor, instances, key, now):
    """The SLO filter the load-ordered one replaced: ``t_i`` on every
    instance, then the least ``key`` among the clean ones."""
    clean = [
        inst for inst in instances if monitor.answering_slo_ok(inst, now)
    ]
    return min(clean, key=key) if clean else None


@contextlib.contextmanager
def filter_replaced_by(fn):
    """Every SLO filter calls ``fn`` in place of
    :func:`repro.core.placement.least_loaded_clean`."""
    with mock.patch.object(
        placement, "least_loaded_clean", fn
    ), mock.patch.object(extensions, "least_loaded_clean", fn):
        yield


@contextlib.contextmanager
def walk_with_the_eager_filter():
    with forced_walk(), filter_replaced_by(eager_least_loaded_clean):
        yield


@contextlib.contextmanager
def counting_reforms():
    """Count the reforms that take ``IntraScheduler.steady_plan``, those
    that take ``IntraScheduler.admission_plan`` and those that walk, in a
    dict the block fills."""
    counts = {"steady": 0, "admission": 0, "walked": 0}
    admission_plan = IntraScheduler.admission_plan

    def counting_steady(scheduler, inst):
        plan = _STEADY_PLAN(scheduler, inst)
        counts["steady"] += plan is not None
        return plan

    def counting_admission(scheduler, inst, now):
        plan = admission_plan(scheduler, inst, now)
        counts["admission"] += plan is not None
        return plan

    def counting_walk(scheduler, inst, now):
        counts["walked"] += 1
        return _WALK(scheduler, inst, now)

    with mock.patch.object(
        IntraScheduler, "steady_plan", counting_steady
    ), mock.patch.object(
        IntraScheduler, "admission_plan", counting_admission
    ), mock.patch.object(IntraScheduler, "walk", counting_walk):
        yield counts


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Mode:
    """One way to run a workload: a cluster setting, a feed and the code
    paths patched in while it runs."""

    name: str
    #: Overrides the drawn ``epoch_coalescing`` when set.
    epoch_coalescing: bool | None = None
    #: Feed through ``ServingSession.attach`` instead of the batch
    #: preload (``Cluster.submit``).
    attach: bool = False
    paths: Callable[[], contextlib.AbstractContextManager] = (
        contextlib.nullcontext
    )


#: (fast mode, the reference it must equal) per fast path.
PAIRS = {
    "epoch": (
        Mode("epochs", epoch_coalescing=True),
        Mode("single-step", epoch_coalescing=False),
    ),
    "session": (Mode("session feed", attach=True), Mode("batch preload")),
    "reforms": (
        Mode(
            "steady and admission reforms, load-ordered t_i",
            paths=lambda: mock.patch.object(
                IntraScheduler, "steady_plan", checked_steady_plan
            ),
        ),
        Mode("forced walk, eager t_i", paths=walk_with_the_eager_filter),
    ),
    "emission": (
        Mode("milestone emission"),
        Mode("per-token emission", paths=per_token_emission),
    ),
}

#: Hypothesis examples per pair in ``test_modes_agree``.  The forced walk
#: differs from the fast reforms mostly on contended pools, and about
#: half the draws (2400-token pools) never swap, hence the reforms pair's
#: larger budget.
EXAMPLES = {"epoch": 40, "session": 30, "reforms": 300, "emission": 150}


def run(policy, shape, specs, mode, each_event=None, *, perf=None, **knobs):
    """Drain ``specs`` in ``mode`` with the token log on, calling
    ``each_event`` after every event; returns the run's
    :func:`fingerprint`."""
    if mode.epoch_coalescing is not None:
        knobs["epoch_coalescing"] = mode.epoch_coalescing
    session = build_session(policy, shape, perf=perf, **knobs)
    hooks = session.subscribe(HookRecorder())
    cluster = session.cluster
    cluster.enable_token_log()
    requests = build_requests(specs)
    with mode.paths():
        if mode.attach:
            session.attach(requests)
        else:
            cluster.submit(requests)
        drive(cluster, each_event)
    return fingerprint(session, hooks)


def assert_agree(pair, policy, shape, specs, **knobs):
    """The fast mode of ``pair``, checked after every event, shows what
    its reference shows."""
    fast, reference = PAIRS[pair]
    checked = run(policy, shape, specs, fast, every_check, **knobs)
    assert checked == run(policy, shape, specs, reference, **knobs), (
        f"{fast.name} and {reference.name} differ"
    )
