"""Simulation-invariant property tests: random workloads x every policy.

Hypothesis drives small random traces through every registered cluster
policy — homogeneous and heterogeneous pools alike — and checks the
conservation laws any correct discrete-event serving simulator must obey:

* the clock never runs backwards (event timestamps non-decreasing);
* request conservation: every arrival is, at all times, on exactly one
  instance, in flight between instances, parked in the deferral waiting
  room, rejected, or completed
  (``submitted = completed + rejected + in-flight + deferred``);
* per-instance census never goes negative (queue depths, monitor counts,
  KV pool headroom), the monitor's incremental ``r_i`` and ``t_i``
  equal a full scan of the instance, and ``check_invariants()`` (KV
  counters, the run-queue against ``sorted(live, key=priority_key)``,
  pinned blocks) passes after every event;
* every admitted request terminates, and SLO accounting covers the whole
  trace (``scored + n_unscored == n_requests``).

The workloads are deliberately tiny (the value is the cross product of
policies x pool shapes x random traces, not trace length) and the
Hypothesis profile is derandomized so CI failures reproduce.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SchedulerConfig,
)
from repro.core.pascal import REASONING_BAND, band_of
from repro.core.registry import policy_names
from repro.metrics.slo import evaluate_slo
from repro.perfmodel.unit import UnitPerfModel
from repro.serving.monitor import answering_starving
from repro.sim.events import EventKind
from repro.workload.datasets import reasoning_heavy_mix
from repro.workload.request import Request
from repro.workload.trace import TraceConfig, build_trace

#: Heterogeneous variant: an express tier plus token-weighted load, so the
#: pool-aware policies actually exercise their tiered paths.
POOL_SHAPES = {
    "homogeneous": ExtensionPolicyConfig(),
    # Aggressive speculative knobs (tiny thresholds, short defers) so
    # ``speculative-replace`` actually defers and demotes on these small
    # workloads; every other policy ignores them.
    "heterogeneous": ExtensionPolicyConfig(
        least_load_weighted=True,
        pool=PoolSpec(express_instances=2, express_threshold_tokens=30),
        speculative_defer_s=0.05,
        speculative_min_observations=5,
        speculative_pressure_tokens=50,
        speculative_long_tokens=20,
    ),
}

#: One request: (prompt_len, reasoning_len, answer_len, inter-arrival gap).
#: Footprints stay far below the per-instance capacity so no workload can
#: exceed single-request capacity (which is a configured hard error).
request_tuples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


def build_cluster(policy: str, extensions: ExtensionPolicyConfig) -> Cluster:
    config = ClusterConfig(
        n_instances=3,
        instance=InstanceConfig(
            # Small enough that several concurrent requests contend for
            # residency (exercising preemption), large enough for any
            # single generated request.
            kv_capacity_tokens=256,
            # A threshold inside the generated reasoning lengths, so
            # PASCAL's conditional demotion re-keys requests mid-run.
            scheduler=SchedulerConfig(
                token_quantum=8, demotion_threshold_tokens=20
            ),
        ),
        extensions=extensions,
    )
    return Cluster(config, policy=policy, perf=UnitPerfModel(0.01))


def scan_reasoning_count(inst) -> int:
    """Reference ``r_i``: the full scan the incremental census replaced."""
    return sum(
        1
        for r in inst.requests
        if not r.finished and band_of(r) == REASONING_BAND
    )


def scan_answering_slo_ok(inst, now, slo) -> bool:
    """Reference ``t_i``: the full scan the incremental census replaced.

    It reads the members' own token records, so it catches the instance
    up first; the census answers without that."""
    inst.sync(now)
    return not any(
        answering_starving(r, now, slo)
        for r in inst.requests
        if not r.finished and r.in_answering
    )


def trace_from(tuples) -> list[Request]:
    requests = []
    t = 0.0
    for rid, (prompt, reasoning, answer, gap) in enumerate(tuples):
        t += gap
        requests.append(
            Request(
                rid=rid,
                prompt_len=prompt,
                reasoning_len=reasoning,
                answer_len=answer,
                arrival_t=t,
                dataset="short" if reasoning <= 20 else "long",
            )
        )
    return requests


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=6, deadline=None, derandomize=True)
@given(tuples=request_tuples)
def test_policy_preserves_simulation_invariants(policy, shape, tuples):
    cluster = build_cluster(policy, POOL_SHAPES[shape])
    requests = trace_from(tuples)

    # A deferral re-schedules the same request's ARRIVAL event, so
    # conservation is over *unique* submitted requests, not dispatches.
    submitted_rids: set[int] = set()
    inner_on_arrival = cluster._on_arrival

    def counting_arrival(now, req):
        submitted_rids.add(req.rid)
        inner_on_arrival(now, req)

    cluster.engine.register(EventKind.ARRIVAL, counting_arrival)
    cluster.submit(requests)

    last_now = cluster.engine.now
    while cluster.engine.step():
        now = cluster.engine.now
        assert now >= last_now, "clock ran backwards"
        last_now = now

        # Request conservation: between events, every submitted request
        # is on exactly one instance, crossing the fabric, parked in the
        # deferral waiting room, rejected, or done.
        on_instances = sum(len(inst.requests) for inst in cluster.instances)
        assert cluster.migrations.in_flight >= 0
        assert len(cluster.deferred()) >= 0
        assert (
            len(submitted_rids)
            == len(cluster.completed)
            + len(cluster.rejected)
            + len(cluster.cancelled)
            + cluster.migrations.in_flight
            + on_instances
            + len(cluster.deferred())
        ), f"request leak at t={now}"

        for inst in cluster.instances:
            monitor = cluster.monitor
            assert inst.pool.gpu_free_tokens() >= 0
            assert inst.pool.gpu_used_blocks >= 0
            assert inst.pool.total_kv_tokens() >= 0
            assert monitor.reasoning_count(inst) >= 0
            assert monitor.fresh_answering_count(inst) >= 0
            assert monitor.pending_decode_tokens(inst) >= 0
            assert len(inst.live_requests()) <= len(inst.requests)
            # The incremental census agrees with the full scan.
            assert monitor.reasoning_count(inst) == scan_reasoning_count(inst)
            assert monitor.answering_slo_ok(inst, now) == scan_answering_slo_ok(
                inst, now, cluster.config.slo
            )
            # Counters, the run-queue and the pinned-block count agree
            # with their re-derivations (the sort is the run-queue oracle).
            inst.check_invariants()

    # Termination: the queue drained, the waiting room emptied, nothing
    # was turned away (no gate here rejects), and every request finished.
    assert len(submitted_rids) == len(requests)
    assert cluster.deferred() == []
    assert cluster.rejected == []
    assert cluster.cancelled == []  # nothing here scripts a cancel
    assert cluster.all_finished()
    assert all(r.finished for r in requests)
    assert all(r.done_t is not None for r in requests)
    # Every open epoch's final step is emitted by its own event, so the
    # drain left none open and nothing is owed after it.
    assert all(inst._epoch is None for inst in cluster.instances)

    # SLO accounting covers the whole trace: scored + unscored == admitted,
    # and an unscored (never-answered) request always counts as violating.
    report = evaluate_slo(requests, cluster.config.slo)
    assert report.n_requests == len(requests)
    assert len(report.qoe_scores) + report.n_unscored == report.n_requests
    assert report.n_violations >= report.n_unscored

    # Monotone per-request timelines.
    for req in requests:
        assert req.arrival_t <= req.done_t
        if req.reasoning_end_t is not None and req.first_answer_t is not None:
            assert req.reasoning_end_t <= req.first_answer_t


def test_census_matches_scan_when_answering_requests_starve():
    """Overload makes ``t_i`` actually False, which the small random
    traces above rarely reach: the Figure-16 mix at 3 req/s on two
    20k-token instances, far beyond their capacity.  Every query the
    policy makes, and every instance after every event, must agree with
    the full scan."""
    config = ClusterConfig(
        n_instances=2, instance=InstanceConfig(kv_capacity_tokens=20_000)
    )
    cluster = Cluster(config, policy="pascal")
    monitor = cluster.monitor
    verdicts = []
    census_query = monitor.answering_slo_ok

    def checked_query(inst, now):
        ok = census_query(inst, now)
        assert ok == scan_answering_slo_ok(inst, now, config.slo)
        verdicts.append(ok)
        return ok

    monitor.answering_slo_ok = checked_query
    cluster.submit(
        build_trace(
            TraceConfig(
                reasoning_heavy_mix(),
                n_requests=120,
                arrival_rate_per_s=3.0,
                seed=1,
            )
        )
    )
    while cluster.engine.step():
        for inst in cluster.instances:
            inst.check_invariants()
    assert cluster.all_finished()
    # Both verdicts are common, so both census paths were exercised.
    assert 0.2 < verdicts.count(False) / len(verdicts) < 0.8
