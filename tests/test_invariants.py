"""Simulation-invariant property tests: random workloads x every policy.

Hypothesis drives small random traces through every registered cluster
policy, on both pool shapes of :mod:`tests.equivalence`, and runs
:func:`tests.equivalence.every_check` after every event:

* request conservation, ``submitted = completed + rejected + cancelled
  + migrating + placed + pending arrivals``
  (:meth:`Cluster.check_invariants`), then every instance's
  ``check_invariants()``, which re-derives the KV counters, the
  run-queue (against ``sorted(live, key=priority_key)``), the pinned
  blocks and the incremental ``r_i`` and ``t_i`` from a full scan;
* every census read equals the same read after a catch-up, so the
  unsynced reads a policy makes agree with the scan too;
* every request's answer runs equal its token log.

The drive checks that the clock never runs backwards and that every
request terminates; the SLO accounting must cover the whole trace.

The workloads are deliberately tiny (the value is the cross product of
policies x pool shapes x random traces, not trace length) and the
Hypothesis profile is derandomized so CI failures reproduce.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cluster.cluster import Cluster
from repro.core.registry import policy_names
from repro.metrics.slo import evaluate_slo
from repro.workload.datasets import reasoning_heavy_mix
from repro.workload.trace import TraceConfig, build_trace
from tests.equivalence import (
    CONTENDED,
    POOL_SHAPES,
    build_cluster,
    build_requests,
    drive,
    every_check,
    request_specs,
)


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=6, deadline=None, derandomize=True)
@given(specs=request_specs())
def test_policy_preserves_simulation_invariants(policy, shape, specs):
    cluster = build_cluster(policy, shape, **CONTENDED)
    cluster.enable_token_log()
    requests = build_requests(specs)
    cluster.submit(requests)
    drive(cluster, every_check)

    # The waiting room emptied, nothing was turned away (no gate here
    # rejects) or cancelled, and every request finished.
    assert cluster.deferred() == []
    assert cluster.rejected == []
    assert cluster.cancelled == []
    assert all(r.finished and r.done_t is not None for r in requests)
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
    policy makes must equal the same query after a catch-up, and every
    instance after every event must agree with the full scan."""
    cluster = build_cluster("pascal", kv_capacity=20_000, quantum=500)
    monitor = cluster.monitor
    verdicts = []
    census_query = monitor.answering_slo_ok

    def checked_query(inst, now):
        ok = census_query(inst, now)
        inst.sync(now)
        assert census_query(inst, now) == ok
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
    drive(cluster, Cluster.check_invariants)
    # Both verdicts are common, so both census paths were exercised.
    assert 0.2 < verdicts.count(False) / len(verdicts) < 0.8
