"""``speculative-replace``: deferral, replacement, livelock backstop.

Covers the speculative extension policy end to end:

* the **livelock backstop** — an admission gate that re-defers a request
  forever on a cluster that is provably making no progress used to spin
  the event loop indefinitely; the cluster now converts such hopeless
  deferrals into rejections with a distinct reason, while ordinary
  backpressure (progress between retries, however slow) is never
  converted;
* the **speculative admission gate** — installed at bind time, outranked
  by an explicit session-level gate, disabled at ``speculative_max_defers
  = 0``, and bounded per request by the deferral budget;
* **replacement** — a pressured placement target demotes its
  predicted-longest in-flight reasoning request via PASCAL's own
  demotion mechanics;
* **byte-identity** — with deferral and preemption disabled the policy
  is behaviourally identical to ``length-predictive``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    AdmissionPolicy,
    AdmitAll,
    ListSource,
    MaxInFlightAdmission,
    ServingSession,
    SessionSubscriber,
    SyntheticSource,
    defer,
)
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    SchedulerConfig,
)
from repro.cluster.cluster import MAX_STALLED_DEFERRALS
from repro.core.extensions import SpeculativeAdmission
from repro.harness.cache import metrics_to_payload
from repro.perfmodel.unit import UnitPerfModel
from repro.workload.datasets import ALPACA_EVAL
from repro.workload.request import Request
from repro.workload.trace import TraceConfig


def small_config(
    n_instances: int = 2, extensions: ExtensionPolicyConfig | None = None
) -> ClusterConfig:
    return ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=2400,
            scheduler=SchedulerConfig(token_quantum=16),
        ),
        extensions=extensions or ExtensionPolicyConfig(),
    )


def make_requests(specs) -> list[Request]:
    """``specs`` = [(arrival_t, prompt, reasoning, answer), ...]."""
    return [
        Request(
            rid=rid,
            prompt_len=p,
            reasoning_len=r,
            answer_len=a,
            arrival_t=t,
            dataset="d",
        )
        for rid, (t, p, r, a) in enumerate(specs)
    ]


class Recorder(SessionSubscriber):
    def __init__(self):
        self.events: list[tuple] = []

    def on_admit(self, handle, now, instance_id):
        self.events.append(("admit", handle.rid, instance_id))

    def on_reject(self, handle, now, reason):
        self.events.append(("reject", handle.rid, reason))

    def on_defer(self, handle, now, delay_s):
        self.events.append(("defer", handle.rid, delay_s))

    def on_complete(self, handle, now):
        self.events.append(("complete", handle.rid))

    def kinds(self):
        return [e[0] for e in self.events]


# ---------------------------------------------------------------------------
# satellite: the deferral livelock backstop
# ---------------------------------------------------------------------------
class DeferForever(AdmissionPolicy):
    """The pathological gate: capacity "never frees" from its viewpoint."""

    def decide(self, cluster, req, now):
        return defer(0.05, "capacity never frees")


class TestDeferralLivelockBackstop:
    def test_hopeless_deferral_converts_to_rejection(self):
        # Regression: before the backstop, this gate re-deferred the same
        # request forever on an otherwise idle cluster — drain() spun the
        # event loop without end.  max_events bounds the test either way;
        # the assertions below fail (rather than hang) on the old code.
        session = ServingSession(
            policy="fcfs",
            config=small_config(1),
            admission=DeferForever(),
            perf=UnitPerfModel(0.01),
        )
        recorder = session.subscribe(Recorder())
        session.attach(ListSource(make_requests([(0.0, 4, 4, 4)])))
        session.step(max_events=500)

        assert session.n_rejected == 1
        assert session.n_completed == 0
        assert session.cluster.deferred() == []
        reject_events = [e for e in recorder.events if e[0] == "reject"]
        assert len(reject_events) == 1
        reason = reject_events[0][2]
        assert "deferral livelock" in reason
        # The original gate's reason survives inside the backstop's.
        assert "capacity never frees" in reason
        # The full stall budget was consumed before giving up: cap
        # deferrals happened, and the cap+1-th dispatch rejected instead.
        assert recorder.kinds().count("defer") == MAX_STALLED_DEFERRALS

    def test_rejection_counts_as_deferral_outcome_not_completion(self):
        session = ServingSession(
            policy="fcfs",
            config=small_config(1),
            admission=DeferForever(),
            perf=UnitPerfModel(0.01),
        )
        session.attach(ListSource(make_requests([(0.0, 4, 4, 4)])))
        session.step(max_events=500)
        metrics = session.metrics()
        assert metrics.n_rejected == 1
        assert metrics.requests == []
        # The deferral count still records the futile retries.
        assert metrics.n_deferrals == MAX_STALLED_DEFERRALS

    def test_legitimate_backpressure_is_never_converted(self):
        # A slow cluster behind a MaxInFlight gate: the second request
        # re-defers far more times than the stall cap while the first
        # decodes, but every retry window sees decode progress — so the
        # backstop must not fire and both requests must complete.
        session = ServingSession(
            policy="fcfs",
            config=small_config(1),
            admission=MaxInFlightAdmission(1, defer_s=0.05),
            perf=UnitPerfModel(0.5),
        )
        recorder = session.subscribe(Recorder())
        session.attach(
            ListSource(make_requests([(0.0, 4, 30, 30), (0.1, 4, 4, 4)]))
        )
        session.drain()
        assert recorder.kinds().count("defer") > MAX_STALLED_DEFERRALS
        assert session.n_rejected == 0
        assert session.n_completed == 2

    def test_progress_by_another_request_resets_the_stall_count(self):
        # Interleave a hopeless request with a live workload: completions
        # keep moving the progress marker, so the hopeless request takes
        # *longer* than the cap to reject — consecutive stalls, not
        # lifetime deferrals, are what the backstop counts.
        class DeferRidOne(AdmissionPolicy):
            def decide(self, cluster, req, now):
                if req.rid == 1:
                    return defer(0.05, "singled out")
                from repro.api import admission

                return admission.admit()

        session = ServingSession(
            policy="fcfs",
            config=small_config(1),
            admission=DeferRidOne(),
            perf=UnitPerfModel(0.01),
        )
        recorder = session.subscribe(Recorder())
        # Short requests arriving every 0.3s keep completing while rid 1
        # bounces; once they dry up the cluster goes quiet and the
        # backstop finally fires.
        specs = [(0.0, 4, 4, 4), (0.05, 4, 4, 4)] + [
            (0.3 * i, 4, 4, 4) for i in range(2, 6)
        ]
        session.attach(ListSource(make_requests(specs)))
        session.step(max_events=2000)
        assert session.n_rejected == 1
        # Progress bought extra retries.
        assert recorder.kinds().count("defer") > MAX_STALLED_DEFERRALS + 1
        assert session.n_completed == len(specs) - 1


# ---------------------------------------------------------------------------
# the speculative admission gate
# ---------------------------------------------------------------------------
def speculative_extensions(**overrides) -> ExtensionPolicyConfig:
    """Aggressive knobs so tiny workloads exercise the speculative paths."""
    defaults = dict(
        speculative_defer_s=0.05,
        speculative_max_defers=3,
        speculative_min_observations=2,
        speculative_pressure_tokens=10_000,
        speculative_long_tokens=50,
        speculative_preempt=False,
    )
    defaults.update(overrides)
    return ExtensionPolicyConfig(**defaults)


class TestSpeculativeGate:
    def test_policy_installs_gate_on_bind(self):
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(extensions=speculative_extensions()),
            perf=UnitPerfModel(0.01),
        )
        assert isinstance(session.cluster.admission, SpeculativeAdmission)

    def test_zero_defer_budget_installs_no_gate(self):
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(
                extensions=speculative_extensions(speculative_max_defers=0)
            ),
            perf=UnitPerfModel(0.01),
        )
        assert session.cluster.admission is None

    def test_explicit_session_gate_outranks_speculation(self):
        gate = AdmitAll()
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(extensions=speculative_extensions()),
            admission=gate,
            perf=UnitPerfModel(0.01),
        )
        assert session.cluster.admission is gate

    def test_rank_uncertain_arrivals_defer_then_complete(self):
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(extensions=speculative_extensions()),
            perf=UnitPerfModel(0.01),
        )
        recorder = session.subscribe(Recorder())
        # Two overlapping arrivals of an unseen dataset: the predictor has
        # 0 < 2 observations and another request is in flight, so the
        # later arrival waits for the earlier to teach the predictor.
        session.attach(
            ListSource(make_requests([(0.0, 4, 20, 8), (0.1, 4, 20, 8)]))
        )
        metrics = session.drain()
        assert "defer" in recorder.kinds()
        assert metrics.n_deferrals > 0
        assert session.n_completed == 2
        assert session.n_rejected == 0

    def test_lone_arrival_is_not_deferred(self):
        # Deferring with nothing in flight cannot tighten the predictor:
        # the gate must admit immediately.
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(extensions=speculative_extensions()),
            perf=UnitPerfModel(0.01),
        )
        recorder = session.subscribe(Recorder())
        session.attach(ListSource(make_requests([(0.0, 4, 8, 4)])))
        session.drain()
        assert recorder.kinds() == ["admit", "complete"]

    def test_defer_budget_is_bounded_per_request(self):
        # A long-running first request keeps the cluster busy for longer
        # than max_defers * defer_s: the second arrival must exhaust its
        # budget and admit anyway, never reject.
        session = ServingSession(
            policy="speculative-replace",
            config=small_config(
                n_instances=1,
                extensions=speculative_extensions(
                    speculative_min_observations=5
                ),
            ),
            perf=UnitPerfModel(0.5),
        )
        recorder = session.subscribe(Recorder())
        session.attach(
            ListSource(make_requests([(0.0, 4, 40, 20), (0.1, 4, 8, 4)]))
        )
        session.drain()
        defers = [e for e in recorder.events if e[0] == "defer" and e[1] == 1]
        assert len(defers) == 3  # exactly the budget
        assert session.n_completed == 2
        assert session.n_rejected == 0


# ---------------------------------------------------------------------------
# replacement (speculative demotion)
# ---------------------------------------------------------------------------
class TestSpeculativeReplacement:
    def test_pressured_target_demotes_predicted_longest(self):
        # pressure threshold 0 = every target is pressured; long threshold
        # 0 = everything is predicted-long; PASCAL's own threshold pushed
        # out of reach — any demotion observed is the speculative one.
        extensions = speculative_extensions(
            speculative_max_defers=0,  # isolate replacement from deferral
            speculative_preempt=True,
            speculative_pressure_tokens=0,
            speculative_long_tokens=0,
        )
        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(
                kv_capacity_tokens=2400,
                scheduler=SchedulerConfig(
                    token_quantum=16,
                    demotion_threshold_tokens=10**9,
                ),
            ),
            extensions=extensions,
        )
        session = ServingSession(
            policy="speculative-replace",
            config=config,
            perf=UnitPerfModel(0.05),
        )
        requests = make_requests([(0.0, 4, 60, 8), (0.2, 4, 60, 8)])
        session.attach(ListSource(requests))
        session.drain()
        # The second arrival demoted the in-flight first request.
        assert requests[0].demoted is True
        assert session.n_completed == 2

    def test_preempt_flag_off_never_demotes(self):
        extensions = speculative_extensions(
            speculative_max_defers=0,
            speculative_preempt=False,
            speculative_pressure_tokens=0,
            speculative_long_tokens=0,
        )
        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(
                kv_capacity_tokens=2400,
                scheduler=SchedulerConfig(
                    token_quantum=16,
                    demotion_threshold_tokens=10**9,
                ),
            ),
            extensions=extensions,
        )
        session = ServingSession(
            policy="speculative-replace",
            config=config,
            perf=UnitPerfModel(0.05),
        )
        requests = make_requests([(0.0, 4, 60, 8), (0.2, 4, 60, 8)])
        session.attach(ListSource(requests))
        session.drain()
        assert not any(r.demoted for r in requests)


# ---------------------------------------------------------------------------
# byte-identity with the base policy when speculation is disabled
# ---------------------------------------------------------------------------
class TestByteIdentity:
    def test_disabled_speculation_matches_length_predictive(self):
        trace = TraceConfig(
            ALPACA_EVAL, n_requests=25, arrival_rate_per_s=3.0, seed=5
        )
        disabled = ExtensionPolicyConfig(
            speculative_max_defers=0, speculative_preempt=False
        )
        config = ClusterConfig(
            n_instances=2,
            instance=InstanceConfig(kv_capacity_tokens=40000),
            extensions=disabled,
        )
        base = ServingSession(policy="length-predictive", config=config)
        base.attach(SyntheticSource(trace))
        spec = ServingSession(policy="speculative-replace", config=config)
        spec.attach(SyntheticSource(trace))

        base_payload = metrics_to_payload(base.drain())
        spec_payload = metrics_to_payload(spec.drain())
        assert spec_payload["policy"] == "speculative-replace"
        # Modulo the policy label, every byte of the result is identical.
        spec_payload["policy"] = base_payload["policy"]
        assert spec_payload == base_payload

    def test_enabled_speculation_actually_diverges(self):
        # Sanity for the identity test above: with the gate on, the same
        # trace produces *different* results (otherwise the test proves
        # nothing).
        trace = TraceConfig(
            ALPACA_EVAL, n_requests=25, arrival_rate_per_s=3.0, seed=5
        )
        enabled = ExtensionPolicyConfig(
            speculative_defer_s=0.2,
            speculative_max_defers=3,
            speculative_min_observations=8,
        )
        config = ClusterConfig(
            n_instances=2,
            instance=InstanceConfig(kv_capacity_tokens=40000),
            extensions=enabled,
        )
        base = ServingSession(policy="length-predictive", config=config)
        base.attach(SyntheticSource(trace))
        spec = ServingSession(policy="speculative-replace", config=config)
        spec.attach(SyntheticSource(trace))

        base_metrics = base.drain()
        spec_metrics = spec.drain()
        assert spec_metrics.n_deferrals > 0
        assert base_metrics.n_deferrals == 0
        base_payload = metrics_to_payload(base_metrics)
        spec_payload = metrics_to_payload(spec_metrics)
        spec_payload["policy"] = base_payload["policy"]
        assert spec_payload != base_payload
