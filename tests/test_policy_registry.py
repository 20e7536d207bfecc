"""Policy registry and ClusterPolicy strategy-layer tests.

Covers the registry contract (every policy constructed through it, custom
registration), PASCAL's conditional demotion through the policy-built
scheduler, the ``pascal-ri-only`` placement fallback, and the two
extension policies.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    SchedulerConfig,
)
from repro.core.extensions import (
    BucketedEWMAPredictor,
    ReasoningLengthPredictor,
)
from repro.core.pascal import ANSWERING_BAND, band_of
from repro.core.policies import PascalPolicy
from repro.core.policy import ClusterPolicy
from repro.core.registry import (
    create_policy,
    get_policy_class,
    policy_names,
    policy_table,
    register_policy,
    unregister_policy,
)
from repro.perfmodel.unit import UnitPerfModel
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.request import Request
from tests.equivalence import drive


def small_config(n_instances=2, capacity=4000, quantum=50, **extension_knobs):
    return ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(token_quantum=quantum),
        ),
        extensions=ExtensionPolicyConfig(**extension_knobs),
    )


def small_cluster(policy, decode_s=0.01, **kwargs):
    return Cluster(
        small_config(**kwargs), policy=policy, perf=UnitPerfModel(decode_s)
    )


def tiny_requests(n, reasoning=10, answer=10, spacing=0.2, dataset=""):
    return [
        Request(
            rid=i,
            prompt_len=16,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=i * spacing,
            dataset=dataset,
        )
        for i in range(n)
    ]


class TestRegistry:
    def test_paper_policies_registered(self):
        for name in (
            "fcfs",
            "rr",
            "oracle",
            "pascal",
            "pascal-nomigration",
            "pascal-nonadaptive",
            "pascal-ri-only",
            "phase-partitioned",
        ):
            assert name in policy_names()

    def test_extension_policies_registered(self):
        assert "slo-least-load" in policy_names()
        assert "length-predictive" in policy_names()

    def test_create_policy_returns_named_instance(self):
        config = ClusterConfig()
        for name in policy_names():
            policy = create_policy(name, config)
            assert isinstance(policy, ClusterPolicy)
            assert policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            create_policy("lifo", ClusterConfig())
        with pytest.raises(ValueError, match="unknown policy"):
            get_policy_class("lifo")

    def test_policy_table_lists_every_policy(self):
        rows = dict(policy_table())
        assert set(rows) == set(policy_names())
        assert all(summary for summary in rows.values())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy
            class Impostor(ClusterPolicy):
                name = "pascal"

    def test_default_name_rejected(self):
        with pytest.raises(ValueError, match="non-default"):

            @register_policy
            class Nameless(ClusterPolicy):
                pass

    def test_custom_policy_round_trip(self):
        @register_policy
        class Newest(ClusterPolicy):
            """Route everything to the newest (highest-iid) instance."""

            name = "newest-instance"

            def make_intra_scheduler(self, iid):
                return FCFSScheduler()

            def place_arrival(self, req, now):
                return self.instances[-1]

        try:
            cluster = small_cluster("newest-instance")
            requests = tiny_requests(8)
            cluster.run_trace(requests)
            assert cluster.all_finished()
            assert {r.instance_id for r in requests} == {1}
        finally:
            unregister_policy("newest-instance")

    def test_zero_arg_scheduler_factory_rejected(self):
        # The cluster passes the instance id, so a zero-argument override
        # fails as soon as the cluster builds its instances.
        @register_policy
        class ZeroArg(ClusterPolicy):
            """Scheduler factory without the instance id."""

            name = "zero-arg-factory"

            def make_intra_scheduler(self):
                return FCFSScheduler()

            def place_arrival(self, req, now):
                return self.instances[0]

        try:
            with pytest.raises(TypeError, match="make_intra_scheduler"):
                small_cluster("zero-arg-factory")
        finally:
            unregister_policy("zero-arg-factory")

    def test_cluster_accepts_policy_instance(self):
        config = small_config()
        cluster = Cluster(
            config, policy=PascalPolicy(config), perf=UnitPerfModel(0.01)
        )
        assert cluster.policy_name == "pascal"
        cluster.run_trace(tiny_requests(6))
        assert cluster.all_finished()

    def test_policy_cannot_bind_twice(self):
        config = small_config()
        policy = PascalPolicy(config)
        Cluster(config, policy=policy, perf=UnitPerfModel(0.01))
        with pytest.raises(RuntimeError, match="already bound"):
            Cluster(config, policy=policy, perf=UnitPerfModel(0.01))

    def test_unbound_policy_rejects_decisions(self):
        from repro.core.policies import FCFSPolicy

        policy = FCFSPolicy(small_config())
        with pytest.raises(RuntimeError, match="not bound"):
            policy.place_arrival(tiny_requests(1)[0], 0.0)


class TestConditionalDemotion:
    """Section IV-C: reasoning beyond the threshold joins the answering band."""

    def test_long_reasoning_request_lands_in_answering_band(self):
        # Default threshold is 5000 generated tokens.  The quantum is
        # shortened so a batch reform (where demotion is applied) is
        # guaranteed to land between the threshold and the end of the
        # giant request's reasoning phase.
        cluster = Cluster(
            ClusterConfig(
                n_instances=1,
                instance=InstanceConfig(
                    kv_capacity_tokens=40_000,
                    scheduler=SchedulerConfig(token_quantum=100),
                ),
            ),
            policy="pascal",
            perf=UnitPerfModel(0.001),
        )
        giant = Request(
            rid=0, prompt_len=16, reasoning_len=5200, answer_len=8
        )
        others = [
            Request(
                rid=1 + i,
                prompt_len=16,
                reasoning_len=40,
                answer_len=40,
                arrival_t=0.01 * i,
            )
            for i in range(4)
        ]
        observed = {}
        scheduler = cluster.instances[0].scheduler

        def demotion_probe(cluster):
            live = [r for r in cluster.instances[0].requests if not r.finished]
            big = next((r for r in live if r.rid == 0), None)
            if big is not None and big.demoted and "at_demotion" not in observed:
                observed["at_demotion"] = (
                    band_of(big),
                    big.level,
                    big.quantum_used,
                )

        cluster.submit([giant, *others])
        drive(cluster, demotion_probe)

        assert giant.demoted is True
        # The demoted request sits in the answering band with a fresh
        # quantum (level 0), exactly like a phase-transitioned request.
        band, level, quantum_used = observed["at_demotion"]
        assert band == ANSWERING_BAND
        assert level == 0
        assert quantum_used < scheduler.quantum_tokens

    def test_short_reasoning_is_never_demoted(self):
        cluster = small_cluster("pascal")
        requests = tiny_requests(10, reasoning=30, answer=10)
        cluster.run_trace(requests)
        assert all(not r.demoted for r in requests)


class TestRiOnlyFallbackViaRegistry:
    def test_registry_builds_ri_only_without_fresh_fallback(self):
        config = small_config()
        full = create_policy("pascal", config)
        ri_only = create_policy("pascal-ri-only", config)
        assert full.use_fresh_fallback is True
        assert ri_only.use_fresh_fallback is False

    def test_ri_only_placement_ignores_fresh_answering_crowd(self):
        # Two instances, both violating their answering SLO.  Instance 0
        # hosts one reasoning request; instance 1 hosts none but a crowd of
        # fresh (level-0) answering requests.  Algorithm 2's fallback
        # penalizes the crowd; the ri-only ablation sees only r_i.
        def make(policy_name):
            cluster = small_cluster(policy_name, n_instances=2)
            for inst in cluster.instances:
                laggard = Request(
                    rid=900 + inst.iid,
                    prompt_len=4,
                    reasoning_len=0,
                    answer_len=50,
                )
                laggard.reasoning_end_t = 0.0
                laggard.first_answer_t = 0.0
                laggard.level = 3
                inst.requests.add(laggard)
            reasoning = Request(
                rid=800, prompt_len=4, reasoning_len=50, answer_len=10
            )
            cluster.instances[0].requests.add(reasoning)
            for i in range(2):
                fresh = Request(
                    rid=700 + i, prompt_len=4, reasoning_len=0, answer_len=60
                )
                fresh.reasoning_end_t = 4.9
                fresh.first_answer_t = 4.9
                fresh.level = 0
                cluster.instances[1].requests.add(fresh)
            probe = Request(rid=1, prompt_len=4, reasoning_len=0, answer_len=10)
            return cluster.policy.answering_placement.select(
                cluster.instances, probe, 5.0
            )

        assert make("pascal").iid == 0
        assert make("pascal-ri-only").iid == 1


class TestSLOAwareLeastLoad:
    def test_drains_and_balances_by_queue_depth(self):
        cluster = small_cluster("slo-least-load", n_instances=4)
        requests = tiny_requests(16, spacing=0.0)
        cluster.run_trace(requests)
        assert cluster.all_finished()
        # Simultaneous arrivals spread across all instances by live count.
        assert {r.instance_id for r in requests} == {0, 1, 2, 3}

    def test_rebalances_at_phase_boundaries_when_enabled(self):
        cluster = small_cluster("slo-least-load", n_instances=2)
        cluster.run_trace(tiny_requests(12, spacing=0.05))
        assert cluster.all_finished()
        assert len(cluster.migrations.transfer_latencies()) > 0


class TestLengthPredictive:
    def test_predictor_learns_from_observations(self):
        predictor = ReasoningLengthPredictor(alpha=0.5, prior_tokens=100)
        req = Request(
            rid=0, prompt_len=4, reasoning_len=40, answer_len=4, dataset="d"
        )
        assert predictor.predict_total(req) == 100.0
        predictor.observe(req, 400)
        assert predictor.predict_total(req) == 400.0
        predictor.observe(req, 200)
        assert predictor.predict_total(req) == pytest.approx(300.0)

    def test_predictor_falls_back_to_global_estimate(self):
        predictor = ReasoningLengthPredictor(alpha=0.5, prior_tokens=100)
        seen = Request(
            rid=0, prompt_len=4, reasoning_len=1, answer_len=1, dataset="a"
        )
        unseen = Request(
            rid=1, prompt_len=4, reasoning_len=1, answer_len=1, dataset="b"
        )
        predictor.observe(seen, 900)
        assert predictor.predict_total(unseen) == 900.0

    def test_remaining_is_zero_for_answering_requests(self):
        predictor = ReasoningLengthPredictor()
        req = Request(rid=0, prompt_len=4, reasoning_len=0, answer_len=10)
        assert predictor.predict_remaining(req) == 0.0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ReasoningLengthPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            ReasoningLengthPredictor(prior_tokens=0)

    def test_policy_observes_every_transition(self):
        cluster = small_cluster("length-predictive")
        requests = tiny_requests(10, dataset="tiny")
        cluster.run_trace(requests)
        assert cluster.all_finished()
        assert cluster.policy.predictor.n_observations == 10
        # All requests reason for exactly 10 tokens; EWMA converges there.
        assert cluster.policy.predictor.predict_total(requests[0]) == 10.0

    def test_knobs_come_from_cluster_config(self):
        cluster = small_cluster("length-predictive", predictor="bucketed-ewma")
        assert isinstance(cluster.policy.predictor, BucketedEWMAPredictor)
        # Smoothing and prior are the predictor classes' own defaults.
        assert cluster.policy.predictor.alpha == 0.25
        assert cluster.policy.predictor.prior_tokens == 600.0

    def test_predicted_footprint_separates_instances(self):
        cluster = small_cluster("length-predictive", n_instances=2)
        policy = cluster.policy
        # Instance 0 hosts a reasoning request the predictor believes will
        # grow large; instance 1 an answering request of equal current KV.
        grower = Request(
            rid=0, prompt_len=50, reasoning_len=500, answer_len=10, dataset="g"
        )
        steady = Request(rid=1, prompt_len=50, reasoning_len=0, answer_len=10)
        cluster.instances[0].requests.add(grower)
        cluster.instances[1].requests.add(steady)
        policy.predictor.observe(grower, 800)
        probe = Request(rid=2, prompt_len=4, reasoning_len=20, answer_len=5)
        assert policy.place_arrival(probe, 0.0).iid == 1
