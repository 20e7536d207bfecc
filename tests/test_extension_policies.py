"""Tests for the extension policies: pascal-ri-only, phase-partitioned,
tiered-express (heterogeneous pools) and the weighted slo-least-load."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SchedulerConfig,
    SLOConfig,
)
from repro.core.placement import AnsweringPlacement
from repro.perfmodel.unit import UnitPerfModel
from repro.serving.monitor import InstanceMonitor
from repro.workload.request import Request
from tests.test_placement import answering_request, instance_with_kv, reasoning_request


def cluster_of(policy, n_instances=2, capacity=2000, extensions=None):
    config = ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(token_quantum=50),
        ),
        extensions=extensions or ExtensionPolicyConfig(),
    )
    return Cluster(config, policy=policy, perf=UnitPerfModel(0.02))


def workload(n=12):
    return [
        Request(rid=i, prompt_len=16, reasoning_len=40, answer_len=30,
                arrival_t=0.05 * i)
        for i in range(n)
    ]


class TestRiOnlyFallback:
    def test_fallback_flag_changes_selection(self):
        monitor = InstanceMonitor(SLOConfig())
        # Both instances violate their SLO; a hosts one reasoning request,
        # b hosts none but two fresh answering requests.
        a = instance_with_kv(0, 0)
        b = instance_with_kv(1, 0)
        for inst in (a, b):
            bad = answering_request(90 + inst.iid, first_answer_t=0.0, tokens=1)
            bad.level = 3
            inst.requests.add(bad)
        a.requests.add(reasoning_request(201))
        for i in range(2):
            fresh = answering_request(400 + i, first_answer_t=4.9, tokens=60)
            inst_b_req = fresh
            inst_b_req.level = 0
            b.requests.add(inst_b_req)

        full = AnsweringPlacement(monitor, use_fresh_fallback=True)
        ri_only = AnsweringPlacement(monitor, use_fresh_fallback=False)
        req = answering_request(1)
        # Full heuristic penalizes b's fresh answering crowd; r_i-only
        # sees only reasoning counts and picks b.
        assert full.select([a, b], req, 5.0).iid == 0
        assert ri_only.select([a, b], req, 5.0).iid == 1

    def test_ri_only_policy_runs_end_to_end(self):
        cluster = cluster_of("pascal-ri-only")
        requests = workload()
        cluster.run_trace(requests)
        assert cluster.all_finished()
        assert cluster.policy.answering_placement.use_fresh_fallback is False

    def test_full_pascal_keeps_fallback_enabled(self):
        cluster = cluster_of("pascal")
        assert cluster.policy.answering_placement.use_fresh_fallback is True


class TestPhasePartitioned:
    def test_pools_split_the_cluster(self):
        cluster = cluster_of("phase-partitioned", n_instances=4)
        assert [i.iid for i in cluster.policy.reasoning_pool] == [0, 1]
        assert [i.iid for i in cluster.policy.answering_pool] == [2, 3]

    def test_single_instance_degenerates_gracefully(self):
        cluster = cluster_of("phase-partitioned", n_instances=1)
        requests = workload(6)
        cluster.run_trace(requests)
        assert cluster.all_finished()
        # With one instance there is nowhere to migrate to.
        assert len(cluster.migrations.transfer_latencies()) == 0

    def test_every_request_migrates_once(self):
        cluster = cluster_of("phase-partitioned", n_instances=2)
        requests = workload()
        cluster.run_trace(requests)
        assert cluster.all_finished()
        assert all(r.n_migrations == 1 for r in requests)

    def test_reasoning_runs_only_on_reasoning_pool(self):
        cluster = cluster_of("phase-partitioned", n_instances=4)
        requests = workload()
        cluster.run_trace(requests)
        answering_ids = {i.iid for i in cluster.policy.answering_pool}
        for req in requests:
            # Final placement is an answering instance.
            assert req.instance_id in answering_ids

    def test_partitioned_uses_rr_intra_scheduler(self):
        cluster = cluster_of("phase-partitioned")
        assert cluster.instances[0].scheduler.name == "rr"

    def test_zero_reasoning_requests_complete_in_reasoning_pool(self):
        cluster = cluster_of("phase-partitioned", n_instances=2)
        req = Request(rid=0, prompt_len=16, reasoning_len=0, answer_len=10)
        cluster.run_trace([req])
        assert req.finished
        assert req.n_migrations == 0


class TestPoolSpec:
    def test_express_count_clamps_to_keep_standard_tier(self):
        spec = PoolSpec(express_instances=5)
        assert spec.express_count(8) == 5
        assert spec.express_count(4) == 3  # standard tier keeps >= 1
        assert spec.express_count(1) == 0
        assert spec.express_count(0) == 0

    def test_zero_express_disables_tiering(self):
        assert PoolSpec(express_instances=0).express_count(8) == 0


class TestTieredExpress:
    def pool(self, express=2, threshold=50):
        return ExtensionPolicyConfig(
            pool=PoolSpec(
                express_instances=express, express_threshold_tokens=threshold
            )
        )

    def short_and_long(self, n=20):
        # Even rids: long reasoning ("heavy"); odd rids: short ("light").
        return [
            Request(
                rid=i,
                prompt_len=8,
                reasoning_len=(20 if i % 2 else 200),
                answer_len=10,
                arrival_t=0.3 * i,
                dataset=("light" if i % 2 else "heavy"),
            )
            for i in range(n)
        ]

    def test_pool_split_and_schedulers(self):
        cluster = cluster_of(
            "tiered-express", n_instances=4, extensions=self.pool(express=2)
        )
        assert [i.iid for i in cluster.policy.express_pool] == [0, 1]
        assert [i.iid for i in cluster.policy.standard_pool] == [2, 3]
        names = [inst.scheduler.name for inst in cluster.instances]
        assert names[:2] == ["fcfs", "fcfs"]
        assert all(name != "fcfs" for name in names[2:])

    def test_single_instance_runs_homogeneous(self):
        cluster = cluster_of(
            "tiered-express", n_instances=1, capacity=4000,
            extensions=self.pool(),
        )
        assert cluster.policy.express_pool == []
        cluster.run_trace(self.short_and_long(6))
        assert cluster.all_finished()

    def test_short_requests_learn_their_way_to_express(self):
        # Fast decode keeps the standard tier SLO-clean, so placement is
        # driven purely by the learned tiering (no saturation spill).
        config = ClusterConfig(
            n_instances=4,
            instance=InstanceConfig(
                kv_capacity_tokens=4000,
                scheduler=SchedulerConfig(token_quantum=50),
            ),
            extensions=self.pool(express=2, threshold=50),
        )
        cluster = Cluster(
            config, policy="tiered-express", perf=UnitPerfModel(0.002)
        )
        placements: dict[int, int] = {}
        inner_place = cluster.policy.place_arrival

        def spying_place(req, now):
            inst = inner_place(req, now)
            placements[req.rid] = inst.iid
            return inst

        cluster.policy.place_arrival = spying_place
        requests = self.short_and_long(24)
        cluster.run_trace(requests)
        assert cluster.all_finished()
        express_ids = {0, 1}
        # Once the per-dataset EWMA converges under the threshold, light
        # requests ride the express tier; heavy ones never do.
        light_late = [r for r in requests if r.dataset == "light" and r.rid >= 8]
        heavy = [r for r in requests if r.dataset == "heavy"]
        assert all(placements[r.rid] in express_ids for r in light_late)
        assert all(placements[r.rid] not in express_ids for r in heavy)

    def test_prior_above_threshold_routes_standard_first(self):
        cluster = cluster_of(
            "tiered-express", n_instances=4, capacity=4000,
            extensions=self.pool(express=2, threshold=50),
        )
        first = self.short_and_long(2)  # no observations yet: prior = 600
        cluster.run_trace(first)
        assert all(r.instance_id in {2, 3} for r in first)

    def test_predictor_errors_surface_per_dataset(self):
        cluster = cluster_of(
            "tiered-express", n_instances=4, capacity=4000,
            extensions=self.pool(),
        )
        cluster.run_trace(self.short_and_long(10))
        errors = cluster.policy.predictor_errors()
        assert set(errors) == {"heavy", "light"}
        assert all(
            isinstance(errs, tuple) and errs for errs in errors.values()
        )


class TestWeightedLeastLoad:
    def test_weighted_key_prefers_fewer_pending_tokens(self):
        weighted = cluster_of(
            "slo-least-load",
            n_instances=2,
            capacity=8000,
            extensions=ExtensionPolicyConfig(least_load_weighted=True),
        )
        # Instance 0: one giant request; instance 1: three tiny ones.
        # Depth says 0 is emptier; pending tokens say 1 is.
        giant = Request(rid=90, prompt_len=8, reasoning_len=4000, answer_len=100)
        weighted.instances[0].requests.add(giant)
        for i in range(3):
            weighted.instances[1].requests.add(
                Request(rid=91 + i, prompt_len=8, reasoning_len=5, answer_len=5)
            )
        probe = Request(rid=1, prompt_len=8, reasoning_len=10, answer_len=10)
        assert weighted.policy.place_arrival(probe, 0.0).iid == 1

        unweighted = cluster_of(
            "slo-least-load", n_instances=2, capacity=8000
        )
        giant2 = Request(rid=90, prompt_len=8, reasoning_len=4000, answer_len=100)
        unweighted.instances[0].requests.add(giant2)
        for i in range(3):
            unweighted.instances[1].requests.add(
                Request(rid=91 + i, prompt_len=8, reasoning_len=5, answer_len=5)
            )
        assert unweighted.policy.place_arrival(probe, 0.0).iid == 0

    def test_weighted_policy_drains(self):
        cluster = cluster_of(
            "slo-least-load",
            n_instances=2,
            capacity=4000,
            extensions=ExtensionPolicyConfig(least_load_weighted=True),
        )
        requests = workload()
        cluster.run_trace(requests)
        assert cluster.all_finished()

    def test_monitor_pending_decode_tokens(self):
        monitor = InstanceMonitor(SLOConfig())
        inst = instance_with_kv(0, 0)
        assert monitor.pending_decode_tokens(inst) == 0
        req = Request(rid=5, prompt_len=8, reasoning_len=30, answer_len=20)
        req.generated_tokens = 10
        inst.requests.add(req)
        assert monitor.pending_decode_tokens(inst) == 40
