"""Algorithm 1 / Algorithm 2 / adaptive migration tests.

The SLO filter reads ``t_i`` in load order, up to the first clean
instance (:func:`repro.core.placement.least_loaded_clean`).  The eager
filter-then-``min`` it replaced, which reads ``t_i`` on every instance,
stays as the reference
(:func:`tests.equivalence.eager_least_loaded_clean`): every pick is
checked against it here.
"""

import contextlib
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SLOConfig,
)
from repro.core import placement
from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.placement import (
    AnsweringPlacement,
    ReasoningPlacement,
    least_kv_placement,
)
from repro.core.pascal import PascalScheduler
from repro.core.registry import policy_names
from repro.serving.monitor import InstanceMonitor, answering_starving
from repro.workload.request import ReqState, Request
from tests.conftest import (
    answering_request,
    build_instance,
    instance_with_kv,
    reasoning_request,
)
from tests.equivalence import (
    CONTENDED,
    POOL_SHAPES,
    TIGHT_SLO,
    build_cluster,
    build_requests,
    eager_least_loaded_clean,
    filter_replaced_by,
    request_specs,
)

#: The SLO every instance here judges ``t_i`` by.
SLO = SLOConfig()


@pytest.fixture
def monitor():
    return InstanceMonitor()


class TestLeastKV:
    def test_picks_smallest_footprint(self):
        instances = [
            instance_with_kv(0, 500),
            instance_with_kv(1, 100),
            instance_with_kv(2, 300),
        ]
        req = reasoning_request(1)
        assert least_kv_placement(instances, req, 0.0).iid == 1

    def test_tie_breaks_by_id(self):
        instances = [instance_with_kv(0, 96), instance_with_kv(1, 96)]
        assert least_kv_placement(instances, reasoning_request(1), 0.0).iid == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            least_kv_placement([], reasoning_request(1), 0.0)


class TestStarvation:
    def test_keeping_pace_not_starving(self, monitor):
        req = answering_request(1, first_answer_t=0.0, tokens=30)
        # At t=1.0 the user expects 11 tokens; 30 were generated.
        assert not answering_starving(req, 1.0, SLO)

    def test_lagging_generation_starves(self, monitor):
        req = answering_request(1, first_answer_t=0.0, tokens=5)
        # At t=2.0 the user expects 21 tokens; only 5 exist.
        assert answering_starving(req, 2.0, SLO)

    def test_pending_first_token_judged_by_ttfat(self, monitor):
        req = answering_request(1, reasoning_end_t=0.0)
        assert not answering_starving(req, 0.1, SLO)
        assert answering_starving(req, 0.3, SLO)

    def test_no_reasoning_end_means_fine(self, monitor):
        req = Request(rid=1, prompt_len=8, reasoning_len=5, answer_len=5)
        assert not answering_starving(req, 100.0, SLO)


class TestAlgorithm1:
    def test_prefers_slo_ok_instance_with_least_kv(self, monitor):
        ok_small = instance_with_kv(0, 100)
        ok_big = instance_with_kv(1, 500)
        violating = instance_with_kv(2, 10)
        starving = answering_request(9, first_answer_t=0.0, tokens=1)
        violating.requests.add(starving)
        placement = ReasoningPlacement(monitor)
        # At t=5 the starving request lags badly: instance 2 is excluded
        # even though it has the least KV.
        chosen = placement.select(
            [ok_small, ok_big, violating], reasoning_request(1), 5.0
        )
        assert chosen.iid == 0

    def test_falls_back_to_all_when_every_instance_violates(self, monitor):
        insts = [instance_with_kv(0, 500), instance_with_kv(1, 100)]
        for inst in insts:
            bad = answering_request(90 + inst.iid, first_answer_t=0.0, tokens=1)
            inst.requests.add(bad)
        placement = ReasoningPlacement(monitor)
        chosen = placement.select(insts, reasoning_request(1), 5.0)
        assert chosen.iid == 1  # min m_i among all

    def test_empty_pool_rejected(self, monitor):
        with pytest.raises(ValueError):
            ReasoningPlacement(monitor).select([], reasoning_request(1), 0.0)


class TestAlgorithm2:
    def test_prefers_fewest_reasoning_requests(self, monitor):
        light = instance_with_kv(0, 0)
        heavy = instance_with_kv(1, 0)
        for i in range(3):
            heavy.requests.add(reasoning_request(200 + i))
        light.requests.add(reasoning_request(300))
        placement = AnsweringPlacement(monitor)
        chosen = placement.select([heavy, light], answering_request(1), 0.0)
        assert chosen.iid == 0  # light has r_i = 1 vs heavy's 3

    def test_fallback_uses_r_plus_a(self, monitor):
        # Both instances violate; the one with fewer reasoning + fresh
        # answering requests wins.
        a = instance_with_kv(0, 0)
        b = instance_with_kv(1, 0)
        for inst in (a, b):
            bad = answering_request(90 + inst.iid, first_answer_t=0.0, tokens=1)
            bad.level = 3  # not fresh: does not count toward a_i
            inst.requests.add(bad)
        a.requests.add(reasoning_request(201))
        # b hosts no reasoning but two fresh answering requests.
        for i in range(2):
            fresh = answering_request(400 + i, first_answer_t=4.9, tokens=60)
            fresh.level = 0
            b.requests.add(fresh)
        placement = AnsweringPlacement(monitor)
        chosen = placement.select([a, b], answering_request(1), 5.0)
        assert chosen.iid == 0  # r+a: a = 1+0... b = 0+2

    def test_empty_pool_rejected(self, monitor):
        with pytest.raises(ValueError):
            AnsweringPlacement(monitor).select([], answering_request(1), 0.0)


class TestMonitorCensus:
    def test_counts(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(reasoning_request(1))
        fresh = answering_request(2, first_answer_t=0.0, tokens=100)
        inst.requests.add(fresh)
        stale = answering_request(3, first_answer_t=0.0, tokens=100)
        stale.level = 2
        inst.requests.add(stale)
        assert monitor.reasoning_count(inst) == 1
        assert monitor.fresh_answering_count(inst) == 1

    def test_slo_ok_ignores_reasoning_requests(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(reasoning_request(1))
        assert monitor.answering_slo_ok(inst, 100.0)

    def test_slo_not_ok_with_starving_answer(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(answering_request(1, first_answer_t=0.0, tokens=1))
        assert not monitor.answering_slo_ok(inst, 5.0)

    def test_kv_footprint_reads_pool(self, monitor):
        inst = instance_with_kv(0, 256)
        assert monitor.kv_footprint(inst) == 256

    # -- incremental census: exact boundaries ------------------------------
    def test_ttfat_boundary_is_strict(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(answering_request(1, reasoning_end_t=2.0))
        boundary = 2.0 + SLO.ttfat_target_s
        # Its heap bound has passed, but (now - reasoning_end_t) > ttfat is
        # strict: the exact judge, not the bound, gives the verdict.
        assert monitor.answering_slo_ok(inst, boundary)
        assert not monitor.answering_slo_ok(inst, boundary + 0.01)

    def test_pace_boundary_starves(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(answering_request(1, first_answer_t=0.0, tokens=5))
        boundary = 0.0 + 5 * SLO.tpot_target_s
        assert monitor.answering_slo_ok(inst, boundary - 0.01)
        # At first_answer_t + g·tpot the pacer already expects token g + 1.
        assert not monitor.answering_slo_ok(inst, boundary)

    def test_first_token_switches_to_the_pace_rule(self, monitor):
        # Entered the census before its first answering token, so it is
        # keyed by reasoning_end_t; the token itself does no census work,
        # yet the pacer rule must bite one TPOT later, well before TTFAT.
        inst = instance_with_kv(0, 0)
        req = answering_request(1, reasoning_end_t=0.0)
        inst.requests.add(req)
        req.first_answer_t = 0.0
        req.answer_token_times = [0.0]
        req.generated_tokens = req.reasoning_len + 1
        tpot = SLO.tpot_target_s
        assert tpot < SLO.ttfat_target_s
        assert not monitor.answering_slo_ok(inst, tpot)

    # -- incremental census: lifecycle updates -----------------------------
    def test_flip_enters_the_answering_census(self, monitor):
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=1), capacity_tokens=256
        )
        req = Request(rid=0, prompt_len=4, reasoning_len=2, answer_len=6)
        inst.admit(req, 0.0)
        assert monitor.reasoning_count(inst) == 1
        while req.reasoning_end_t is None:
            engine.step()
        assert monitor.reasoning_count(inst) == 0
        # No answering token yet, and the next step ends a full second
        # after the flip: past the TTFAT target in between.
        assert monitor.answering_slo_ok(inst, req.reasoning_end_t)
        assert not monitor.answering_slo_ok(inst, req.reasoning_end_t + 0.5)
        engine.run()
        assert monitor.answering_slo_ok(inst, engine.now)

    def lagging_answer(self, monitor):
        """A request answering at one token a second, ten times slower
        than the TPOT target: starving from its second answering token."""
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=1), capacity_tokens=256
        )
        req = Request(rid=0, prompt_len=4, reasoning_len=2, answer_len=6)
        inst.admit(req, 0.0)
        while len(req.answer_token_times) < 2:
            engine.step()
        assert not monitor.answering_slo_ok(inst, engine.now)
        return engine, inst, req

    def test_completed_member_leaves_no_stale_verdict(self, monitor):
        engine, inst, req = self.lagging_answer(monitor)
        engine.run()
        assert req.finished and req not in inst.requests
        assert monitor.answering_slo_ok(inst, engine.now)

    def test_cancelled_member_leaves_no_stale_verdict(self, monitor):
        engine, inst, req = self.lagging_answer(monitor)
        inst.cancel_request(req, engine.now)
        assert monitor.answering_slo_ok(inst, engine.now)
        assert monitor.answering_slo_ok(inst, engine.now + 100.0)

    def test_migrated_member_leaves_no_stale_verdict(self, monitor):
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=1), capacity_tokens=256
        )
        # As a migrating policy does: the request leaves at its
        # end-of-think token, after the census saw it flip.
        inst.on_transition = lambda req, src, now: src.depart(req, now)
        req = Request(rid=0, prompt_len=4, reasoning_len=2, answer_len=6)
        inst.admit(req, 0.0)
        while req.reasoning_end_t is None:
            engine.step()
        later = req.reasoning_end_t + 0.5
        assert req not in inst.requests
        assert answering_starving(req, later, SLO)  # were it here
        assert monitor.answering_slo_ok(inst, later)

    @pytest.mark.parametrize("exit_path", ["cancel", "migrate"])
    def test_departed_reasoning_member_leaves_r_i(self, monitor, exit_path):
        engine, inst = build_instance(PascalScheduler(), capacity_tokens=256)
        inst.busy = True  # hold the step loop: census only
        req = reasoning_request(1)
        inst.admit(req, 0.0)
        assert monitor.reasoning_count(inst) == 1
        if exit_path == "cancel":
            inst.cancel_request(req, 0.0)
        else:
            inst.depart(req, 0.0)
        assert monitor.reasoning_count(inst) == 0
        inst.check_invariants()

    def test_finished_member_is_never_counted(self, monitor):
        # Added by hand already finished, as test_batch_formation does.
        inst = instance_with_kv(0, 0)
        done_reasoning = reasoning_request(1)
        done_reasoning.state = ReqState.FINISHED
        done_answering = answering_request(2, reasoning_end_t=0.0)
        done_answering.state = ReqState.FINISHED
        inst.requests.add(done_reasoning)
        inst.requests.add(done_answering)
        assert monitor.reasoning_count(inst) == 0
        # Unfinished, it would have starved on its TTFAT long ago.
        assert monitor.answering_slo_ok(inst, 100.0)
        inst.requests.discard(done_reasoning)
        assert monitor.reasoning_count(inst) == 0


class TestAdaptiveMigration:
    def migrating_request(self, kv=1000, remaining=400):
        req = Request(
            rid=1, prompt_len=100, reasoning_len=900, answer_len=remaining
        )
        req.generated_tokens = 900
        req.kv_tokens = kv
        req.phase = __import__(
            "repro.workload.request", fromlist=["Phase"]
        ).Phase.ANSWERING
        return req

    def test_same_instance_never_migrates(self):
        policy = AdaptiveMigrationPolicy()
        inst = instance_with_kv(0, 0)
        req = self.migrating_request()
        assert not policy.should_migrate(req, inst, inst)

    def test_migrates_when_target_has_room(self):
        policy = AdaptiveMigrationPolicy(growth_headroom_tokens=500)
        src = instance_with_kv(0, 0, capacity=2048)
        dst = instance_with_kv(1, 0, capacity=100_000)
        req = self.migrating_request(kv=1000, remaining=400)
        assert policy.should_migrate(req, src, dst)

    def test_stays_home_when_target_full_and_source_roomy(self):
        policy = AdaptiveMigrationPolicy(growth_headroom_tokens=500)
        src = instance_with_kv(0, 0, capacity=100_000)
        dst = instance_with_kv(1, 99_984, capacity=100_000)
        req = self.migrating_request(kv=1000, remaining=400)
        assert not policy.should_migrate(req, src, dst)

    def test_migrates_anyway_when_source_also_full(self):
        policy = AdaptiveMigrationPolicy(growth_headroom_tokens=500)
        src = instance_with_kv(0, 99_984, capacity=100_000)
        dst = instance_with_kv(1, 99_984, capacity=100_000)
        req = self.migrating_request(kv=1000, remaining=400)
        assert policy.should_migrate(req, src, dst)

    def test_disabled_policy_always_migrates(self):
        policy = AdaptiveMigrationPolicy(enabled=False)
        src = instance_with_kv(0, 0, capacity=100_000)
        dst = instance_with_kv(1, 99_984, capacity=100_000)
        req = self.migrating_request()
        assert policy.should_migrate(req, src, dst)

    def test_growth_need_capped_by_remaining(self):
        policy = AdaptiveMigrationPolicy(growth_headroom_tokens=500)
        req = self.migrating_request(kv=1000, remaining=10)
        # target must hold kv + min(500, remaining) = 1010 tokens
        dst = instance_with_kv(1, 0, capacity=1024)
        assert policy.target_has_room(dst, req)


# ---------------------------------------------------------------------------
# load-ordered SLO filter
# ---------------------------------------------------------------------------
LEAST_LOADED_CLEAN = placement.least_loaded_clean


@contextlib.contextmanager
def filter_checked_against_the_eager_one():
    """Check every pick of the load-ordered filter against the eager
    filter, and count the outcomes in a Counter the block fills: the
    least-loaded instance was clean, it was passed over, none was clean."""
    outcomes = Counter()

    def checked(monitor, instances, key, now):
        pick = LEAST_LOADED_CLEAN(monitor, instances, key, now)
        assert pick is eager_least_loaded_clean(monitor, instances, key, now)
        if pick is None:
            outcomes["none clean"] += 1
        elif pick is min(instances, key=key):
            outcomes["least clean"] += 1
        else:
            outcomes["passed over"] += 1
        return pick

    with filter_replaced_by(checked):
        yield outcomes


def pressed_cluster(policy, shape="homogeneous"):
    """:data:`tests.equivalence.CONTENDED` under SLO targets below its
    10 ms step, so answering requests fall behind and ``t_i`` is often
    False."""
    return build_cluster(policy, shape, slo=TIGHT_SLO, **CONTENDED)


class TestLoadOrderedFilter:
    @pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
    @pytest.mark.parametrize("policy", policy_names())
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(specs=request_specs())
    def test_every_pick_matches_the_eager_filter(self, policy, shape, specs):
        cluster = pressed_cluster(policy, shape)
        with filter_checked_against_the_eager_one():
            cluster.run_trace(build_requests(specs))
        assert cluster.all_finished()

    @pytest.mark.parametrize(
        "policy",
        ["pascal", "slo-least-load", "length-predictive", "tiered-express"],
    )
    def test_a_pressed_run_takes_every_outcome(self, policy):
        """A 40-request run per SLO-filtering policy passes over violating
        instances and finds none clean, as well as the common case."""
        cluster = pressed_cluster(policy)
        arrivals = accumulate([0.05] * 40)
        requests = build_requests(
            [
                (k, 1 + 7 * k % 20, 3 * k % 41, 1 + 11 * k % 40, arrival)
                for k, arrival in enumerate(arrivals)
            ]
        )
        with filter_checked_against_the_eager_one() as outcomes:
            cluster.run_trace(requests)
        assert cluster.all_finished()
        assert min(
            outcomes[o] for o in ("least clean", "passed over", "none clean")
        ) > 0, outcomes


def violating(inst, rid=90):
    """Give ``inst`` an answering request that starves from t=0.2 on."""
    inst.requests.add(answering_request(rid, first_answer_t=0.0, tokens=1))
    return inst


@contextlib.contextmanager
def t_i_queries(monitor):
    """The instances ``monitor`` reads ``t_i`` of, in order."""
    queried = []
    query = monitor.answering_slo_ok

    def counting(inst, now):
        queried.append(inst.iid)
        return query(inst, now)

    with mock.patch.object(monitor, "answering_slo_ok", counting):
        yield queried


class TestLoadOrderedEdges:
    def test_least_loaded_violates_and_the_next_is_clean(self, monitor):
        # m_i order: 2 (violating), 0, 1.
        instances = [
            instance_with_kv(0, 100),
            instance_with_kv(1, 500),
            violating(instance_with_kv(2, 10)),
        ]
        with t_i_queries(monitor) as queried:
            chosen = ReasoningPlacement(monitor).select(
                instances, reasoning_request(1), 5.0
            )
        assert chosen.iid == 0
        assert queried == [2, 0]  # instance 1 is never read

    def test_least_loaded_clean_reads_one_t_i(self, monitor):
        instances = [instance_with_kv(0, 300), instance_with_kv(1, 100)]
        with t_i_queries(monitor) as queried:
            chosen = ReasoningPlacement(monitor).select(
                instances, reasoning_request(1), 5.0
            )
        assert chosen.iid == 1 and queried == [1]

    def test_algorithm_2_passes_over_a_violating_instance(self, monitor):
        # r_i order: 1 (violating, no reasoning), 0 (one reasoning).
        busy = instance_with_kv(0, 0)
        busy.requests.add(reasoning_request(300))
        idle = violating(instance_with_kv(1, 0))
        with t_i_queries(monitor) as queried:
            chosen = AnsweringPlacement(monitor).select(
                [busy, idle], answering_request(1), 5.0
            )
        assert chosen.iid == 0 and queried == [1, 0]

    def all_violating_pair(self):
        """Both instances violate.  By ``m_i`` and by ``r_i`` instance 1
        is lighter; by ``r_i + a_i`` instance 0 is."""
        a = violating(instance_with_kv(0, 500), rid=90)
        b = violating(instance_with_kv(1, 100), rid=91)
        a.requests.add(reasoning_request(201))
        for i in range(2):
            fresh = answering_request(400 + i, first_answer_t=4.9, tokens=60)
            fresh.level = 0
            b.requests.add(fresh)
        return a, b

    def test_all_violating_algorithm_1_takes_least_m_i(self, monitor):
        a, b = self.all_violating_pair()
        chosen = ReasoningPlacement(monitor).select(
            [a, b], reasoning_request(1), 5.0
        )
        assert chosen is b

    def test_all_violating_algorithm_2_takes_least_r_plus_a(self, monitor):
        a, b = self.all_violating_pair()
        # r + a: a = 1 + 0, b = 0 + 2.
        chosen = AnsweringPlacement(monitor).select(
            [a, b], answering_request(1), 5.0
        )
        assert chosen is a

    def test_all_violating_ri_only_takes_least_r_i(self, monitor):
        a, b = self.all_violating_pair()
        chosen = AnsweringPlacement(monitor, use_fresh_fallback=False).select(
            [a, b], answering_request(1), 5.0
        )
        assert chosen is b


class TestTieredExpressSpill:
    def cluster(self):
        """Four instances, 0-1 the express tier; an arrival predicted
        short (threshold above the 600-token prior) goes to the tier."""
        return Cluster(
            ClusterConfig(
                n_instances=4,
                instance=InstanceConfig(kv_capacity_tokens=4000),
                extensions=ExtensionPolicyConfig(
                    pool=PoolSpec(
                        express_instances=2, express_threshold_tokens=1000
                    )
                ),
            ),
            policy="tiered-express",
        )

    def fill(self, inst, kv_tokens, rid):
        filler = Request(
            rid=rid, prompt_len=kv_tokens, reasoning_len=1, answer_len=1
        )
        inst.pool.allocate(filler, kv_tokens)
        inst.requests.add(filler)

    def test_clean_tier_keeps_the_arrival(self):
        cluster = self.cluster()
        express, standard = cluster.instances[:2], cluster.instances[2:]
        self.fill(express[0], 300, 100)
        self.fill(standard[0], 10, 101)
        chosen = cluster.policy.place_arrival(reasoning_request(1), 5.0)
        assert chosen is express[1]

    def test_violating_tier_spills_to_the_least_loaded_clean_rest(self):
        cluster = self.cluster()
        express, standard = cluster.instances[:2], cluster.instances[2:]
        for k, inst in enumerate(express):
            violating(inst, rid=90 + k)
        self.fill(standard[0], 300, 100)
        self.fill(standard[1], 200, 101)
        with t_i_queries(cluster.monitor) as queried:
            chosen = cluster.policy.place_arrival(reasoning_request(1), 5.0)
        assert chosen is standard[1]
        assert queried == [0, 1, 3]

    def test_every_instance_violating_takes_the_least_kv(self):
        cluster = self.cluster()
        for k, inst in enumerate(cluster.instances):
            violating(inst, rid=90 + k)
            self.fill(inst, 400 - 100 * k, 100 + k)
        chosen = cluster.policy.place_arrival(reasoning_request(1), 5.0)
        assert chosen is cluster.instances[3]
