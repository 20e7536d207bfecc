"""Algorithm 1 / Algorithm 2 / adaptive migration tests."""

import pytest

from repro.config import SLOConfig
from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.placement import (
    AnsweringPlacement,
    ReasoningPlacement,
    least_kv_placement,
)
from repro.core.pascal import PascalScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.serving.monitor import InstanceMonitor, answering_starving
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance


def instance_with_kv(iid, kv_tokens, capacity=100_000):
    _, inst = build_instance(FCFSScheduler(), capacity_tokens=capacity)
    inst.iid = iid
    if kv_tokens:
        filler = Request(
            rid=1000 + iid, prompt_len=kv_tokens, reasoning_len=1, answer_len=1
        )
        inst.pool.allocate(filler, kv_tokens)
        inst.requests.add(filler)
    return inst


def answering_request(rid, first_answer_t=None, reasoning_end_t=0.0, tokens=0):
    req = Request(rid=rid, prompt_len=8, reasoning_len=0, answer_len=50)
    req.reasoning_end_t = reasoning_end_t
    if first_answer_t is not None:
        req.first_answer_t = first_answer_t
        req.answer_token_times = [
            first_answer_t + 0.01 * k for k in range(tokens)
        ]
    return req


def reasoning_request(rid):
    return Request(rid=rid, prompt_len=8, reasoning_len=50, answer_len=10)


@pytest.fixture
def monitor():
    return InstanceMonitor(SLOConfig())


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
        assert not answering_starving(req, 1.0, monitor.slo)

    def test_lagging_generation_starves(self, monitor):
        req = answering_request(1, first_answer_t=0.0, tokens=5)
        # At t=2.0 the user expects 21 tokens; only 5 exist.
        assert answering_starving(req, 2.0, monitor.slo)

    def test_pending_first_token_judged_by_ttfat(self, monitor):
        req = answering_request(1, reasoning_end_t=0.0)
        assert not answering_starving(req, 0.1, monitor.slo)
        assert answering_starving(req, 0.3, monitor.slo)

    def test_no_reasoning_end_means_fine(self, monitor):
        req = Request(rid=1, prompt_len=8, reasoning_len=5, answer_len=5)
        assert not answering_starving(req, 100.0, monitor.slo)


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
        boundary = 2.0 + monitor.slo.ttfat_target_s
        # Its heap bound has passed, but (now - reasoning_end_t) > ttfat is
        # strict: the exact judge, not the bound, gives the verdict.
        assert monitor.answering_slo_ok(inst, boundary)
        assert not monitor.answering_slo_ok(inst, boundary + 0.01)

    def test_pace_boundary_starves(self, monitor):
        inst = instance_with_kv(0, 0)
        inst.requests.add(answering_request(1, first_answer_t=0.0, tokens=5))
        boundary = 0.0 + 5 * monitor.slo.tpot_target_s
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
        tpot = monitor.slo.tpot_target_s
        assert tpot < monitor.slo.ttfat_target_s
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
        assert answering_starving(req, later, monitor.slo)  # were it here
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
