"""Steady-state and admission reforms are optimisations of the
residency walk.

When every live request is GPU-resident and prefill-done, the run-queue
fits the batch limit and the pool takes the next step's block crossings,
``IntraScheduler.form_batch`` returns the run-queue as the decode plan
instead of walking it (``IntraScheduler.steady_plan``).  When a steady
instance has newcomers (requests admitted since it became steady), the
queue fits the batch limit, every newcomer is unallocated and the pool
takes the residents' crossings plus the newcomers' prompts, it allocates
the newcomers and prefills them without a walk
(``IntraScheduler.admission_plan``).  The walk stays the reference:
``tests/test_equivalence.py`` compares whole runs against a forced walk,
together with the eager SLO filter, and checks each steady plan against
the plan the walk builds from the same state.  The cases here pin the
edges of the conditions, check each admission plan against a forced walk
from the same state, and pin the sites that clear the instance's
``steady`` flag and its ``newcomers``.
"""

from repro.config import InstanceConfig, SchedulerConfig
from repro.schedulers.base import IntraScheduler, StepKind
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance
from tests.equivalence import counting_reforms, forced_walk

STEADY_PLAN = IntraScheduler.steady_plan


# ---------------------------------------------------------------------------
# deterministic edges
# ---------------------------------------------------------------------------
def request(rid, prompt=16, arrival=0.0):
    """FCFS orders equal arrivals by rid."""
    return Request(
        rid=rid,
        prompt_len=prompt,
        reasoning_len=40,
        answer_len=40,
        arrival_t=arrival,
    )


def settled_instance(
    prompts, capacity_tokens=64, max_batch_size=256, max_prefill_tokens=4096
):
    """A held FCFS instance whose requests (one per prompt length) are
    GPU-resident and prefill-done, after the walk recorded steady state.
    The pool's blocks hold 16 tokens."""
    engine, inst = build_instance(
        FCFSScheduler(), capacity_tokens=capacity_tokens
    )
    inst.config = InstanceConfig(
        kv_capacity_tokens=capacity_tokens,
        scheduler=SchedulerConfig(
            max_batch_size=max_batch_size,
            max_prefill_tokens=max_prefill_tokens,
        ),
    )
    inst.busy = True  # hold the step loop: only the test reforms
    requests = []
    for rid, prompt in enumerate(prompts):
        req = request(rid, prompt=prompt)
        inst.admit(req, 0.0)
        inst.do_allocate(req, 0.0)
        req.prefill_done = True
        requests.append(req)
    assert not inst.steady and not inst.newcomers  # a fresh instance
    plan = inst.scheduler.form_batch(inst, 0.0)
    assert plan.kind is StepKind.DECODE and plan.requests == requests
    assert inst.steady
    return inst, requests


def reform(inst, now=1.0):
    """One reform; returns ``(plan, walked)``."""
    plan, path = reform_by(inst, now)
    return plan, path == "walked"


def reform_by(inst, now=1.0):
    """One reform, whose plan the instance then holds as the step loop
    would; returns ``(plan, path)``, the path one of ``"steady"``,
    ``"admission"`` and ``"walked"``."""
    with counting_reforms() as counts:
        plan = inst.scheduler.form_batch(inst, now)
    inst._plan = plan
    (path,) = [name for name, n in counts.items() if n]
    return plan, path


class TestCapacityEdge:
    def test_crossings_exactly_at_capacity(self):
        # Two 16-token caches (1 block each) both cross a boundary on the
        # next token: 2 used + 2 crossings == the 4-block pool.
        inst, requests = settled_instance([16, 16])
        plan, walked = reform(inst)
        assert not walked
        assert plan.kind is StepKind.DECODE and plan.requests == requests
        assert inst.pool.gpu_used_blocks == 2
        inst.check_invariants()

    def test_one_block_over_capacity_walks(self):
        # 16 + 32 tokens: 3 used + 2 crossings is one block over the pool.
        inst, (first, second) = settled_instance([16, 16])
        inst.pool.grow(second, 16)
        assert STEADY_PLAN(inst.scheduler, inst) is None
        plan, walked = reform(inst)
        assert walked
        assert plan.requests == [first]
        assert second.state == ReqState.PREEMPTED and not second.on_gpu
        assert not inst.steady
        inst.check_invariants()

    def test_crossings_counted_only_when_the_pool_is_short(self):
        # 3 members, 1 free block, but only one of them crosses.
        inst, requests = settled_instance([16, 17, 17], capacity_tokens=96)
        assert inst.pool.gpu_free_blocks() == 1
        plan, walked = reform(inst)
        assert not walked and plan.requests == requests


class TestBatchLimitEdge:
    def test_queue_at_the_batch_limit(self):
        inst, requests = settled_instance(
            [8, 8, 8], capacity_tokens=640, max_batch_size=3
        )
        plan, walked = reform(inst)
        assert not walked and plan.requests == requests

    def test_queue_one_over_the_batch_limit_walks(self):
        inst, requests = settled_instance(
            [8, 8, 8], capacity_tokens=640, max_batch_size=3
        )
        inst.config = InstanceConfig(
            kv_capacity_tokens=640,
            scheduler=SchedulerConfig(max_batch_size=2),
        )
        plan, walked = reform(inst)
        assert walked and plan.requests == requests[:2]
        # The parked request stays resident and prefilled: still steady,
        # though the batch limit keeps the next reform walking too.
        assert inst.steady
        assert reform(inst)[1]
        inst.check_invariants()


    def test_parked_unprefilled_request_is_not_steady(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        inst.config = InstanceConfig(
            kv_capacity_tokens=640,
            scheduler=SchedulerConfig(max_batch_size=2),
        )
        inst.busy = True
        requests = [request(rid, prompt=8) for rid in range(3)]
        for req in requests:
            inst.admit(req, 0.0)
            inst.do_allocate(req, 0.0)
        for req in requests[:2]:
            req.prefill_done = True
        # The third request is resident but parked before its prefill.
        plan, walked = reform(inst)
        assert walked and plan.requests == requests[:2]
        assert not inst.steady
        inst.check_invariants()


class TestFlagSites:
    def test_walk_that_evicts_everything_returns_idle(self):
        inst, (first, second) = settled_instance([16, 30])
        inst.depart(second, 0.5)  # its 2 blocks stay pinned
        inst.pool.grow(first, 16)  # 32 tokens: 2 blocks, crossing next
        plan, walked = reform(inst)
        assert walked
        assert plan.kind is StepKind.IDLE
        assert first.state == ReqState.PREEMPTED and not first.on_gpu
        assert not inst.steady
        inst.check_invariants()
        # Still off the GPU: the next reform must walk again.
        assert reform(inst)[1]

    def test_empty_queue_is_steady_and_an_admission_keeps_it(self):
        inst, (only,) = settled_instance([16])
        inst.cancel_request(only, 0.5)
        plan, walked = reform(inst)
        assert plan.kind is StepKind.IDLE and not walked
        newcomer = request(7, arrival=2.0)
        inst.admit(newcomer, 2.0)
        assert inst.steady and list(inst.newcomers) == [newcomer]
        inst.check_invariants()
        plan, path = reform_by(inst, 2.0)
        assert path == "admission"
        assert plan.kind is StepKind.PREFILL and plan.requests == [newcomer]
        assert newcomer.on_gpu and list(inst.newcomers) == [newcomer]
        inst.check_invariants()

    def test_migrated_landing_on_cpu_clears_steady(self):
        inst, requests = settled_instance([16, 16])
        inst.pool.grow(requests[1], 16)  # 3 of 4 blocks used
        migrant = request(5, prompt=40)  # 3 blocks: only fits on the CPU
        migrant.prefill_done = True
        inst.accept_migrated(migrant, 1.0)
        assert not migrant.on_gpu and migrant.state == ReqState.PREEMPTED
        assert not inst.steady
        inst.check_invariants()
        assert reform(inst)[1]

    def test_migrated_landing_on_gpu_keeps_steady(self):
        inst, requests = settled_instance([8, 8], capacity_tokens=640)
        migrant = request(5, prompt=40)
        migrant.prefill_done = True
        inst.accept_migrated(migrant, 1.0)
        assert migrant.on_gpu and inst.steady
        inst.check_invariants()
        plan, walked = reform(inst)
        assert not walked
        assert plan.requests == requests + [migrant]


# ---------------------------------------------------------------------------
# admission plans
# ---------------------------------------------------------------------------
def newcomer(rid, prompt=16, skip_prefill=False, arrival=1.0):
    return Request(
        rid=rid,
        prompt_len=prompt,
        reasoning_len=40,
        answer_len=40,
        arrival_t=arrival,
        skip_prefill=skip_prefill,
    )


def outcome(inst, plan, requests):
    """What a reform decided: the plan and every request's residency."""
    return (
        plan.kind,
        [r.rid for r in plan.requests],
        plan.prefill_tokens,
        [(r.rid, r.on_gpu, inst.pool.holds(r), r.kv_tokens, r.state,
          r.prefill_done) for r in requests],
        inst.pool.gpu_used_blocks,
    )


def admitted_state(prompts, arrivals, **settled):
    """A settled instance (see :func:`settled_instance`) that then admits
    ``arrivals``; returns the instance and every request."""
    inst, requests = settled_instance(prompts, **settled)
    for req in arrivals:
        inst.admit(req, 1.0)
    return inst, requests + list(arrivals)


def reform_both_ways(build):
    """Reform the state ``build()`` returns by the default path and, on a
    second copy, by a forced walk; the decisions must be equal.  Returns
    the default path's ``(inst, requests, plan, path)``."""
    inst, requests = build()
    inst.check_invariants()
    plan, path = reform_by(inst)
    twin, twin_requests = build()
    with forced_walk():
        walked, _ = reform_by(twin)
    assert outcome(inst, plan, requests) == outcome(twin, walked, twin_requests)
    inst.check_invariants()
    return inst, requests, plan, path


class TestAdmissionPlan:
    def test_reservation_exactly_at_the_free_blocks(self):
        # The resident's 17 tokens (2 blocks) cross nothing next step; the
        # newcomer reserves ceil((20 + 1) / 16) = 2: exactly the 2 free.
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state([17], [newcomer(5, prompt=20)])
        )
        resident, arrival = requests
        assert path == "admission"
        assert plan.kind is StepKind.PREFILL and plan.requests == [arrival]
        assert inst.pool.gpu_free_blocks() == 0
        assert inst.steady and list(inst.newcomers) == [arrival]

    def test_reservation_one_block_over_walks(self):
        # ceil((32 + 1) / 16) = 3 blocks against 2 free.
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state([17], [newcomer(5, prompt=32)])
        )
        resident, arrival = requests
        assert path == "walked"
        assert plan.requests == [resident] and not arrival.on_gpu
        assert not inst.steady and not inst.newcomers

    def test_second_newcomer_over_the_prefill_budget(self):
        # Admitted after request 5 but arrived before it, request 6 comes
        # first in the FCFS run-queue, which orders the prefill budget.
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state(
                [16],
                [
                    newcomer(5, prompt=20, arrival=0.5),
                    newcomer(6, prompt=20, arrival=0.25),
                ],
                capacity_tokens=640,
                max_prefill_tokens=32,
            )
        )
        _, second, first = requests
        assert path == "admission"
        assert plan.kind is StepKind.PREFILL and plan.requests == [first]
        # Both are allocated, one is left unprefilled: the walk takes over.
        assert second.on_gpu and not second.prefill_done
        assert not inst.steady and not inst.newcomers
        assert reform_by(inst, 2.0)[1] == "walked"

    def test_allocated_newcomer_walks(self):
        def build():
            inst, requests = admitted_state(
                [16], [newcomer(5)], capacity_tokens=640
            )
            inst.do_allocate(requests[1], 1.0)  # behind the reform
            return inst, requests

        inst, requests = build()
        assert inst.scheduler.admission_plan(inst, 1.0) is None
        twin, twin_requests = build()
        plan, path = reform_by(inst)
        with forced_walk():
            walked, _ = reform_by(twin)
        assert path == "walked"
        assert outcome(inst, plan, requests) == outcome(
            twin, walked, twin_requests
        )

    def test_departed_newcomer_leaves_the_record(self):
        inst, (resident,) = settled_instance([16], capacity_tokens=640)
        arrival = newcomer(5)
        inst.admit(arrival, 1.0)
        inst.depart(arrival, 1.0)
        assert inst.steady and not inst.newcomers
        inst.check_invariants()
        plan, path = reform_by(inst)
        assert path == "steady" and plan.requests == [resident]

    def test_skip_prefill_newcomer_decodes_with_the_residents(self):
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state(
                [16], [newcomer(5, skip_prefill=True)], capacity_tokens=640
            )
        )
        assert path == "admission"
        assert plan.kind is StepKind.DECODE and plan.requests == requests
        assert inst.steady and not inst.newcomers
        assert reform_by(inst, 2.0)[1] == "steady"

    def test_queue_one_over_the_batch_limit_walks(self):
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state(
                [8, 8],
                [newcomer(5), newcomer(6)],
                capacity_tokens=640,
                max_batch_size=3,
            )
        )
        # Only the first newcomer gets an execution slot.
        _, _, first, second = requests
        assert path == "walked" and plan.requests == [first]
        assert not inst.pool.holds(second)

    def test_queue_at_the_batch_limit_admits(self):
        inst, requests, plan, path = reform_both_ways(
            lambda: admitted_state(
                [8, 8], [newcomer(5)], capacity_tokens=640, max_batch_size=3
            )
        )
        assert path == "admission" and plan.requests == requests[2:]

    def test_arrival_during_an_admission_prefill(self):
        inst, (resident,) = settled_instance([16], capacity_tokens=640)
        engine = inst.engine
        inst.busy = False  # release the step loop
        first, second = newcomer(5, arrival=0.0), newcomer(6, arrival=0.0)
        with counting_reforms() as counts:
            inst.admit(first, 0.0)
            assert inst.plan.requests == [first] and inst.busy
            inst.admit(second, 0.0)  # while the prefill runs
            assert list(inst.newcomers) == [first, second]
            assert not inst.pool.holds(second)
            inst.check_invariants()
            engine.step()  # the prefill completes; the second one admits
            assert first.prefill_done and list(inst.newcomers) == [second]
            assert inst.plan.requests == [second]
            inst.check_invariants()
            engine.step()
            assert not inst.newcomers and inst.plan.kind is StepKind.DECODE
            inst.check_invariants()
        assert counts == {"steady": 1, "admission": 2, "walked": 0}

    def test_newcomer_cancelled_before_its_prefill(self):
        inst, (resident,) = settled_instance([16], capacity_tokens=640)
        arrival = newcomer(5)
        inst.admit(arrival, 1.0)
        inst.cancel_request(arrival, 1.0)
        assert inst.steady and not inst.newcomers
        inst.check_invariants()
        plan, path = reform_by(inst)
        assert path == "steady" and plan.requests == [resident]

    def test_newcomer_cancelled_during_its_prefill(self):
        inst, (resident,) = settled_instance([16], capacity_tokens=640)
        inst.busy = False
        arrival = newcomer(5, arrival=0.0)
        with counting_reforms() as counts:
            inst.admit(arrival, 0.0)
            assert inst.plan.requests == [arrival] and inst.busy
            inst.cancel_request(arrival, 0.0)
            assert not inst.plan.requests and not inst.newcomers
            assert not inst.pool.holds(arrival)
            inst.check_invariants()
            inst.engine.step()  # the emptied prefill completes
            assert inst.plan.kind is StepKind.DECODE
            assert inst.plan.requests == [resident]
            inst.check_invariants()
        assert counts == {"steady": 1, "admission": 1, "walked": 0}

    def test_off_gpu_landing_while_newcomers_wait(self):
        inst, requests = settled_instance([16, 16])
        inst.pool.grow(requests[1], 16)  # 3 of 4 blocks used
        arrival = newcomer(5, prompt=8)
        inst.admit(arrival, 1.0)
        migrant = request(6, prompt=40)  # 3 blocks: only fits on the CPU
        migrant.prefill_done = True
        inst.accept_migrated(migrant, 1.0)
        assert not migrant.on_gpu and not inst.steady
        inst.check_invariants()
        plan, path = reform_by(inst)
        assert path == "walked" and not inst.newcomers
        inst.check_invariants()
