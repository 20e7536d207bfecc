"""Steady-state reforms are an optimisation of the residency walk.

When every live request is GPU-resident and prefill-done, the run-queue
fits the batch limit and the pool takes the next step's block crossings,
``IntraScheduler.form_batch`` returns the run-queue as the decode plan
instead of walking it (``IntraScheduler.steady_plan``).  The walk stays
the reference: the property test patches it in for every reform and
compares everything a run can show, and checks each steady plan against
the plan the walk builds from the same state.  Deterministic cases then
pin the edges of the three conditions and the sites that clear the
instance's ``steady`` flag.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingSession
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.core.registry import policy_names
from repro.schedulers.base import IntraScheduler, StepKind
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance
from tests.test_epoch_equivalence import (
    POOLS,
    _HookRecorder,
    build_requests,
    counting_reforms,
    fingerprint,
)

STEADY_PLAN = IntraScheduler.steady_plan
WALK = IntraScheduler.walk


def checked_steady_plan(self, inst):
    """``steady_plan``, checked against the walk from the same state.

    In steady state the walk moves nothing, so running it here leaves
    the instance as it found it whenever the two plans agree."""
    plan = STEADY_PLAN(self, inst)
    if plan is not None:
        walked = WALK(self, inst, inst.engine.now)
        assert walked.kind is plan.kind
        assert walked.requests == plan.requests
        assert inst.steady
    return plan


def never_steady(self, inst):
    return None


@st.composite
def tight_workload(draw):
    """Up to 20 requests on pools of 400-900 tokens per instance: enough
    to swap and to hit the capacity fallback."""
    n = draw(st.integers(min_value=1, max_value=20))
    specs = []
    t = 0.0
    for rid in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
        specs.append(
            (
                rid,
                draw(st.integers(min_value=1, max_value=40)),
                draw(st.integers(min_value=0, max_value=80)),
                draw(st.integers(min_value=1, max_value=60)),
                t,
            )
        )
    return specs


def run_reforms(
    policy, specs, extensions, epoch, quantum, capacity, batch_limit, walk
):
    """Everything a run shows, with every reform walked or not."""
    config = ClusterConfig(
        n_instances=2,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(
                token_quantum=quantum, max_batch_size=batch_limit
            ),
            epoch_coalescing=epoch,
        ),
        extensions=extensions,
    )
    session = ServingSession(policy=policy, config=config)
    recorder = session.subscribe(_HookRecorder())
    token_log = session.cluster.enable_token_log()
    requests = build_requests(specs)
    steady = never_steady if walk else checked_steady_plan
    with mock.patch.object(IntraScheduler, "steady_plan", steady):
        for req in requests:
            session.submit(req)
        session.drain()
    instances = session.cluster.instances
    for inst in instances:
        inst.check_invariants()
    return (
        recorder.events,
        fingerprint(requests),
        [
            (req.state, req.quantum_used, req.level, req.demoted,
             req.n_preemptions, req.breakdown)
            for req in requests
        ],
        [
            (inst.tokens_generated, inst.decode_steps, inst.prefill_steps,
             inst.reforms, inst.busy_time_s, inst.swap_out_tokens,
             inst.swap_in_tokens, inst.pool.peak_gpu_used_blocks)
            for inst in instances
        ],
        token_log,
    )


class TestSteadyPathEqualsTheWalk:
    @given(
        tight_workload(),
        st.sampled_from(policy_names()),
        st.sampled_from(POOLS),
        st.booleans(),
        st.sampled_from((1, 2, 3, 16)),
        st.integers(min_value=400, max_value=900),
        st.sampled_from((3, 256)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_forced_walk(
        self, specs, policy, pool, epoch, quantum, capacity, batch_limit
    ):
        _, extensions = pool
        args = (policy, specs, extensions, epoch, quantum, capacity,
                batch_limit)
        assert run_reforms(*args, walk=False) == run_reforms(*args, walk=True)


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


def settled_instance(prompts, capacity_tokens=64, max_batch_size=256):
    """A held FCFS instance whose requests (one per prompt length) are
    GPU-resident and prefill-done, after the walk recorded steady state.
    The pool's blocks hold 16 tokens."""
    engine, inst = build_instance(
        FCFSScheduler(), capacity_tokens=capacity_tokens
    )
    inst.config = InstanceConfig(
        kv_capacity_tokens=capacity_tokens,
        scheduler=SchedulerConfig(max_batch_size=max_batch_size),
    )
    inst.busy = True  # hold the step loop: only the test reforms
    requests = []
    for rid, prompt in enumerate(prompts):
        req = request(rid, prompt=prompt)
        inst.admit(req, 0.0)
        inst.do_allocate(req, 0.0)
        req.prefill_done = True
        requests.append(req)
    assert not inst.steady  # admissions clear it
    plan = inst.scheduler.form_batch(inst, 0.0)
    assert plan.kind is StepKind.DECODE and plan.requests == requests
    assert inst.steady
    return inst, requests


def reform(inst, now=1.0):
    """One reform; returns ``(plan, walked)``."""
    with counting_reforms() as counts:
        plan = inst.scheduler.form_batch(inst, now)
    return plan, counts["walked"] > 0


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

    def test_empty_queue_is_steady_and_an_admission_clears_it(self):
        inst, (only,) = settled_instance([16])
        inst.cancel_request(only, 0.5)
        plan, walked = reform(inst)
        assert plan.kind is StepKind.IDLE and not walked
        newcomer = request(7, arrival=2.0)
        inst.admit(newcomer, 2.0)
        assert not inst.steady
        plan, walked = reform(inst, 2.0)
        assert walked and plan.kind is StepKind.PREFILL

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
