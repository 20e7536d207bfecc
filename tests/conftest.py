"""Shared fixtures: standalone instances driven by a unit-cost model,
and the requests the instance-level tests hand them."""

from __future__ import annotations

import pytest

from repro.config import InstanceConfig, SchedulerConfig
from repro.perfmodel.unit import UnitPerfModel
from repro.schedulers.base import IntraScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.serving.instance import ServingInstance
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.request import Request


def build_instance(
    scheduler: IntraScheduler,
    capacity_tokens: int = 64,
    cpu_tokens: int = 10_000,
    decode_step_s: float = 1.0,
    quantum: int = 4,
    swap_s_per_token: float = 0.0,
) -> tuple[SimulationEngine, ServingInstance]:
    """A single instance wired to its own engine, unit-cost latencies."""
    engine = SimulationEngine()
    config = InstanceConfig(
        kv_capacity_tokens=capacity_tokens,
        cpu_kv_bytes=cpu_tokens * InstanceConfig().model.kv_bytes_per_token,
        scheduler=SchedulerConfig(token_quantum=quantum),
    )
    perf = UnitPerfModel(
        decode_step_s=decode_step_s, swap_s_per_token=swap_s_per_token
    )
    inst = ServingInstance(
        iid=0, config=config, perf=perf, engine=engine, scheduler=scheduler
    )
    engine.register(
        EventKind.STEP_COMPLETE, lambda now, payload: payload.on_step_complete(now)
    )
    return engine, inst


def wire_arrivals(engine, inst, requests):
    engine.register(EventKind.ARRIVAL, lambda now, req: inst.admit(req, now))
    for req in requests:
        engine.schedule(req.arrival_t, EventKind.ARRIVAL, req)


def simple_request(rid=0, prompt=4, reasoning=3, answer=2, arrival=0.0, **kw):
    return Request(
        rid=rid,
        prompt_len=prompt,
        reasoning_len=reasoning,
        answer_len=answer,
        arrival_t=arrival,
        **kw,
    )


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
        req.generated_tokens = req.reasoning_len + tokens
    return req


def reasoning_request(rid):
    return Request(rid=rid, prompt_len=8, reasoning_len=50, answer_len=10)


@pytest.fixture
def run_to_completion():
    """Drive an instance's engine until it drains."""

    def _run(engine: SimulationEngine):
        engine.run()

    return _run
