"""Answer timing is stored once per decode step, not once per token.

Each serving instance logs its decode steps' completion times in a step
log, and a request's answer timing is a few runs (slices) of such logs
(see :mod:`repro.workload.request`).  The token log
(``Cluster.enable_token_log``) still appends every token's time to a
per-request list, so it is the independent reference: a request's answer
times built from its runs must equal its token log past the reasoning
tokens.  A hypothesis test checks that after every event for every
policy and pool shape; the deterministic cases pin each way a run ends
or continues.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings

import repro.serving.instance as instance_module
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.core.registry import policy_names
from repro.harness.cache import request_from_record, request_to_record
from repro.perfmodel.unit import UnitPerfModel
from repro.workload.request import Request
from tests.test_invariants import (
    POOL_SHAPES,
    build_cluster,
    request_tuples,
    trace_from,
)


def logged_answers(req: Request, token_log: dict) -> list[float]:
    """The reference answer times: the token log past the reasoning
    tokens."""
    return token_log.get(req.rid, [])[req.reasoning_len :]


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=6, deadline=None, derandomize=True)
@given(tuples=request_tuples)
def test_runs_equal_the_token_log(policy, shape, tuples):
    cluster = build_cluster(policy, POOL_SHAPES[shape])
    token_log = cluster.enable_token_log()
    requests = trace_from(tuples)
    cluster.submit(requests)
    while cluster.engine.step():
        # Unsynced members lag in both records alike.
        for req in requests:
            assert req.answer_token_times == logged_answers(req, token_log)
    assert cluster.all_finished()
    for req in requests:
        assert req.answer_token_times == logged_answers(req, token_log)
        assert req.answered_tokens == req.answer_len


def answering(rid, answer, arrival=0.0, reasoning=1):
    """A request whose end-of-think is its prefill token, so every
    answering token is a decode token."""
    return Request(
        rid=rid,
        prompt_len=8,
        reasoning_len=reasoning,
        answer_len=answer,
        arrival_t=arrival,
    )


def serve(
    policy,
    requests,
    *,
    n_instances=1,
    capacity=4096,
    quantum=500,
    max_batch=256,
    epoch=True,
    cancels=(),
):
    """Drain ``requests`` under one-second decode steps, checking the
    instances' invariants after every event and every request's answer
    times against the token log at the end."""
    config = ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(
                token_quantum=quantum, max_batch_size=max_batch
            ),
            epoch_coalescing=epoch,
        ),
    )
    perf = UnitPerfModel(prefill_s=0.5)
    cluster = Cluster(config, policy=policy, perf=perf)
    token_log = cluster.enable_token_log()
    cluster.submit(requests)
    for req, at in cancels:
        cluster.request_cancel(req, at)
    while cluster.engine.step():
        for inst in cluster.instances:
            inst.check_invariants()
    assert cluster.all_finished()
    for req in requests:
        assert req.answer_token_times == logged_answers(req, token_log)
    return cluster


def spans(req: Request) -> list[tuple[int, int]]:
    """Each run's ``(lo, hi)`` in its chunk."""
    return [(lo, hi) for _, lo, hi in req.answer_runs()]


class TestRuns:
    def test_swap_out_and_in_breaks_a_run(self):
        """Four GPU blocks cannot hold both answers: FCFS swaps the later
        request out while the earlier one keeps answering, so the later
        one's answer resumes further down the log."""
        first, second = answering(0, 50), answering(1, 30, arrival=0.2)
        cluster = serve("fcfs", [first, second], capacity=64)
        (inst,) = cluster.instances
        assert inst.swap_out_tokens > 0 and inst.swap_in_tokens > 0
        assert len(first.answer_runs()) == 1
        (_, a), (b, _) = spans(second)
        assert a < b

    def test_park_and_resume(self):
        """One batch slot, a 4-token quantum: the two answers take turns,
        each parked while the other decodes, so every stint is a run."""
        first, second = answering(0, 12), answering(1, 12)
        serve("rr", [first, second], quantum=4, max_batch=1)
        for req in (first, second):
            runs = spans(req)
            assert len(runs) > 1
            assert all(hi - lo <= 4 for lo, hi in runs)
        # The stints interleave in the log.
        assert spans(first)[0][1] <= spans(second)[0][0]

    def test_quantum_expiry_keeps_its_run(self):
        """A quantum expiry ends the epoch, but the request keeps its
        batch slot: its run continues into the next epoch."""
        req = answering(0, 40)
        cluster = serve("rr", [req], quantum=4)
        (inst,) = cluster.instances
        assert inst.reforms > 10
        assert spans(req) == [(0, 40)]

    def test_migration_landing_opens_a_run_at_the_destination(self):
        """PASCAL moves requests at their end-of-think: a landed request
        answers on its destination's log."""
        requests = [
            answering(rid, 20 + rid, arrival=0.1 * rid, reasoning=30 + rid)
            for rid in range(12)
        ]
        cluster = serve("pascal", requests, n_instances=2)
        migrated = [r for r in requests if r.n_migrations]
        assert migrated
        for req in migrated:
            destination = cluster.instances[req.instance_id]
            assert all(
                chunk is destination.step_log
                for chunk, _, _ in req.answer_runs()
            )

    def test_chunk_rollover_starts_a_run(self):
        """Runs never span chunks: a request batched across a rollover
        continues on the new chunk in a new run."""
        req = answering(0, 40)
        with mock.patch.object(instance_module, "STEP_LOG_CHUNK", 8):
            serve("rr", [req], quantum=4)
        runs = req.answer_runs()
        assert len(runs) > 1
        chunks = [chunk for chunk, _, _ in runs]
        assert len({id(chunk) for chunk in chunks}) == len(chunks)
        # Alone in the batch, the request's runs are its chunks, whole;
        # every chunk but the last was full when the next one started.
        assert spans(req) == [(0, len(chunk)) for chunk in chunks]
        assert all(len(chunk) >= 8 for chunk in chunks[:-1])

    def test_truncated_epoch_then_a_new_one(self):
        """An arrival mid-epoch cuts the epoch to its in-flight step and
        trims the log to match, so the resident answer's next epoch
        continues its run."""
        first = answering(0, 30)
        late = answering(1, 10, arrival=5.25)
        cluster = serve("fcfs", [first, late])
        (inst,) = cluster.instances
        assert spans(first) == [(0, 30)]
        # Every epoch had an answering member, and no cut step stayed.
        assert len(inst.step_log) == inst.decode_steps

    def test_cancel_mid_epoch(self):
        first, cancelled = answering(0, 30), answering(1, 30)
        cluster = serve(
            "fcfs", [first, cancelled], cancels=[(cancelled, 7.25)]
        )
        (inst,) = cluster.instances
        assert cancelled.cancelled
        assert 0 < cancelled.answered_tokens < cancelled.answer_len
        assert spans(first) == [(0, 30)]
        assert len(inst.step_log) == inst.decode_steps

    def test_prefill_token_of_an_answer_without_reasoning(self):
        """The prefill step's token is logged by no step: it is a
        one-token run of its own, before the decode run."""
        req = answering(0, 5, reasoning=0)
        serve("fcfs", [req])
        (own, _, _), (chunk, lo, hi) = req.answer_runs()
        assert own == (req.prefill_end_t,)
        assert (lo, hi) == (0, 4)
        assert req.answer_token_times[0] == req.first_answer_t

    def test_single_stepping_logs_the_same_runs(self):
        """An epoch is logged when a member is answering at its open, and
        members change phase only on an epoch's final step, so one-step
        epochs log the same steps and break the same runs."""

        def run(epoch):
            requests = [
                answering(rid, 10 + 3 * rid, arrival=0.3 * rid,
                          reasoning=5 * rid)
                for rid in range(8)
            ]
            cluster = serve(
                "rr", requests, capacity=256, quantum=6, max_batch=4,
                epoch=epoch,
            )
            return (
                [(r.answer_token_times, spans(r)) for r in requests],
                [list(inst.step_log) for inst in cluster.instances],
            )

        assert run(True) == run(False)


def test_cache_codec_round_trip():
    """The codec stores the list view and restores it as one run."""
    first, second = answering(0, 50), answering(1, 30, arrival=0.2)
    serve("fcfs", [first, second], capacity=64)
    assert len(second.answer_runs()) == 2
    record = json.loads(json.dumps(request_to_record(second)))
    restored = request_from_record(record)
    assert restored.answer_token_times == second.answer_token_times
    assert restored.answered_tokens == second.answered_tokens
    assert request_to_record(restored) == request_to_record(second)
