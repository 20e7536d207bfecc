"""Property-based, end-to-end cluster invariants.

Hypothesis drives random small workloads through every scheduling policy
and checks the conservation laws that must hold regardless of scheduling
decisions: every token generated exactly once, all memory returned, all
time accounted, QoE within bounds, and TTFT ordering against the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import policy_names
from repro.metrics.qoe import qoe_for_request
from tests.equivalence import UNIT, build_cluster, build_requests, request_specs


class TestConservationLaws:
    @given(request_specs(), st.sampled_from(policy_names()))
    @settings(max_examples=60, deadline=None)
    def test_invariants_for_any_workload_and_policy(self, specs, policy):
        requests = build_requests(specs)
        cluster = build_cluster(policy, perf=UNIT)
        cluster.run_trace(requests)

        # Everything drains.
        assert cluster.all_finished()

        for req in requests:
            # Token conservation: exactly the requested number generated.
            assert req.generated_tokens == req.total_decode_tokens
            assert len(req.answer_token_times) == req.answer_len
            # Timestamps are ordered.
            assert req.done_t >= req.arrival_t
            if req.reasoning_len > 0:
                assert req.reasoning_end_t is not None
                assert req.arrival_t <= req.reasoning_end_t <= req.done_t
            # Time accounting closes: buckets tile the sojourn.
            assert abs(sum(req.breakdown.values()) - req.e2e_latency()) < 1e-6
            # QoE is a valid score.
            score = qoe_for_request(req, 0.1)
            assert score is None or 0.0 <= score <= 1.0

        # Memory fully returned on every instance.
        for inst in cluster.instances:
            inst.pool.check_invariants()
            assert inst.pool.gpu_used_blocks == 0
            assert inst.pool.cpu_used_blocks == 0

        # Cluster token counters agree with per-request totals.
        generated = sum(i.tokens_generated for i in cluster.instances)
        assert generated == sum(r.total_decode_tokens for r in requests)

        # No migration left in flight.
        assert cluster.migrations.in_flight == 0

    @given(request_specs())
    @settings(max_examples=30, deadline=None)
    def test_oracle_ttft_lower_bounds_fcfs(self, specs):
        oracle = build_cluster(
            "oracle", kv_capacity=1_000_000, quantum=500, perf=UNIT
        )
        oracle_reqs = build_requests(specs)
        oracle.run_trace(oracle_reqs)

        fcfs = build_cluster("fcfs", perf=UNIT)
        fcfs.run_trace(build_requests(specs))

        oracle_by_rid = {r.rid: r for r in oracle_reqs}
        for req in fcfs.completed:
            # Memory constraints can only delay, never accelerate, the
            # first answering token (both run identical per-step costs).
            assert oracle_by_rid[req.rid].ttft() <= req.ttft() + 1e-9
