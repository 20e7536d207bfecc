"""Contract tests for ``repro.shard`` (K-partition sharded simulation).

Pins the package's two determinism guarantees:

* ``shards=1`` is **byte-identical** to the single-engine
  ``ServingSession`` path (so the golden tables cannot move);
* for fixed ``shards=K``, results are invariant to every execution knob:
  worker count and worker grouping.

Shards share nothing, so each one simulated alone reproduces its share
of the merged run.

Plus the satellite property: hash-partitioning a source into K parts and
recombining them with ``MergedSource`` reproduces the original stream
byte-for-byte for K in {1, 2, 5}.
"""

import json

import pytest

from repro.api import MergedSource, ServingSession, SyntheticSource
from repro.config import ClusterConfig
from repro.harness.cache import metrics_to_payload
from repro.metrics.collector import RunMetrics
from repro.shard import (
    ShardTask,
    merge_metrics,
    partition_counts,
    partition_offsets,
    partitions_of,
    run_shard,
    run_sharded,
    shard_of,
    stable_shard64,
)
from repro.workload.datasets import ALPACA_EVAL, deferral_stress_mix
from repro.workload.request import Request
from repro.workload.trace import TraceConfig

#: Small but non-trivial workload: enough load that all instances (and,
#: sharded, all partitions) see queueing, small enough to run many times.
CFG = TraceConfig(ALPACA_EVAL, n_requests=200, arrival_rate_per_s=3.0, seed=13)


def run_payload(**kwargs) -> str:
    """Canonical JSON of one sharded run's metrics (byte-comparable)."""
    return json.dumps(
        metrics_to_payload(run_sharded(CFG, **kwargs)), sort_keys=True
    )


def by_rid(records: list[dict]) -> dict[int, dict]:
    """Payload request records keyed by request id."""
    return {record["rid"]: record for record in records}


def stream_tuples(source) -> list[tuple]:
    """A source's full stream as comparable value tuples."""
    return [
        (r.rid, r.arrival_t, r.prompt_len, r.reasoning_len, r.answer_len,
         r.dataset)
        for r in source
    ]


# ---------------------------------------------------------------------------
# partitioning primitives
# ---------------------------------------------------------------------------
class TestPartitioning:
    def test_stable_shard64_pinned_values(self):
        # Frozen outputs: the partition of any recorded trace must never
        # change across processes, Python versions, or refactors.
        assert stable_shard64(0) == 16294208416658607535
        assert stable_shard64(1) == 10451216379200822465
        assert stable_shard64(2) == 10905525725756348110
        assert stable_shard64(1_000_000) == 7497680628364559847

    def test_shard_of_is_total_and_in_range(self):
        for n_shards in (1, 2, 5, 7):
            for rid in range(500):
                assert 0 <= shard_of(rid, n_shards) < n_shards

    def test_shard_of_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_of(3, 0)

    def test_partition_counts_near_even(self):
        assert partition_counts(8, 1) == (8,)
        assert partition_counts(8, 3) == (3, 3, 2)
        assert partition_counts(8, 8) == (1,) * 8
        assert partition_offsets(partition_counts(8, 3)) == (0, 3, 6)

    def test_partition_counts_rejects_empty_shards(self):
        with pytest.raises(ValueError):
            partition_counts(4, 5)
        with pytest.raises(ValueError):
            partition_counts(4, 0)

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_partition_recombine_reproduces_stream(self, n_shards):
        # The satellite property: K hash-partitions, merged back together,
        # are byte-for-byte the original stream.  Poisson arrivals are
        # distinct with probability 1, so the merge order is total.
        original = stream_tuples(SyntheticSource(CFG))
        recombined = stream_tuples(MergedSource(partitions_of(CFG, n_shards)))
        assert recombined == original

    def test_partitions_disjoint_and_exhaustive(self):
        parts = [
            {r.rid for r in p} for p in partitions_of(CFG, 3)
        ]
        assert sum(len(p) for p in parts) == CFG.n_requests
        assert set.union(*parts) == {
            r.rid for r in SyntheticSource(CFG)
        }


# ---------------------------------------------------------------------------
# sharded runs: the determinism contract
# ---------------------------------------------------------------------------
class TestShardedRun:
    def test_k1_byte_identical_to_unsharded_session(self):
        session = ServingSession(policy="pascal")
        session.attach(SyntheticSource(CFG))
        base = json.dumps(metrics_to_payload(session.drain()), sort_keys=True)
        assert run_payload(policy="pascal", shards=1, workers=1) == base
        # ... and the multiprocess driver changes nothing either.
        assert run_payload(policy="pascal", shards=1) == base

    def test_fixed_k_invariant_to_execution_strategy(self):
        serial = run_payload(policy="pascal", shards=2, workers=1)
        parallel = run_payload(policy="pascal", shards=2, workers=2)
        assert serial == parallel

    def test_worker_grouping_cannot_change_results(self):
        # 4 shards on 2 processes (2 workers per process) vs 4 processes.
        grouped = run_payload(policy="fcfs", shards=4, workers=2)
        spread = run_payload(policy="fcfs", shards=4, workers=4)
        assert grouped == spread

    def test_merged_run_conserves_requests(self):
        metrics = run_sharded(CFG, policy="fcfs", shards=3, workers=1)
        assert len(metrics.requests) + len(metrics.rejected) == CFG.n_requests
        assert metrics.rejected == []

    def test_instance_ids_remap_onto_global_grid(self):
        metrics = run_sharded(CFG, policy="fcfs", shards=2, workers=1)
        ids = {r.instance_id for r in metrics.requests}
        assert ids <= set(range(8))
        # Shard 1 owns global instances 4..7; its requests must not have
        # been left in local numbering (which would collide with shard 0).
        assert max(ids) >= 4

    def test_cancelled_requests_remap_onto_global_grid(self):
        from repro.workload.trace import build_trace

        requests = build_trace(
            TraceConfig(ALPACA_EVAL, n_requests=40, arrival_rate_per_s=3.0,
                        seed=13)
        )
        for req in requests:
            req.cancel_at = req.arrival_t + 1.0
        metrics = run_sharded(
            requests, policy="pascal", config=ClusterConfig(n_instances=4),
            shards=2, workers=1,
        )
        placed = {
            shard: {
                r.instance_id
                for r in metrics.cancelled
                if shard_of(r.rid, 2) == shard and r.instance_id is not None
            }
            for shard in (0, 1)
        }
        # Cancelled requests were placed, and shard 1's on its own
        # global instances (2, 3), not left in local numbering.
        assert placed[1]
        assert placed[0] <= {0, 1}
        assert placed[1] <= {2, 3}

    def test_request_list_workloads_are_not_mutated(self):
        from repro.workload.trace import build_trace

        requests = build_trace(CFG)
        before = [(r.rid, r.generated_tokens, r.done_t) for r in requests]
        run_sharded(requests, policy="fcfs", shards=2, workers=1)
        after = [(r.rid, r.generated_tokens, r.done_t) for r in requests]
        assert after == before

    def test_each_shard_alone_reproduces_its_share_of_the_merge(self):
        # Shards share nothing: simulated on its own, each shard yields
        # exactly the records its rids carry in the merged run.
        counts = partition_counts(ClusterConfig().n_instances, 3)
        offsets = partition_offsets(counts)
        merged = metrics_to_payload(
            run_sharded(CFG, policy="pascal", shards=3, workers=1)
        )
        for shard in range(3):
            solo = run_shard(
                ShardTask(
                    shard=shard,
                    n_shards=3,
                    policy="pascal",
                    config=ClusterConfig(n_instances=counts[shard]),
                    iid_offset=offsets[shard],
                    workload=CFG,
                )
            )
            assert solo["requests"]
            for column in ("requests", "rejected", "cancelled"):
                own = [
                    record
                    for record in merged[column]
                    if shard_of(record["rid"], 3) == shard
                ]
                assert by_rid(solo[column]) == by_rid(own)

    def test_rejects_more_shards_than_instances(self):
        with pytest.raises(ValueError):
            run_sharded(
                CFG, policy="fcfs", config=ClusterConfig(n_instances=2),
                shards=3,
            )

    def test_rejects_bare_arrival_source(self):
        with pytest.raises(TypeError):
            run_sharded(SyntheticSource(CFG), policy="fcfs", shards=2)


# ---------------------------------------------------------------------------
# metrics merge
# ---------------------------------------------------------------------------
class TestMergeMetrics:
    def test_single_part_is_identity(self):
        part = RunMetrics(policy="fcfs", requests=[])
        assert merge_metrics([part]) is part

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics([])

    def test_policy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_metrics(
                [
                    RunMetrics(policy="fcfs", requests=[]),
                    RunMetrics(policy="rr", requests=[]),
                ]
            )

    @staticmethod
    def _completed(rid: int, arrival_t: float, done_t: float) -> Request:
        req = Request(
            rid=rid, prompt_len=10, reasoning_len=4, answer_len=6,
            arrival_t=arrival_t,
        )
        req.done_t = done_t
        return req

    def test_requests_interleave_by_completion_time(self):
        a = RunMetrics(
            policy="fcfs",
            requests=[self._completed(0, 0.0, 5.0),
                      self._completed(2, 1.0, 9.0)],
            predictor_abs_errors={"d": (1.0,)},
            transfer_latencies_s=[0.5],
        )
        b = RunMetrics(
            policy="fcfs",
            requests=[self._completed(1, 0.5, 7.0)],
            predictor_abs_errors={"d": (2.0,)},
            transfer_latencies_s=[0.25],
        )
        merged = merge_metrics([a, b])
        assert [r.rid for r in merged.requests] == [0, 1, 2]
        assert merged.transfer_latencies_s == [0.5, 0.25]
        assert merged.predictor_abs_errors == {"d": (1.0, 2.0)}
        # Throughput recomputed over the merged span with the Cluster
        # formula: total decode tokens / (last done - first arrival).
        total = sum(r.total_decode_tokens for r in merged.requests)
        assert merged.throughput_tokens_per_s == pytest.approx(
            total / (9.0 - 0.0)
        )

    def test_predictor_rank_pairs_and_deferrals_fold(self):
        # Regression: K>1 merges used to drop both columns, so a sharded
        # speculative run reported no deferrals and no rank correlation.
        a = RunMetrics(
            policy="fcfs",
            requests=[],
            predictor_rank_pairs={"d": ((1.0, 10.0),)},
            n_deferrals=3,
        )
        b = RunMetrics(
            policy="fcfs",
            requests=[],
            predictor_rank_pairs={"d": ((2.0, 20.0),), "e": ((0.5, 5.0),)},
            n_deferrals=4,
        )
        merged = merge_metrics([a, b])
        assert merged.predictor_rank_pairs == {
            "d": ((1.0, 10.0), (2.0, 20.0)),
            "e": ((0.5, 5.0),),
        }
        assert merged.n_deferrals == 7

    def test_sharded_speculative_run_reports_deferrals_and_rank_pairs(self):
        metrics = run_sharded(
            TraceConfig(
                deferral_stress_mix(), n_requests=80, arrival_rate_per_s=3.0,
                seed=13,
            ),
            policy="speculative-replace",
            config=ClusterConfig(n_instances=4),
            shards=2,
            workers=1,
        )
        assert metrics.n_deferrals > 0
        assert sum(
            len(pairs) for pairs in metrics.predictor_rank_pairs.values()
        ) == len(metrics.requests)

    def test_merge_is_deterministic(self):
        parts = [
            RunMetrics(
                policy="fcfs",
                requests=[self._completed(i, float(i), float(i) + 3.0)],
            )
            for i in range(3)
        ]
        first = metrics_to_payload(merge_metrics(parts))
        second = metrics_to_payload(merge_metrics(parts))
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
