"""On-disk result store: correctness before reuse.

The satellite checklist of ISSUE 3, pinned as tests:

* a disk hit is byte-identical to a fresh run;
* a corrupt / truncated / version-mismatched entry is recomputed — never
  a crash, never stale data;
* a simulator-code fingerprint change invalidates every entry;
* ``ro`` mode never writes;
* a parallel sweep sharing one disk cache equals a serial run.
"""

from __future__ import annotations

import gzip
import json

import pytest

from repro.harness import cache
from repro.harness.runner import (
    CapacityCell,
    CharacterizationSettings,
    CharCell,
    EvalCell,
    EvalSettings,
    ReplayCell,
    ReplaySettings,
    clear_caches,
    measured_capacity_req_per_s,
    reset_simulation_count,
    restore_caches,
    run_characterization,
    run_replay,
    simulation_count,
    snapshot_caches,
    sweep,
)
from repro.harness.spec import cell_key, cell_spec
from repro.workload.datasets import ALPACA_EVAL, DatasetSpec, LengthSpec
from repro.workload.trace import ReplayTraceConfig, TraceConfig, build_trace, export_trace

SMALL_CHAR = CharacterizationSettings(
    n_requests=12, reasoning_rate_per_s=0.5, answering_rate_per_s=0.5
)
SMALL_REPLAY = ReplaySettings(n_instances=2, kv_capacity_tokens=8000)


#: A dataset whose capacity probe runs in well under a second.
TINY_DATASET = DatasetSpec(
    "tiny",
    prompt=LengthSpec(20.0, 0.5, 4, 64),
    reasoning=LengthSpec(60.0, 0.8, 8, 2000),
    answering=LengthSpec(120.0, 0.6, 8, 1000),
)
TINY_EVAL = EvalSettings(n_instances=2, kv_capacity_tokens=4000)


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    """Fresh memoization, no ambient cache dir, cache off afterwards.

    The suite-wide memoization is snapshotted and restored so these
    isolation clears don't force later tests (golden tables) to
    resimulate figures the benchmarks already produced.
    """
    monkeypatch.delenv("PASCAL_CACHE_DIR", raising=False)
    saved = snapshot_caches()
    clear_caches()
    reset_simulation_count()
    yield
    cache.configure("off")
    restore_caches(saved)
    reset_simulation_count()


@pytest.fixture
def store(tmp_path):
    return cache.configure("rw", tmp_path / "store")


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    export_trace(
        build_trace(
            TraceConfig(
                dataset=ALPACA_EVAL, n_requests=12, arrival_rate_per_s=3.0, seed=9
            )
        ),
        path,
    )
    return ReplayTraceConfig(path=str(path))


def char_payload(run) -> str:
    return cache.canonical_json(cache.char_run_to_payload(run))


def metrics_payload(metrics) -> str:
    return cache.canonical_json(cache.metrics_to_payload(metrics))


def entry_files(store):
    return sorted(store.root.glob("??/*.json.gz"))


class TestCellKeys:
    def test_key_is_stable(self):
        cell = CharCell("reasoning", "fcfs", SMALL_CHAR)
        assert cell_key(cell) == cell_key(cell)

    def test_key_distinguishes_policy_and_settings(self):
        base = CharCell("reasoning", "fcfs", SMALL_CHAR)
        other_policy = CharCell("reasoning", "rr", SMALL_CHAR)
        other_settings = CharCell(
            "reasoning",
            "fcfs",
            CharacterizationSettings(
                n_requests=13, reasoning_rate_per_s=0.5, answering_rate_per_s=0.5
            ),
        )
        keys = {cell_key(base), cell_key(other_policy), cell_key(other_settings)}
        assert len(keys) == 3

    def test_replay_key_addresses_content_not_path(self, small_trace, tmp_path):
        copy = tmp_path / "renamed.jsonl"
        copy.write_bytes((tmp_path / "trace.jsonl").read_bytes())
        original = ReplayCell(small_trace, "fcfs", SMALL_REPLAY)
        renamed = ReplayCell(
            ReplayTraceConfig(path=str(copy)), "fcfs", SMALL_REPLAY
        )
        assert cell_key(original) == cell_key(renamed)

    def test_replay_key_tracks_content_change(self, small_trace, tmp_path):
        before = cell_key(ReplayCell(small_trace, "fcfs", SMALL_REPLAY))
        path = tmp_path / "trace.jsonl"
        export_trace(
            build_trace(
                TraceConfig(
                    dataset=ALPACA_EVAL,
                    n_requests=12,
                    arrival_rate_per_s=3.0,
                    seed=10,
                )
            ),
            path,
        )
        after = cell_key(ReplayCell(small_trace, "fcfs", SMALL_REPLAY))
        assert before != after

    def test_inplace_same_size_rewrite_recomputes(self, small_trace, tmp_path):
        """Regression: the replay memo must key on *content*, not stat.

        An in-place rewrite that preserves the byte count and lands within
        the filesystem's mtime granularity (simulated exactly here by
        restoring mtime_ns) used to satisfy the old (mtime_ns, size)
        identity and serve the previous trace's metrics.
        """
        import os

        path = tmp_path / "trace.jsonl"
        first = run_replay(small_trace, "fcfs", SMALL_REPLAY)
        assert simulation_count() == 1
        stat = path.stat()
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        old = record["reasoning_len"]
        delta = 100 if old >= 200 else 1
        new = old + delta if len(str(old + delta)) == len(str(old)) else old - delta
        lines[1] = lines[1].replace(
            f'"reasoning_len": {old}', f'"reasoning_len": {new}', 1
        )
        path.write_text("".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        second = run_replay(small_trace, "fcfs", SMALL_REPLAY)
        assert simulation_count() == 2  # recomputed, not served stale
        assert metrics_payload(first) != metrics_payload(second)

    def test_file_sha256_sees_same_size_rewrite_with_restored_mtime(
        self, tmp_path
    ):
        """The memoized hasher itself must not trust a coarse identity."""
        import os

        path = tmp_path / "blob.bin"
        path.write_bytes(b"a" * 512)
        stat = path.stat()
        before = cache.file_sha256(path)
        path.write_bytes(b"b" * 512)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert cache.file_sha256(path) != before

    def test_fingerprint_mixed_into_key(self, monkeypatch):
        cell = CharCell("reasoning", "fcfs", SMALL_CHAR)
        before = cell_key(cell)
        monkeypatch.setattr(cache, "_fingerprint", "f" * 16)
        assert cell_key(cell) != before

    def test_non_cells_rejected(self):
        with pytest.raises(TypeError):
            cell_spec("fig12")


class TestFingerprintCoverage:
    def test_cell_compute_modules_are_fingerprinted(self):
        import inspect
        from pathlib import Path

        from repro.harness import calibrate

        sources = {path.resolve() for path in cache._simulator_sources()}
        for kind in (EvalCell, CharCell, ReplayCell, CapacityCell):
            module = Path(inspect.getsourcefile(kind.compute)).resolve()
            assert module in sources, kind.__name__
        assert Path(calibrate.__file__).resolve() in sources

    def test_non_simulator_entries_name_real_modules(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).resolve().parent
        for rel in cache._NON_SIMULATOR_MODULES:
            assert (root / rel).is_file(), rel


class TestDiskHits:
    def test_char_hit_byte_identical_and_runs_nothing(self, store):
        fresh = run_characterization("reasoning", "fcfs", SMALL_CHAR)
        assert simulation_count() > 0
        clear_caches()
        reset_simulation_count()
        hit = run_characterization("reasoning", "fcfs", SMALL_CHAR)
        assert simulation_count() == 0
        assert char_payload(hit) == char_payload(fresh)
        assert store.stats.hits >= 1

    def test_char_hit_seeds_oracle_peak(self, store):
        run_characterization("reasoning", "fcfs", SMALL_CHAR)
        clear_caches()
        # A disk hit must re-derive the oracle peak so a follow-up oracle
        # query is answered consistently (uncapped, same peak).
        hit = run_characterization("reasoning", "fcfs", SMALL_CHAR)
        oracle = run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert oracle.oracle_peak_tokens == hit.oracle_peak_tokens
        assert oracle.capacity_tokens > hit.capacity_tokens

    def test_replay_hit_byte_identical(self, store, small_trace):
        fresh = run_replay(small_trace, "fcfs", SMALL_REPLAY)
        clear_caches()
        reset_simulation_count()
        hit = run_replay(small_trace, "fcfs", SMALL_REPLAY)
        assert simulation_count() == 0
        assert metrics_payload(hit) == metrics_payload(fresh)

    def test_mid_run_rewrite_cannot_poison_the_new_content(
        self, store, small_trace, tmp_path, monkeypatch
    ):
        # If the trace file is rewritten while the simulation runs, the
        # result must be filed under the address snapshotted before the
        # run — never under the new content's address, which would serve
        # the old trace's metrics to every future reader of the new file.
        import repro.harness.runner as runner_mod

        other = build_trace(
            TraceConfig(
                dataset=ALPACA_EVAL, n_requests=12, arrival_rate_per_s=3.0, seed=77
            )
        )
        real_source = runner_mod.TraceFileSource

        class RewritingSource(real_source):
            # The replay streams its records incrementally; rewrite the
            # file the moment the stream ends, while the simulation of
            # the old content is still in flight.
            def __iter__(self):
                yield from super().__iter__()
                export_trace(other, self.config.path)

        monkeypatch.setattr(runner_mod, "TraceFileSource", RewritingSource)
        run_replay(small_trace, "fcfs", SMALL_REPLAY)
        monkeypatch.setattr(runner_mod, "TraceFileSource", real_source)

        new_key = cell_key(ReplayCell(small_trace, "fcfs", SMALL_REPLAY))
        assert store.load(new_key, "replay") is None

    def test_rewritten_trace_not_served_stale(self, store, small_trace, tmp_path):
        run_replay(small_trace, "fcfs", SMALL_REPLAY)
        path = tmp_path / "trace.jsonl"
        export_trace(
            build_trace(
                TraceConfig(
                    dataset=ALPACA_EVAL,
                    n_requests=12,
                    arrival_rate_per_s=3.0,
                    seed=77,
                )
            ),
            path,
        )
        clear_caches()
        reset_simulation_count()
        run_replay(small_trace, "fcfs", SMALL_REPLAY)
        assert simulation_count() > 0  # recomputed, not stale


class TestEntryValidation:
    def corrupt(self, store, data: bytes):
        (path,) = entry_files(store)
        path.write_bytes(data)

    def test_garbage_entry_recomputed(self, store):
        fresh = run_characterization("reasoning", "oracle", SMALL_CHAR)
        self.corrupt(store, b"not gzip at all")
        clear_caches()
        reset_simulation_count()
        again = run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() > 0
        assert char_payload(again) == char_payload(fresh)
        assert store.stats.invalid >= 1

    def test_truncated_entry_recomputed(self, store):
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        (path,) = entry_files(store)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        clear_caches()
        reset_simulation_count()
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() > 0
        assert store.stats.invalid >= 1

    def test_version_mismatch_recomputed(self, store):
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        (path,) = entry_files(store)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["version"] = cache.CACHE_VERSION + 1
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(entry, fh)
        clear_caches()
        reset_simulation_count()
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() > 0
        assert store.stats.invalid >= 1

    def test_tampered_payload_recomputed(self, store):
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        (path,) = entry_files(store)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["payload"] = {"wrong": "shape"}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(entry, fh)
        clear_caches()
        reset_simulation_count()
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() > 0

    def test_fingerprint_change_invalidates(self, store, monkeypatch):
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        clear_caches()
        reset_simulation_count()
        monkeypatch.setattr(cache, "_fingerprint", "f" * 16)
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() > 0  # old entry unreachable under new code

    def test_tampered_capacity_payload_counts_invalid_and_recomputes(
        self, store
    ):
        # A capacity probe is an ordinary cell: a payload that fails to
        # decode is an invalid entry and a miss, not a crash or a stale hit.
        fresh = measured_capacity_req_per_s(TINY_DATASET, TINY_EVAL)
        (path,) = entry_files(store)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["kind"] == "capacity"
        entry["payload"] = "fast"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(entry, fh)
        clear_caches()
        reset_simulation_count()
        again = measured_capacity_req_per_s(TINY_DATASET, TINY_EVAL)
        assert simulation_count() == 1
        assert store.stats.invalid == 1
        assert again == fresh


class TestReadOnlyMode:
    def test_ro_never_writes(self, tmp_path):
        store = cache.configure("ro", tmp_path / "store")
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert entry_files(store) == []
        assert store.stats.writes == 0

    def test_ro_reads_a_seeded_store(self, tmp_path):
        cache.configure("rw", tmp_path / "store")
        fresh = run_characterization("reasoning", "oracle", SMALL_CHAR)
        clear_caches()
        reset_simulation_count()
        cache.configure("ro", tmp_path / "store")
        hit = run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert simulation_count() == 0
        assert char_payload(hit) == char_payload(fresh)

    def test_bad_modes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cache.configure("sideways", tmp_path)
        with pytest.raises(ValueError):
            cache.DiskCache("off", tmp_path)


class TestWriteFailures:
    def test_unwritable_dir_loses_the_entry_not_the_run(self, tmp_path):
        # A failed write must never crash a completed simulation.
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("a file where the cache dir should be")
        store = cache.configure("rw", blocked)
        run = run_characterization("reasoning", "oracle", SMALL_CHAR)
        assert run.oracle_peak_tokens > 0  # result survived
        assert store.stats.writes == 0
        assert store.stats.write_errors > 0


class TestMaintenance:
    def test_ls_prune_clear(self, store, monkeypatch):
        run_characterization("reasoning", "fcfs", SMALL_CHAR)
        entries = store.entries()
        assert {e.kind for e in entries} == {"char"}
        assert all(e.fingerprint == cache.code_fingerprint() for e in entries)

        # Same-fingerprint, young entries survive a prune...
        assert store.prune(max_age_days=1.0) == 0
        # ... stale-fingerprint entries do not.
        monkeypatch.setattr(cache, "_fingerprint", "f" * 16)
        assert store.prune() == len(entries)
        assert entry_files(store) == []

    def test_clear_removes_everything(self, store):
        run_characterization("reasoning", "fcfs", SMALL_CHAR)
        n = len(entry_files(store))
        assert n > 0
        assert store.clear() == n
        assert entry_files(store) == []

    def test_corrupt_entries_listed_and_pruned(self, store):
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        (path,) = entry_files(store)
        path.write_bytes(b"junk")
        (info,) = store.entries()
        assert info.kind == "corrupt"
        assert store.prune() == 1

    def test_valid_json_non_object_entry_listed_as_corrupt(self, store):
        # Valid gzip, valid JSON, wrong shape: ls/prune must survive it.
        run_characterization("reasoning", "oracle", SMALL_CHAR)
        (path,) = entry_files(store)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('"tampered"')
        (info,) = store.entries()
        assert info.kind == "corrupt"
        assert store.prune() == 1
        assert entry_files(store) == []


class TestSweepParity:
    def cells(self):
        return [
            CharCell("reasoning", policy, SMALL_CHAR)
            for policy in ("oracle", "fcfs", "rr")
        ]

    def test_parallel_sweep_with_shared_disk_cache_equals_serial(self, tmp_path):
        serial = {
            cell: char_payload(result)
            for cell, result in sweep(self.cells(), jobs=1).items()
        }
        clear_caches()
        cache.configure("rw", tmp_path / "store")
        parallel = {
            cell: char_payload(result)
            for cell, result in sweep(self.cells(), jobs=2).items()
        }
        assert parallel == serial

        # Second parallel sweep: everything served from disk, zero sims.
        clear_caches()
        reset_simulation_count()
        cached = {
            cell: char_payload(result)
            for cell, result in sweep(self.cells(), jobs=2).items()
        }
        assert cached == serial
        assert simulation_count() == 0


class TestSizePrune:
    """``cache prune --max-bytes``: least-recently-used size eviction.

    Recency is the entry mtime, bumped by every ``load`` hit — *not*
    atime, which on ``noatime``/``relatime`` mounts never advances on
    reads and silently degrades eviction to creation order.
    """

    def seed_entries(self, store, n=4):
        import os

        keys = []
        for i in range(n):
            key = f"{i:02d}" + "a" * 38
            assert store.store(
                key, "eval", {"kind": "eval", "i": i}, {"payload": "x" * 400}
            )
            keys.append(key)
        # Distinct, increasing last-use times: key 00 least recently used.
        for i, key in enumerate(keys):
            path = store.entry_path(key)
            os.utime(path, (1_000_000 + i * 1000, 1_000_000 + i * 1000))
        return keys

    def test_prunes_least_recently_used_first_down_to_budget(self, store):
        keys = self.seed_entries(store)
        sizes = {k: store.entry_path(k).stat().st_size for k in keys}
        total = sum(sizes.values())
        # Budget for exactly the three most recently used entries.
        budget = total - sizes[keys[0]]
        removed = store.prune(max_bytes=budget)
        assert removed == 1
        assert not store.entry_path(keys[0]).exists()
        assert all(store.entry_path(k).exists() for k in keys[1:])
        remaining = sum(p.stat().st_size for p in entry_files(store))
        assert remaining <= budget

    def test_read_hot_entry_survives_eviction_on_noatime_mounts(self, store):
        """Regression: a read keeps an entry alive even where atime lies.

        Key 00 is the oldest *written* entry but the only one ever read.
        Its atime is then forced back to the epoch — exactly what a
        ``noatime`` mount reports — so the old atime-ordered eviction
        would have picked the one hot entry as its victim.  Last-use is
        now recorded in the store itself (mtime bump on load), which no
        mount option suppresses.
        """
        import os

        keys = self.seed_entries(store)
        assert store.load(keys[0], "eval") is not None  # bumps mtime
        hot = store.entry_path(keys[0])
        os.utime(hot, ns=(0, hot.stat().st_mtime_ns))  # atime frozen at 0
        sizes = {k: store.entry_path(k).stat().st_size for k in keys}
        budget = sum(sizes.values()) - sizes[keys[1]]
        removed = store.prune(max_bytes=budget)
        assert removed == 1
        assert store.entry_path(keys[0]).exists()
        assert not store.entry_path(keys[1]).exists()

    def test_zero_budget_empties_the_store(self, store):
        self.seed_entries(store)
        assert store.prune(max_bytes=0) == 4
        assert entry_files(store) == []

    def test_budget_above_total_removes_nothing(self, store):
        keys = self.seed_entries(store)
        total = sum(store.entry_path(k).stat().st_size for k in keys)
        assert store.prune(max_bytes=total) == 0
        assert len(entry_files(store)) == 4

    def test_never_deletes_non_cache_files(self, store):
        keys = self.seed_entries(store)
        # Foreign files in the store root and inside a shard directory.
        stray_root = store.root / "NOTES.txt"
        stray_root.write_text("hands off")
        shard = store.entry_path(keys[0]).parent
        stray_shard = shard / "README"
        stray_shard.write_text("also not an entry")
        assert store.prune(max_bytes=0) == len(keys)
        assert stray_root.read_text() == "hands off"
        assert stray_shard.read_text() == "also not an entry"
        # The shard holding a stray file survives _drop_empty_shards.
        assert shard.is_dir()

    def test_negative_budget_rejected_before_any_deletion(self, store, monkeypatch):
        self.seed_entries(store)
        # Even with every entry stale (prunable), a rejected call must
        # leave the store untouched — validation precedes the first unlink.
        monkeypatch.setattr(cache, "_fingerprint", "f" * 16)
        with pytest.raises(ValueError, match="max_bytes"):
            store.prune(max_bytes=-1)
        assert len(entry_files(store)) == 4

    def test_stale_entries_removed_before_size_accounting(self, store, monkeypatch):
        self.seed_entries(store)
        total = sum(p.stat().st_size for p in entry_files(store))
        monkeypatch.setattr(cache, "_fingerprint", "f" * 16)
        # All four are stale; the budget would have kept them all.
        assert store.prune(max_bytes=total) == 4
        assert entry_files(store) == []
