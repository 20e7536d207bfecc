"""Content-addressed on-disk result store for sweep cells.

Every simulation cell (dataset x tier x policy x settings,
characterization phase x policy x settings, recorded trace x policy x
settings, or a capacity probe's dataset x cluster shape) hashes to a
stable key derived from its *full canonical spec* (see
:func:`repro.harness.spec.cell_spec`) plus a fingerprint of the simulator
source code, so a cached entry can only ever be served for the exact
configuration — and the exact simulator — that produced it.  The same key
addresses the cell in :mod:`repro.harness.runner`'s in-process memo,
which this store sits under.  Results are
persisted as versioned gzip-JSON under ``~/.cache/pascal-repro``
(overridable via ``--cache-dir`` or ``$PASCAL_CACHE_DIR``) and shared
across processes and CI jobs.

Correctness over reuse, always:

* the key embeds the code fingerprint, so editing any simulation module
  invalidates every entry (stale entries are garbage-collected by
  ``cache prune``);
* entries are validated on load (format, version, kind, fingerprint); a
  corrupt, truncated or mismatched entry reads as a miss and the cell is
  recomputed, never served stale and never crashed on;
* writes go through a tempfile in the cache directory followed by an
  atomic :func:`os.replace`, so concurrent writers (parallel sweep
  workers, parallel CI jobs) can share one directory;
* ``ro`` mode never writes — a CI job can consume a seeded cache without
  being able to poison it.

The payload codecs below serialize the *entire* measurement record of a
run (:class:`~repro.metrics.collector.RunMetrics` down to each request's
per-phase time accounting and answer-token timestamps).  JSON round-trips
Python floats exactly (shortest-repr), so a table built from a disk hit is
byte-identical to one built from a fresh run — the golden-table tests pin
this down.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.config import CACHE_MODES
from repro.metrics.collector import RunMetrics
from repro.workload.request import Phase, Request, ReqState

CACHE_FORMAT = "pascal-cache"
# v2: payloads carry predictor_rank_pairs and n_deferrals (strict reads).
# v3: payloads carry cancelled requests; request records carry
#     cancel_at/cancelled_t (strict reads).
CACHE_VERSION = 3


def default_cache_dir() -> str:
    """``$PASCAL_CACHE_DIR`` or ``~/.cache/pascal-repro``."""
    env = os.environ.get("PASCAL_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "pascal-repro")


# ---------------------------------------------------------------------------
# canonical JSON + hashing
# ---------------------------------------------------------------------------
def canonical_json(obj) -> str:
    """Minimal sorted-key JSON: the hashable canonical form of a spec."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_key(spec: dict) -> str:
    """Content address of one cell spec under the current simulator code."""
    digest = hashlib.sha256()
    digest.update(code_fingerprint().encode("ascii"))
    digest.update(b"\0")
    digest.update(canonical_json(spec).encode("utf-8"))
    return digest.hexdigest()[:40]


# ---------------------------------------------------------------------------
# simulator code fingerprint
# ---------------------------------------------------------------------------
#: Harness modules that do *not* affect simulation results: they build
#: tables and CLI plumbing from memoized runs, so editing them must not
#: invalidate the cache.  Everything else under ``repro`` — including
#: ``harness/runner.py`` (every cell kind's compute) and
#: ``harness/calibrate.py`` (trace sizing) — determines results.
_NON_SIMULATOR_MODULES = frozenset(
    {
        "harness/__main__.py",
        "harness/cache.py",
        "harness/experiments.py",
        "harness/replay.py",
        "harness/report.py",
        "harness/spec.py",
        "harness/timeline.py",
        # Log importers only *produce* trace files; a replay cell is
        # addressed by the trace's content, so importer edits cannot
        # change any cached result.
        "workload/importers.py",
    }
)

_fingerprint: str | None = None


def _simulator_sources() -> list[Path]:
    import repro

    root = Path(repro.__file__).resolve().parent
    files = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        # ``serve`` (wall-clock gateway) never determines a simulated
        # result: cells replayed from a serve-recorded trace are addressed
        # by the trace's *content*, so gateway edits cannot change any
        # cached table.
        if rel in _NON_SIMULATOR_MODULES or "/serve/" in f"/{rel}":
            continue
        files.append(path)
    return files


def _compute_fingerprint() -> str:
    digest = hashlib.sha256()
    import repro

    root = Path(repro.__file__).resolve().parent
    for path in _simulator_sources():
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_fingerprint() -> str:
    """Hash of every simulation-result-determining source file (memoized)."""
    global _fingerprint
    if _fingerprint is None:
        _fingerprint = _compute_fingerprint()
    return _fingerprint


# ---------------------------------------------------------------------------
# file content hashing (replay traces are addressed by content, not path)
# ---------------------------------------------------------------------------
_file_hash_memo: dict[tuple, str] = {}

#: Files below this size are always rehashed: an in-place rewrite that
#: preserves the byte count *and* lands within the filesystem's mtime
#: granularity (or a tar/rsync restore with preserved timestamps) is
#: indistinguishable from the memoized file by (mtime_ns, size) alone,
#: and small files — every trace a test writes — are exactly where such
#: rewrites happen and where rehashing is cheap anyway.
_HASH_MEMO_MIN_BYTES = 1 << 20


def _stat_identity_trustworthy(stat: os.stat_result) -> bool:
    """Can (mtime_ns, size) be trusted to witness unchanged content?

    Not for small files (rehashing is cheaper than being wrong), and not
    when the stored mtime is suspiciously coarse — an exact whole-second
    ``mtime_ns`` is what FAT-class filesystems, archive restores and
    second-resolution ``utime`` calls produce, where two different
    contents can share one timestamp tick.
    """
    if stat.st_size < _HASH_MEMO_MIN_BYTES:
        return False
    return stat.st_mtime_ns % 1_000_000_000 != 0


def file_sha256(path: str | os.PathLike) -> str:
    """Content hash of a file, memoized on (path, mtime_ns, size).

    The memo is consulted only when that identity is trustworthy (see
    :func:`_stat_identity_trustworthy`); otherwise the file is rehashed
    every call, so a same-size in-place rewrite can never be served a
    stale digest.
    """
    path = os.path.abspath(path)
    stat = os.stat(path)
    memo_key = (path, stat.st_mtime_ns, stat.st_size)
    if _stat_identity_trustworthy(stat):
        cached = _file_hash_memo.get(memo_key)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    value = digest.hexdigest()
    if _stat_identity_trustworthy(stat):
        _file_hash_memo[memo_key] = value
    return value


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------
#: Request fields serialized verbatim (ints, floats, bools, strings, or
#: None).  Everything a figure builder or SLO evaluation can read is here;
#: ``breakdown`` (enum-keyed) and ``phase``/``state`` are handled apart.
_REQUEST_SCALARS = (
    "rid",
    "prompt_len",
    "reasoning_len",
    "answer_len",
    "arrival_t",
    "skip_prefill",
    "dataset",
    "instance_id",
    "prefill_done",
    "generated_tokens",
    "kv_tokens",
    "on_gpu",
    "quantum_used",
    "level",
    "demoted",
    "enqueue_seq",
    "_state_since",
    "first_sched_t",
    "prefill_end_t",
    "reasoning_end_t",
    "first_answer_t",
    "answer_sched_t",
    "done_t",
    "cancel_at",
    "cancelled_t",
    "n_preemptions",
    "n_migrations",
    "transfer_wait_s",
)


def request_to_record(req: Request) -> dict:
    """Full measurement record of one simulated request, JSON-ready."""
    record = {name: getattr(req, name) for name in _REQUEST_SCALARS}
    record["phase"] = req.phase.name
    record["state"] = req.state.name
    record["breakdown"] = sorted(
        [phase.name, bucket, seconds]
        for (phase, bucket), seconds in req.breakdown.items()
    )
    record["answer_token_times"] = req.answer_token_times
    return record


def request_from_record(record: dict) -> Request:
    """Rebuild a request indistinguishable from the simulated original."""
    req = Request(
        rid=record["rid"],
        prompt_len=record["prompt_len"],
        reasoning_len=record["reasoning_len"],
        answer_len=record["answer_len"],
        arrival_t=record["arrival_t"],
        skip_prefill=record["skip_prefill"],
        dataset=record["dataset"],
    )
    for name in _REQUEST_SCALARS:
        setattr(req, name, record[name])
    req.phase = Phase[record["phase"]]
    req.state = ReqState[record["state"]]
    req.breakdown = {
        (Phase[phase], bucket): seconds
        for phase, bucket, seconds in record["breakdown"]
    }
    req.answer_token_times = record["answer_token_times"]
    return req


def metrics_to_payload(metrics: RunMetrics) -> dict:
    return {
        "policy": metrics.policy,
        "throughput_tokens_per_s": metrics.throughput_tokens_per_s,
        "transfer_latencies_s": metrics.transfer_latencies_s,
        "predictor_abs_errors": {
            dataset: list(errors)
            for dataset, errors in metrics.predictor_abs_errors.items()
        },
        "predictor_rank_pairs": {
            dataset: [[score, value] for score, value in pairs]
            for dataset, pairs in metrics.predictor_rank_pairs.items()
        },
        "requests": [request_to_record(r) for r in metrics.requests],
        "rejected": [request_to_record(r) for r in metrics.rejected],
        "cancelled": [request_to_record(r) for r in metrics.cancelled],
        "n_deferrals": metrics.n_deferrals,
    }


def metrics_from_payload(payload: dict) -> RunMetrics:
    # `predictor_abs_errors`, `predictor_rank_pairs`, `rejected`,
    # `cancelled` and `n_deferrals` are read strictly: a codec (or cache
    # entry) that drops any of them must surface as a decode failure —
    # recomputed as a miss — not as silently empty columns in a figure.
    return RunMetrics(
        policy=payload["policy"],
        requests=[request_from_record(r) for r in payload["requests"]],
        throughput_tokens_per_s=payload["throughput_tokens_per_s"],
        transfer_latencies_s=list(payload["transfer_latencies_s"]),
        predictor_abs_errors={
            dataset: tuple(errors)
            for dataset, errors in payload["predictor_abs_errors"].items()
        },
        predictor_rank_pairs={
            dataset: tuple((score, value) for score, value in pairs)
            for dataset, pairs in payload["predictor_rank_pairs"].items()
        },
        rejected=[request_from_record(r) for r in payload["rejected"]],
        cancelled=[request_from_record(r) for r in payload["cancelled"]],
        n_deferrals=payload["n_deferrals"],
    )


def char_run_to_payload(run) -> dict:
    return {
        "metrics": metrics_to_payload(run.metrics),
        "oracle_peak_tokens": run.oracle_peak_tokens,
        "capacity_tokens": run.capacity_tokens,
    }


def char_run_from_payload(payload: dict):
    from repro.harness.runner import CharacterizationRun

    return CharacterizationRun(
        metrics=metrics_from_payload(payload["metrics"]),
        oracle_peak_tokens=payload["oracle_peak_tokens"],
        capacity_tokens=payload["capacity_tokens"],
    )


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Per-process counters (parallel workers keep their own)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that existed but failed validation (corrupt/mismatched).
    invalid: int = 0
    #: Writes that failed (unwritable dir, disk full) and were dropped.
    write_errors: int = 0

    def line(self) -> str:
        text = (
            f"disk_hits={self.hits} disk_misses={self.misses} "
            f"disk_writes={self.writes} invalid_entries={self.invalid}"
        )
        if self.write_errors:
            text += f" write_errors={self.write_errors}"
        return text


@dataclass
class EntryInfo:
    """One on-disk entry as listed by ``cache ls``."""

    key: str
    kind: str
    summary: str
    size_bytes: int
    created: str
    fingerprint: str
    path: Path


class DiskCache:
    """One cache directory plus an access mode (``ro`` or ``rw``)."""

    def __init__(self, mode: str, root: str | os.PathLike | None = None):
        if mode not in ("ro", "rw"):
            raise ValueError(f"cache mode must be 'ro' or 'rw', got {mode!r}")
        self.mode = mode
        self.root = Path(root) if root else Path(default_cache_dir())
        self.stats = CacheStats()

    # -- paths ---------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json.gz"

    # -- read ----------------------------------------------------------
    def load(self, key: str, kind: str):
        """Payload for ``key`` or None; any malformed entry is a miss."""
        path = self.entry_path(key)
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, EOFError, ValueError):
            # Truncated gzip stream, invalid JSON, permission trouble:
            # all read as a miss so the cell is recomputed.
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("version") != CACHE_VERSION
            or entry.get("kind") != kind
            or entry.get("key") != key
            or entry.get("fingerprint") != code_fingerprint()
            or "payload" not in entry
        ):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._record_access(path)
        return entry["payload"]

    @staticmethod
    def _record_access(path: Path) -> None:
        """Bump the entry's mtime so eviction can see read-hotness.

        ``prune --max-bytes`` evicts least-recently-*used* entries, but on
        ``noatime``/``relatime`` mounts (the common case) atime never
        advances on reads — so last-use is recorded inside the store
        instead, as an mtime bump on every hit.  Entries never read since
        their write keep the write mtime, which is the natural fallback.
        Best-effort: a read-only store (a CI artifact, someone else's
        directory) simply keeps write-time ordering.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    # -- write ---------------------------------------------------------
    def store(self, key: str, kind: str, spec: dict, payload) -> bool:
        """Persist one entry atomically; no-op (False) in ``ro`` mode.

        A failed write (unwritable directory, disk full) is reported in
        the stats and swallowed: losing a cache entry must never lose the
        simulation result it was about to record.
        """
        if self.mode != "rw":
            return False
        entry = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "kind": kind,
            "key": key,
            "fingerprint": code_fingerprint(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "spec": spec,
            "payload": payload,
        }
        path = self.entry_path(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            # mtime=0 keeps the gzip container deterministic, so two
            # workers racing on one cell write byte-identical files.
            with os.fdopen(fd, "wb") as raw:
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=raw, mtime=0
                ) as gz:
                    gz.write(
                        json.dumps(entry, sort_keys=True).encode("utf-8")
                    )
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        return True

    def store_if_missing(self, key: str, kind: str, spec: dict, payload) -> bool:
        if self.mode != "rw" or self.entry_path(key).exists():
            return False
        return self.store(key, kind, spec, payload)

    # -- maintenance ---------------------------------------------------
    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json.gz"))

    def entries(self) -> list[EntryInfo]:
        """Metadata of every readable entry (unreadable ones summarized)."""
        infos = []
        for path in self._entry_files():
            size = path.stat().st_size
            key = path.name[: -len(".json.gz")]
            try:
                with gzip.open(path, "rt", encoding="utf-8") as fh:
                    entry = json.load(fh)
                # Valid gzip+JSON is not enough: a tampered entry can be
                # any JSON value, and `ls`/`prune` must list it as corrupt
                # rather than crash (prune is how it gets removed).
                if not isinstance(entry, dict) or not isinstance(
                    entry.get("spec", {}), dict
                ):
                    raise ValueError("entry is not a cache object")
                spec = entry.get("spec", {})
                summary = " ".join(
                    f"{name}={spec[name]}"
                    for name in ("policy", "tier", "phase")
                    if name in spec
                )
                dataset = spec.get("dataset")
                if isinstance(dataset, dict) and "name" in dataset:
                    summary = f"dataset={dataset['name']} {summary}".strip()
                infos.append(
                    EntryInfo(
                        key=key,
                        kind=str(entry.get("kind", "?")),
                        summary=summary,
                        size_bytes=size,
                        created=str(entry.get("created", "?")),
                        fingerprint=str(entry.get("fingerprint", "?")),
                        path=path,
                    )
                )
            except (OSError, EOFError, ValueError, TypeError, AttributeError):
                infos.append(
                    EntryInfo(
                        key=key,
                        kind="corrupt",
                        summary="(unreadable entry)",
                        size_bytes=size,
                        created="?",
                        fingerprint="?",
                        path=path,
                    )
                )
        return infos

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_files():
            path.unlink()
            removed += 1
        self._drop_empty_shards()
        return removed

    def prune(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
    ) -> int:
        """Drop stale-fingerprint, corrupt, and (optionally) old entries;
        then, with ``max_bytes``, evict least-recently-used entries until
        the store fits the byte budget.

        Recency is the entry's mtime: :meth:`load` bumps it on every hit
        (see :meth:`_record_access`), so "oldest mtime" means "neither
        written nor read for the longest" — unlike atime, which on
        ``noatime``/``relatime`` mounts silently degrades to creation
        order and evicts read-hot entries.  ``max_age_days`` uses the same
        clock, so "old" likewise means unused, not merely created early.

        Only cache entry files (``??/*.json.gz`` under the store root) are
        ever deleted — anything else living in the directory is not ours
        to touch.
        """
        # Validate everything before the first unlink: a rejected call
        # must not have half-mutated the store.
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        cutoff = None
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        current = code_fingerprint()
        for info in self.entries():
            stale = info.kind == "corrupt" or info.fingerprint != current
            old = cutoff is not None and info.path.stat().st_mtime < cutoff
            if stale or old:
                info.path.unlink()
                removed += 1
        if max_bytes is not None:
            # The store is shared across processes: any entry can vanish
            # between the glob and our stat/unlink (a concurrent prune or
            # clear).  An already-gone entry is simply not ours to count.
            survivors = []
            total = 0
            for path in self._entry_files():
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue
                survivors.append((stat.st_mtime_ns, path, stat.st_size))
                total += stat.st_size
            survivors.sort()
            for _, path, size in survivors:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
                total -= size
        self._drop_empty_shards()
        return removed

    def _drop_empty_shards(self) -> None:
        if not self.root.is_dir():
            return
        for shard in self.root.glob("??"):
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()


# ---------------------------------------------------------------------------
# process-wide active cache
# ---------------------------------------------------------------------------
_active: DiskCache | None = None


def configure(
    mode: str, cache_dir: str | os.PathLike | None = None
) -> DiskCache | None:
    """Install (or, with ``off``, remove) the process-wide disk cache."""
    global _active
    if mode not in CACHE_MODES:
        raise ValueError(
            f"cache mode must be one of {CACHE_MODES}, got {mode!r}"
        )
    _active = None if mode == "off" else DiskCache(mode, cache_dir)
    return _active


def active() -> DiskCache | None:
    """The configured disk cache, or None when caching is off."""
    return _active
