"""Trace assembly and replay: synthesis, JSONL record mode, JSONL loading.

Two ways to obtain a serving trace:

* **Synthesis** — :class:`TraceConfig` + :func:`build_trace` draw request
  lengths from a dataset model and arrivals from a Poisson process (the
  paper's Section V setup).
* **Replay** — :class:`ReplayTraceConfig` + :func:`build_replay_trace` load
  a recorded JSONL trace, so production logs (or previously synthesized
  traces) can be replayed byte-identically through every policy.

Each has one lazy implementation (:func:`iter_synthetic_trace`,
:func:`iter_replay_trace`); the ``build_*`` functions materialize it, and
the streaming sources of :mod:`repro.api.sources` iterate it.

The JSONL trace format is one header object followed by one object per
request, arrival-ordered::

    {"format": "pascal-trace", "version": 1}
    {"answer_len": 50, "arrival_t": 0.0, "dataset": "alpaca-eval-2.0",
     "id": 0, "prompt_len": 12, "reasoning_len": 100}

``arrival_t`` (seconds, non-decreasing), ``prompt_len`` (>= 1),
``reasoning_len`` (>= 0) and ``answer_len`` (>= 1) are required;
``dataset`` (string tag), ``id`` (unique request id, defaults to the
record's position) and ``skip_prefill`` (the prompt+reasoning KV cache
already exists, Figure 5's workload) are optional.

**Version 2** additionally allows an optional ``cancel_t`` per record (a
finite time strictly after ``arrival_t``): the client abandons the
request at that simulated time, so recorded live traffic — including
disconnects at the serving gateway — replays deterministically offline.
The reader accepts both versions; :func:`dump_trace` emits the *lowest*
version that can represent its records (version 1 unless some request
carries a scripted cancellation), so a version-1 file round-trips
byte-identically through load -> export.  :func:`export_trace` writes
sorted keys for the same reason.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.sim.rng import RandomStreams
from repro.workload import arrival
from repro.workload.datasets import DatasetSpec, MixedDataset
from repro.workload.request import Request

TRACE_FORMAT = "pascal-trace"
#: Newest trace version this module reads and writes.
TRACE_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
#: Log formats :mod:`repro.workload.importers` converts into this schema.
IMPORT_FORMATS = ("openai", "vllm")

_REQUIRED_FIELDS = ("arrival_t", "prompt_len", "reasoning_len", "answer_len")
_OPTIONAL_FIELDS = ("dataset", "id", "skip_prefill")
#: Per-version allowed field sets: version 2 adds ``cancel_t``.
_ALLOWED_FIELDS_BY_VERSION = {
    1: frozenset(_REQUIRED_FIELDS + _OPTIONAL_FIELDS),
    2: frozenset(_REQUIRED_FIELDS + _OPTIONAL_FIELDS + ("cancel_t",)),
}


@dataclass(frozen=True)
class TraceConfig:
    """How to synthesize one serving trace."""

    dataset: DatasetSpec | MixedDataset
    n_requests: int
    arrival_rate_per_s: float
    seed: int = 0
    #: On-off burst duty cycle (fraction of each cycle arrivals flow);
    #: 1.0 is the plain Poisson process, draw-for-draw.
    burst_duty: float = 1.0
    #: On-off burst cycle length in seconds (ignored at duty 1.0).
    burst_cycle_s: float = 60.0

    @property
    def name(self) -> str:
        return self.dataset.name


def iter_synthetic_trace(config: TraceConfig) -> Iterator[Request]:
    """Synthesize one trace lazily, a request at a time.

    The one implementation behind :func:`build_trace` and
    :class:`repro.api.sources.SyntheticSource`.  Arrivals come from the
    ``arrivals:<name>`` stream and token lengths from the
    ``dataset:<name>`` stream; the two are independent
    :class:`random.Random` instances, so a request's draws do not depend
    on how far ahead the other stream has been consumed.
    """
    streams = RandomStreams(config.seed)
    arrivals = arrival.iter_onoff_arrivals(
        config.arrival_rate_per_s,
        config.n_requests,
        streams.stream(f"arrivals:{config.name}"),
        duty=config.burst_duty,
        cycle_s=config.burst_cycle_s,
    )
    lengths = streams.stream(f"dataset:{config.dataset.name}")
    sample = config.dataset.sample_request
    for rid, arrival_t in enumerate(arrivals):
        yield sample(rid, arrival_t, lengths)


def build_trace(config: TraceConfig) -> list[Request]:
    """Materialize a Poisson-arrival trace for one dataset/mixture."""
    return list(iter_synthetic_trace(config))


# ---------------------------------------------------------------------------
# JSONL record mode (export)
# ---------------------------------------------------------------------------
def trace_record(req: Request) -> dict:
    """The static (pre-simulation) fields of a request as a trace record."""
    record: dict = {
        "id": req.rid,
        "arrival_t": float(req.arrival_t),
        "prompt_len": req.prompt_len,
        "reasoning_len": req.reasoning_len,
        "answer_len": req.answer_len,
    }
    if req.dataset:
        record["dataset"] = req.dataset
    if req.skip_prefill:
        record["skip_prefill"] = True
    if req.cancel_at is not None:
        record["cancel_t"] = float(req.cancel_at)
    return record


def dump_trace(requests: list[Request]) -> str:
    """Serialize requests to the JSONL trace format (arrival-ordered).

    Keys are sorted and the header carries the *lowest* version able to
    represent the records (2 only when a scripted cancellation is
    present), so the output is canonical: loading an exported trace and
    exporting it again reproduces the file byte for byte — including for
    pre-cancellation version-1 files.
    """
    ordered = sorted(requests, key=lambda r: (r.arrival_t, r.rid))
    version = 2 if any(r.cancel_at is not None for r in ordered) else 1
    lines = [
        json.dumps({"format": TRACE_FORMAT, "version": version}, sort_keys=True)
    ]
    lines.extend(json.dumps(trace_record(req), sort_keys=True) for req in ordered)
    return "\n".join(lines) + "\n"


def export_trace(requests: list[Request], path: str | os.PathLike) -> None:
    """Record a trace (synthesized or simulated) to a JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_trace(requests))


# ---------------------------------------------------------------------------
# JSONL loading (replay)
# ---------------------------------------------------------------------------
class TraceFormatError(ValueError):
    """A trace file failed validation, with the offending line pinpointed."""

    def __init__(self, path: str | os.PathLike, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        self.message = message
        super().__init__(f"{path}:{line_no}: {message}")

    def __reduce__(self):
        # Default pickling would replay __init__ with the single formatted
        # string and crash the unpickler — which deadlocks multiprocessing
        # pools when a worker raises from load_trace.
        return (TraceFormatError, (self.path, self.line_no, self.message))


def _make_request(
    rid: int,
    prompt_len: int,
    reasoning_len: int,
    answer_len: int,
    arrival_t: float,
    skip_prefill: bool,
    dataset: str,
    cancel_t: float | None = None,
) -> Request:
    """Build a request from its static trace fields.

    Owns the skip_prefill coupling: a precomputed-context request must have
    its reasoning marked done at arrival, exactly as the Figure 5 workload
    synthesizer does.
    """
    req = Request(
        rid=rid,
        prompt_len=prompt_len,
        reasoning_len=reasoning_len,
        answer_len=answer_len,
        arrival_t=arrival_t,
        skip_prefill=skip_prefill,
        dataset=dataset,
    )
    if skip_prefill:
        req.mark_reasoning_precomputed(arrival_t)
    req.cancel_at = cancel_t
    return req


def _require_int(obj: dict, field: str, minimum: int, path, line_no) -> int:
    value = obj[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceFormatError(
            path, line_no, f"{field} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise TraceFormatError(
            path, line_no, f"{field} must be >= {minimum}, got {value}"
        )
    return value


def _parse_record(obj, rid_default: int, path, line_no, version: int = 1) -> Request:
    allowed = _ALLOWED_FIELDS_BY_VERSION[version]
    if not isinstance(obj, dict):
        raise TraceFormatError(
            path, line_no, f"expected a JSON object, got {type(obj).__name__}"
        )
    unknown = sorted(set(obj) - allowed)
    if unknown:
        detail = f"allowed in version {version}: {', '.join(sorted(allowed))}"
        if unknown == ["cancel_t"] and version == 1:
            detail = "cancel_t requires a version-2 header"
        raise TraceFormatError(
            path,
            line_no,
            f"unknown field(s) {', '.join(map(repr, unknown))} ({detail})",
        )
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise TraceFormatError(
            path, line_no, f"missing required field(s) {', '.join(missing)}"
        )
    arrival_t = obj["arrival_t"]
    if isinstance(arrival_t, bool) or not isinstance(arrival_t, (int, float)):
        raise TraceFormatError(
            path, line_no, f"arrival_t must be a number, got {arrival_t!r}"
        )
    # json.loads accepts NaN/Infinity literals, and NaN slips through every
    # `<` comparison — catch it here or it poisons the simulation clock.
    if not math.isfinite(arrival_t) or arrival_t < 0:
        raise TraceFormatError(
            path, line_no, f"arrival_t must be finite and >= 0, got {arrival_t}"
        )
    prompt_len = _require_int(obj, "prompt_len", 1, path, line_no)
    reasoning_len = _require_int(obj, "reasoning_len", 0, path, line_no)
    answer_len = _require_int(obj, "answer_len", 1, path, line_no)
    rid = rid_default
    if "id" in obj:
        rid = _require_int(obj, "id", 0, path, line_no)
    dataset = obj.get("dataset", "")
    if not isinstance(dataset, str):
        raise TraceFormatError(
            path, line_no, f"dataset must be a string, got {dataset!r}"
        )
    skip_prefill = obj.get("skip_prefill", False)
    if not isinstance(skip_prefill, bool):
        raise TraceFormatError(
            path, line_no, f"skip_prefill must be a boolean, got {skip_prefill!r}"
        )
    if skip_prefill and reasoning_len != 0:
        raise TraceFormatError(
            path,
            line_no,
            "skip_prefill requires reasoning_len == 0 "
            "(the reasoning KV cache is declared precomputed)",
        )
    cancel_t = obj.get("cancel_t")
    if cancel_t is not None:
        if isinstance(cancel_t, bool) or not isinstance(cancel_t, (int, float)):
            raise TraceFormatError(
                path, line_no, f"cancel_t must be a number, got {cancel_t!r}"
            )
        if not math.isfinite(cancel_t) or cancel_t <= arrival_t:
            raise TraceFormatError(
                path,
                line_no,
                f"cancel_t must be finite and > arrival_t "
                f"({arrival_t}), got {cancel_t}",
            )
        cancel_t = float(cancel_t)
    return _make_request(
        rid=rid,
        prompt_len=prompt_len,
        reasoning_len=reasoning_len,
        answer_len=answer_len,
        arrival_t=float(arrival_t),
        skip_prefill=skip_prefill,
        dataset=dataset,
        cancel_t=cancel_t,
    )


def _parse_header(obj, path, line_no) -> int:
    if not isinstance(obj, dict) or obj.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            path,
            line_no,
            'first line must be the header {"format": "pascal-trace", '
            '"version": <1 or 2>}',
        )
    version = obj.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise TraceFormatError(
            path,
            line_no,
            f"unsupported trace version {version!r} (this reader "
            f"understands versions {' and '.join(map(str, _SUPPORTED_VERSIONS))})",
        )
    return version


def iter_trace(path: str | os.PathLike):
    """Stream a JSONL trace as freshly constructed :class:`Request` objects.

    The incremental counterpart of :func:`load_trace`: one validated
    record at a time, so a trace of any length can feed an online
    :class:`~repro.api.session.ServingSession` without materializing.
    Validation is identical — malformed lines, out-of-order arrivals and
    duplicate ids raise :class:`TraceFormatError` naming the file and
    line, an empty file raises at the first pull.  (Duplicate-id tracking
    keeps one integer per record; everything else is O(1) memory.)
    """
    count = 0
    seen_ids: set[int] = set()
    version: int | None = None
    prev_arrival = 0.0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    path, line_no, f"invalid JSON: {exc.msg}"
                ) from None
            if version is None:
                version = _parse_header(obj, path, line_no)
                continue
            req = _parse_record(obj, rid_default=count, path=path,
                                line_no=line_no, version=version)
            if req.arrival_t < prev_arrival:
                raise TraceFormatError(
                    path,
                    line_no,
                    f"arrival_t {req.arrival_t} out of order "
                    f"(previous request arrived at {prev_arrival})",
                )
            if req.rid in seen_ids:
                raise TraceFormatError(
                    path, line_no, f"duplicate request id {req.rid}"
                )
            seen_ids.add(req.rid)
            prev_arrival = req.arrival_t
            count += 1
            yield req
    if version is None:
        raise TraceFormatError(path, 1, "empty trace file (missing header)")


def load_trace(path: str | os.PathLike) -> list[Request]:
    """Load a JSONL trace into fresh :class:`Request` objects.

    Every call returns newly constructed requests (simulation mutates them,
    so replaying one trace through several policies needs a fresh list each
    run).  Malformed lines raise :class:`TraceFormatError` naming the file
    and line.
    """
    return list(iter_trace(path))


# ---------------------------------------------------------------------------
# replay configuration
# ---------------------------------------------------------------------------
def _rescaled(
    requests: Iterable[Request], rate_scale: float
) -> Iterator[Request]:
    """Fresh copies of ``requests`` with the timeline divided by
    ``rate_scale`` (see :func:`scale_arrival_rate`), lazily."""
    for req in requests:
        yield _make_request(
            rid=req.rid,
            prompt_len=req.prompt_len,
            reasoning_len=req.reasoning_len,
            answer_len=req.answer_len,
            arrival_t=req.arrival_t / rate_scale,
            skip_prefill=req.skip_prefill,
            dataset=req.dataset,
            cancel_t=(
                None if req.cancel_at is None else req.cancel_at / rate_scale
            ),
        )


def scale_arrival_rate(
    requests: list[Request], rate_scale: float
) -> list[Request]:
    """Rebuild a trace with arrivals compressed by ``rate_scale``.

    ``rate_scale=2.0`` halves every inter-arrival gap (twice the offered
    load); ``0.5`` doubles it.  Scripted cancellations rescale with the
    arrivals (the whole timeline compresses).  Returns fresh
    :class:`Request` objects — arrival time seeds the request's internal
    accounting clock, so it cannot be patched in place.
    """
    if not math.isfinite(rate_scale) or rate_scale <= 0:
        raise ValueError(
            f"rate_scale must be finite and positive, got {rate_scale}"
        )
    return list(_rescaled(requests, rate_scale))


@dataclass(frozen=True)
class ReplayTraceConfig:
    """How to replay one recorded trace (the counterpart of TraceConfig).

    ``rate_scale`` rescales arrivals at load time, so one recorded trace
    yields low/medium/high load tiers without re-recording.
    """

    path: str
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate_scale) or self.rate_scale <= 0:
            raise ValueError(
                f"rate_scale must be finite and positive, got {self.rate_scale}"
            )

    @property
    def name(self) -> str:
        stem = os.path.splitext(os.path.basename(self.path))[0]
        if self.rate_scale == 1.0:
            return stem
        return f"{stem}@x{self.rate_scale:g}"


def iter_replay_trace(config: ReplayTraceConfig) -> Iterator[Request]:
    """Stream (and optionally rate-rescale) a recorded trace for one run.

    The one implementation behind :func:`build_replay_trace` and
    :class:`repro.api.sources.TraceFileSource`: records are validated
    and rescaled one line at a time, exactly as :func:`iter_trace` reads
    them.
    """
    requests = iter_trace(config.path)
    if config.rate_scale == 1.0:
        return requests
    return _rescaled(requests, config.rate_scale)


def build_replay_trace(config: ReplayTraceConfig) -> list[Request]:
    """Load (and optionally rate-rescale) a recorded trace for one run."""
    return list(iter_replay_trace(config))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def trace_token_stats(requests: list[Request]) -> dict[str, float]:
    """Summary statistics of a trace (used by distribution benchmarks)."""
    if not requests:
        raise ValueError("empty trace")
    n = len(requests)
    reasoning = [r.reasoning_len for r in requests]
    answering = [r.answer_len for r in requests]
    prompts = [r.prompt_len for r in requests]
    return {
        "n_requests": float(n),
        "prompt_mean": sum(prompts) / n,
        "reasoning_mean": sum(reasoning) / n,
        "reasoning_max": float(max(reasoning)),
        "answering_mean": sum(answering) / n,
        "answering_max": float(max(answering)),
        "total_tokens": float(
            sum(prompts) + sum(reasoning) + sum(answering)
        ),
        "frac_reasoning_under_1000": sum(1 for x in reasoning if x < 1000) / n,
    }
