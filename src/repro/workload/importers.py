"""Importers: convert real serving logs into the versioned trace schema.

The replay subsystem (:mod:`repro.workload.trace`) consumes one canonical
JSONL format.  Production systems log requests in their own shapes; this
module converts the two most common ones so "replay my real traffic
through every policy" is a single command::

    python -m repro.harness import-trace --format vllm \\
        --input server_requests.jsonl --output trace.jsonl
    python -m repro.harness trace-compare --trace trace.jsonl

Supported input formats (one JSON object per line; blank lines ignored):

``vllm``
    Request-level records as exported from vLLM's ``RequestOutput`` /
    ``RequestMetrics`` objects (the names below are vLLM's own):

    * ``arrival_time`` — epoch or monotonic seconds (required);
    * ``num_prompt_tokens`` or ``prompt_token_ids`` (list) — prompt
      length (required, >= 1);
    * ``num_generated_tokens`` or ``token_ids`` (list) — total decode
      length (required, >= 1);
    * ``num_reasoning_tokens`` — optional reasoning split; defaults to 0
      (a non-reasoning model's log replays as pure answering);
    * ``request_id`` — optional tag kept in import order; ``model`` —
      optional, becomes the record's ``dataset`` label.

``openai``
    OpenAI-style API *response* logs — one chat/completions response
    object per line, as produced by client-side request logging:

    * ``created`` — epoch seconds (required);
    * ``usage.prompt_tokens`` and ``usage.completion_tokens`` (required);
    * ``usage.completion_tokens_details.reasoning_tokens`` — optional
      reasoning split (the o-series accounting field); defaults to 0;
    * ``model`` — optional, becomes the ``dataset`` label.

Conversion rules shared by both formats:

* timestamps are shifted so the earliest request arrives at ``t = 0`` and
  records are re-sorted by arrival (log order is completion order in most
  servers, not arrival order);
* ``completion`` tokens split into ``reasoning_len`` (the reported
  reasoning count, clamped to ``completion - 1``) and ``answer_len`` (the
  remainder — at least 1, since the trace schema requires a visible
  answer token);
* request ids are assigned ``0..n-1`` in arrival order (original ids are
  free-form strings and the trace schema wants unique ints).

Malformed lines are collected — not silently skipped — into
:class:`ImportReport.errors` as ``(line_no, message)`` pairs.  ``strict``
mode (the default) raises :class:`TraceImportError` on the first bad
line; lenient mode imports every valid line and reports the rest, so one
corrupt line does not discard a million-line log.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.workload.request import Request
from repro.workload.trace import IMPORT_FORMATS, dump_trace


class TraceImportError(ValueError):
    """An input log line failed conversion, with the line pinpointed."""

    def __init__(self, path: str | os.PathLike, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        self.message = message
        super().__init__(f"{path}:{line_no}: {message}")

    def __reduce__(self):
        # Mirror TraceFormatError: default pickling would replay __init__
        # with the formatted string and crash a multiprocessing unpickler.
        return (TraceImportError, (self.path, self.line_no, self.message))


@dataclass
class ImportReport:
    """Outcome of one import: converted requests plus per-line errors."""

    requests: list[Request] = field(default_factory=list)
    #: ``(line_no, message)`` for every line that failed conversion.
    errors: list[tuple[int, str]] = field(default_factory=list)
    n_lines: int = 0

    @property
    def n_imported(self) -> int:
        return len(self.requests)

    def error_summary(self, limit: int = 10) -> str:
        """Human-readable digest of the first ``limit`` errors."""
        lines = [
            f"line {line_no}: {message}"
            for line_no, message in self.errors[:limit]
        ]
        if len(self.errors) > limit:
            lines.append(f"... and {len(self.errors) - limit} more")
        return "\n".join(lines)


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _token_count(obj: dict, count_field: str, ids_field: str, name: str) -> int:
    """A token count given directly or as a token-id list (vLLM logs both)."""
    if count_field in obj:
        return _positive_int(obj[count_field], count_field)
    ids = obj.get(ids_field)
    if isinstance(ids, list) and ids:
        return len(ids)
    raise ValueError(f"missing {name}: need {count_field} or {ids_field}")


def _finite_time(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _split_completion(completion: int, reasoning, source: str) -> tuple[int, int]:
    """``(reasoning_len, answer_len)`` from a total completion count.

    The trace schema requires ``answer_len >= 1`` (a request must emit a
    visible token), so a log claiming the entire completion was reasoning
    is clamped to leave one answering token.
    """
    if reasoning is None:
        return 0, completion
    if isinstance(reasoning, bool) or not isinstance(reasoning, int):
        raise ValueError(f"{source} must be an integer, got {reasoning!r}")
    if reasoning < 0:
        raise ValueError(f"{source} must be >= 0, got {reasoning}")
    if reasoning > completion:
        raise ValueError(
            f"{source} ({reasoning}) exceeds completion tokens ({completion})"
        )
    reasoning = min(reasoning, completion - 1)
    return reasoning, completion - reasoning


#: Parsed-but-unshifted record: (arrival_time, prompt, reasoning, answer,
#: dataset).  Ids are assigned after the arrival sort.
_Parsed = tuple[float, int, int, int, str]


def _parse_vllm(obj: dict) -> _Parsed:
    arrival = _finite_time(obj.get("arrival_time"), "arrival_time")
    prompt = _token_count(
        obj, "num_prompt_tokens", "prompt_token_ids", "prompt length"
    )
    completion = _token_count(
        obj, "num_generated_tokens", "token_ids", "generated length"
    )
    reasoning, answer = _split_completion(
        completion, obj.get("num_reasoning_tokens"), "num_reasoning_tokens"
    )
    dataset = obj.get("model", "")
    if not isinstance(dataset, str):
        raise ValueError(f"model must be a string, got {dataset!r}")
    return arrival, prompt, reasoning, answer, dataset


def _parse_openai(obj: dict) -> _Parsed:
    arrival = _finite_time(obj.get("created"), "created")
    usage = obj.get("usage")
    if not isinstance(usage, dict):
        raise ValueError(f"usage must be an object, got {usage!r}")
    prompt = _positive_int(usage.get("prompt_tokens"), "usage.prompt_tokens")
    completion = _positive_int(
        usage.get("completion_tokens"), "usage.completion_tokens"
    )
    details = usage.get("completion_tokens_details") or {}
    if not isinstance(details, dict):
        raise ValueError(
            f"usage.completion_tokens_details must be an object, "
            f"got {details!r}"
        )
    reasoning, answer = _split_completion(
        completion,
        details.get("reasoning_tokens"),
        "usage.completion_tokens_details.reasoning_tokens",
    )
    dataset = obj.get("model", "")
    if not isinstance(dataset, str):
        raise ValueError(f"model must be a string, got {dataset!r}")
    return arrival, prompt, reasoning, answer, dataset


_PARSERS = {"vllm": _parse_vllm, "openai": _parse_openai}


def import_log(
    path: str | os.PathLike, fmt: str, strict: bool = True
) -> ImportReport:
    """Convert one real-format log file into trace-ready requests.

    ``fmt`` is one of :data:`IMPORT_FORMATS`.  In ``strict`` mode the
    first malformed line raises :class:`TraceImportError`; otherwise bad
    lines are recorded in the returned report and the rest import.  The
    result's requests are arrival-sorted, time-shifted to start at zero
    and re-numbered ``0..n-1`` (see the module docstring for the full
    conversion rules).
    """
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown import format {fmt!r}; expected one of "
            f"{', '.join(IMPORT_FORMATS)}"
        ) from None
    report = ImportReport()
    parsed: list[tuple[float, int, _Parsed]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            report.n_lines += 1
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(obj).__name__}"
                    )
                record = parser(obj)
            except (ValueError, TypeError) as exc:
                message = getattr(exc, "msg", None) or str(exc)
                if strict:
                    raise TraceImportError(path, line_no, message) from None
                report.errors.append((line_no, message))
                continue
            # Log order is completion order in most servers; remember the
            # line number so equal-arrival ties stay deterministic.
            parsed.append((record[0], line_no, record))
    parsed.sort(key=lambda item: (item[0], item[1]))
    t0 = parsed[0][0] if parsed else 0.0
    for rid, (arrival, _, (_, prompt, reasoning, answer, dataset)) in enumerate(
        parsed
    ):
        report.requests.append(
            Request(
                rid=rid,
                prompt_len=prompt,
                reasoning_len=reasoning,
                answer_len=answer,
                arrival_t=arrival - t0,
                dataset=dataset,
            )
        )
    return report


def import_to_trace(
    input_path: str | os.PathLike,
    output_path: str | os.PathLike,
    fmt: str,
    strict: bool = True,
) -> ImportReport:
    """Import a log and write the canonical JSONL trace in one call.

    Nothing is written when the import yields zero requests (an empty
    trace file would fail every downstream loader anyway); callers decide
    whether that is an error from the returned report.
    """
    report = import_log(input_path, fmt, strict=strict)
    if report.requests:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(dump_trace(report.requests))
    return report
