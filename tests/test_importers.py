"""Trace importers: vLLM / OpenAI-style logs -> canonical JSONL traces."""

from __future__ import annotations

import json

import pytest

from repro.workload.importers import (
    IMPORT_FORMATS,
    ImportReport,
    TraceImportError,
    import_log,
    import_to_trace,
)
from repro.workload.trace import load_trace


def write_lines(path, lines):
    path.write_text(
        "\n".join(
            json.dumps(line) if not isinstance(line, str) else line
            for line in lines
        )
        + "\n",
        encoding="utf-8",
    )


VLLM_OK = [
    {
        "request_id": "cmpl-b",
        "arrival_time": 1000.5,
        "num_prompt_tokens": 80,
        "num_generated_tokens": 220,
        "num_reasoning_tokens": 150,
        "model": "r1-32b",
    },
    {
        "request_id": "cmpl-a",
        "arrival_time": 1000.0,
        "prompt_token_ids": [1, 2, 3, 4],
        "token_ids": [5, 6, 7],
    },
]

OPENAI_OK = [
    {
        "id": "chatcmpl-1",
        "created": 50,
        "model": "o4-mini",
        "usage": {
            "prompt_tokens": 30,
            "completion_tokens": 90,
            "completion_tokens_details": {"reasoning_tokens": 60},
        },
    },
    {
        "id": "chatcmpl-2",
        "created": 40,
        "model": "o4-mini",
        "usage": {"prompt_tokens": 12, "completion_tokens": 40},
    },
]


def test_vllm_import_sorts_shifts_and_splits(tmp_path):
    log = tmp_path / "vllm.jsonl"
    write_lines(log, VLLM_OK)
    report = import_log(log, "vllm")
    assert report.n_lines == 2 and report.n_imported == 2
    first, second = report.requests
    # Re-sorted by arrival, shifted to t=0, renumbered 0..n-1.
    assert (first.rid, first.arrival_t) == (0, 0.0)
    assert (second.rid, second.arrival_t) == (1, 0.5)
    # cmpl-a: token-id lists, no reasoning split -> pure answering.
    assert (first.prompt_len, first.reasoning_len, first.answer_len) == (4, 0, 3)
    # cmpl-b: explicit counts, reasoning carved out of the completion.
    assert (second.prompt_len, second.reasoning_len, second.answer_len) == (
        80, 150, 70,
    )
    assert second.dataset == "r1-32b" and first.dataset == ""


def test_openai_import_reads_usage_and_reasoning_details(tmp_path):
    log = tmp_path / "oai.jsonl"
    write_lines(log, OPENAI_OK)
    report = import_log(log, "openai")
    first, second = report.requests
    # chatcmpl-2 (created 40) arrives first.
    assert (first.prompt_len, first.reasoning_len, first.answer_len) == (
        12, 0, 40,
    )
    assert (second.prompt_len, second.reasoning_len, second.answer_len) == (
        30, 60, 30,
    )
    assert first.arrival_t == 0.0 and second.arrival_t == 10.0


def test_all_reasoning_completion_keeps_one_answer_token(tmp_path):
    log = tmp_path / "oai.jsonl"
    write_lines(
        log,
        [
            {
                "created": 1,
                "usage": {
                    "prompt_tokens": 5,
                    "completion_tokens": 10,
                    "completion_tokens_details": {"reasoning_tokens": 10},
                },
            }
        ],
    )
    (req,) = import_log(log, "openai").requests
    assert (req.reasoning_len, req.answer_len) == (9, 1)


def test_strict_mode_raises_with_line_number(tmp_path):
    log = tmp_path / "vllm.jsonl"
    write_lines(log, [VLLM_OK[0], "not json"])
    with pytest.raises(TraceImportError) as exc:
        import_log(log, "vllm")
    assert exc.value.line_no == 2
    assert str(log) in str(exc.value)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"arrival_time": "x", "num_prompt_tokens": 1,
          "num_generated_tokens": 1}, "arrival_time"),
        ({"arrival_time": 1.0, "num_generated_tokens": 1}, "prompt"),
        ({"arrival_time": 1.0, "num_prompt_tokens": 0,
          "num_generated_tokens": 1}, "num_prompt_tokens"),
        ({"arrival_time": 1.0, "num_prompt_tokens": 2,
          "num_generated_tokens": 5, "num_reasoning_tokens": 9},
         "exceeds completion"),
        ([1, 2], "JSON object"),
    ],
)
def test_lenient_mode_reports_each_malformed_line(tmp_path, bad, message):
    log = tmp_path / "vllm.jsonl"
    write_lines(log, [VLLM_OK[0], bad])
    report = import_log(log, "vllm", strict=False)
    assert report.n_imported == 1
    assert len(report.errors) == 1
    line_no, text = report.errors[0]
    assert line_no == 2 and message in text
    assert message in report.error_summary()


def test_blank_lines_ignored_not_counted(tmp_path):
    log = tmp_path / "vllm.jsonl"
    log.write_text(
        "\n" + json.dumps(VLLM_OK[0]) + "\n\n", encoding="utf-8"
    )
    report = import_log(log, "vllm")
    assert report.n_lines == 1 and report.n_imported == 1


def test_unknown_format_rejected(tmp_path):
    log = tmp_path / "x.jsonl"
    log.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown import format"):
        import_log(log, "sglang")
    assert IMPORT_FORMATS == ("openai", "vllm")


def test_the_cli_format_list_matches_the_parsers():
    # The CLI's --format choices come from the trace module, which the
    # parser reads without loading this one.
    from repro.workload.importers import _PARSERS

    assert tuple(sorted(_PARSERS)) == IMPORT_FORMATS


def test_import_to_trace_round_trips_through_loader(tmp_path):
    log = tmp_path / "vllm.jsonl"
    out = tmp_path / "trace.jsonl"
    write_lines(log, VLLM_OK)
    report = import_to_trace(log, out, "vllm")
    loaded = load_trace(out)
    assert [(r.rid, r.prompt_len, r.reasoning_len, r.answer_len)
            for r in loaded] == [
        (r.rid, r.prompt_len, r.reasoning_len, r.answer_len)
        for r in report.requests
    ]


def test_import_to_trace_empty_writes_nothing(tmp_path):
    log = tmp_path / "empty.jsonl"
    out = tmp_path / "trace.jsonl"
    log.write_text("", encoding="utf-8")
    report = import_to_trace(log, out, "openai")
    assert isinstance(report, ImportReport)
    assert report.n_imported == 0
    assert not out.exists()


def test_import_error_pickles_cleanly():
    import pickle

    err = TraceImportError("f.jsonl", 7, "bad")
    clone = pickle.loads(pickle.dumps(err))
    assert (clone.path, clone.line_no, clone.message) == ("f.jsonl", 7, "bad")
