"""CLI behaviors: usage errors exit 2 with one-line messages, the cache
subcommand, target aliases."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness import cache
from repro.harness.__main__ import _cacheable_experiments, main
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.runner import (
    clear_caches,
    reset_simulation_count,
    restore_caches,
    snapshot_caches,
)
from repro.workload.datasets import ALPACA_EVAL
from repro.workload.trace import TraceConfig, build_trace, export_trace


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv("PASCAL_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    saved = snapshot_caches()
    clear_caches()
    yield
    cache.configure("off")
    restore_caches(saved)
    reset_simulation_count()


@pytest.fixture
def tiny_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    export_trace(
        build_trace(
            TraceConfig(
                dataset=ALPACA_EVAL, n_requests=8, arrival_rate_per_s=3.0, seed=5
            )
        ),
        path,
    )
    return str(path)


class TestUsageErrors:
    def test_trace_compare_unknown_policy_exits_2(self, tiny_trace, capsys):
        # Regression (ISSUE 3): an unknown --policies name must be a
        # one-line usage error on stderr with exit status 2, like every
        # other target — not a bare registry traceback.
        rc = main(
            [
                "trace-compare",
                "--trace",
                tiny_trace,
                "--policies",
                "pascal,nonexistent-policy",
                "--jobs",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(err_lines) == 1
        assert "unknown policy 'nonexistent-policy'" in err_lines[0]
        assert err_lines[0].startswith("trace-compare:")

    def test_unknown_experiment_mentions_new_targets(self, capsys):
        rc = main(["no-such-experiment"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "figures" in err and "cache" in err

    def test_cache_without_action_exits_2(self, capsys, tmp_path):
        rc = main(["cache", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "ls, prune, clear" in capsys.readouterr().err

    def test_cache_unknown_action_exits_2(self, capsys, tmp_path):
        rc = main(["cache", "evict", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "evict" in capsys.readouterr().err

    def test_invalid_env_cache_mode_exits_2(self, capsys, monkeypatch):
        # argparse `choices` only guards command-line values; an invalid
        # $REPRO_CACHE default must still be a one-line usage error.
        monkeypatch.setenv("REPRO_CACHE", "bogus")
        rc = main(["fig2", "--jobs", "1"])
        assert rc == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 1
        assert "'bogus'" in err_lines[0]

    def test_bench_is_an_unknown_experiment(
        self, capsys, tmp_path, monkeypatch
    ):
        # The simulator benchmark is perfbench/, not a harness target:
        # `bench` fails as a usage error and writes nothing.
        monkeypatch.chdir(tmp_path)
        rc = main(["bench"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment(s) 'bench'" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestCacheSubcommand:
    def test_ls_prune_clear_on_empty_store(self, tmp_path, capsys):
        d = str(tmp_path / "store")
        assert main(["cache", "ls", "--cache-dir", d]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", d]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", d]) == 0
        assert "cleared 0" in capsys.readouterr().out


class TestFiguresAlias:
    def test_cacheable_set_is_exactly_the_cell_backed_specs(self):
        assert _cacheable_experiments() == sorted(
            name
            for name, spec in ALL_EXPERIMENTS.items()
            if spec.cells is not None
        )
        # Build-only figures (inline sims or pure synthesis) are excluded:
        # the store cannot serve them end-to-end.
        for excluded in ("fig2", "fig8", "fig14", "sec5a"):
            assert excluded not in _cacheable_experiments()


class TestPoolKnob:
    def test_parse_pool_forms(self):
        from repro.config import PoolSpec
        from repro.harness.__main__ import _parse_pool

        assert _parse_pool("2") == PoolSpec(
            express_instances=2,
            express_threshold_tokens=PoolSpec().express_threshold_tokens,
        )
        assert _parse_pool("3:500") == PoolSpec(
            express_instances=3, express_threshold_tokens=500
        )
        for junk in ("", "x", "2:", "2:x", "-1", "2:-5"):
            with pytest.raises(ValueError):
                _parse_pool(junk)

    def test_trace_compare_bad_pool_exits_2(self, tiny_trace, capsys):
        rc = main(
            ["trace-compare", "--trace", tiny_trace, "--pool", "bogus"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "--pool" in captured.err
        assert captured.err.count("\n") == 1

    def test_shards_below_one_exits_2(self, tiny_trace, capsys):
        rc = main(["trace-compare", "--trace", tiny_trace, "--shards", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "--shards must be >= 1, got 0\n"

    def test_sharded_replay_of_malformed_trace_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # Regression: the shards' own TraceFormatError must reach the
        # usage-error handler, as it does unsharded, instead of a
        # "shard worker failed" traceback.  main() exports --shards to
        # the environment; setenv restores it on teardown.
        monkeypatch.setenv("REPRO_SHARDS", "1")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"format": "pascal-trace", "version": 1}\n'
            '{"id": 0, "arrival_t": 0.5, "prompt_len": 40, '
            '"reasoning_len": 20, "answer_len": 10}\n'
            "nope\n"
        )
        rc = main(
            [
                "trace-compare",
                "--trace",
                str(bad),
                "--policies",
                "pascal",
                "--jobs",
                "1",
                "--shards",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("trace-compare:")
        assert "bad.jsonl:3: invalid JSON" in captured.err

    def test_trace_compare_with_pool_runs_tiered_policy(
        self, tiny_trace, capsys
    ):
        rc = main(
            [
                "trace-compare",
                "--trace",
                tiny_trace,
                "--pool",
                "2:400",
                "--policies",
                "tiered-express",
                "--jobs",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "tiered-express" in captured.out


class TestServe:
    def test_serve_streams_events_and_summarizes(self, tiny_trace, capsys):
        rc = main(["serve", "--trace", tiny_trace, "--jobs", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "admit" in captured.out
        assert "first-token" in captured.out
        assert "complete" in captured.out
        assert "served 8 requests (0 rejected, 0 cancelled)" in captured.out
        assert "under pascal" in captured.out
        assert "serve: final submitted=8 completed=8" in captured.out

    def test_serve_quiet_prints_only_summary(self, tiny_trace, capsys):
        rc = main(["serve", "--trace", tiny_trace, "--quiet"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "admit" not in captured.out
        assert "served 8 requests" in captured.out

    def test_serve_admit_max_rejects_and_accounts(self, tiny_trace, capsys):
        rc = main(
            ["serve", "--trace", tiny_trace, "--quiet", "--admit-max", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        # 8 submitted = completed + rejected; with a 1-deep gate on this
        # bursty trace, at least one arrival must have been turned away.
        assert "rejected," in captured.out
        assert "(0 rejected," not in captured.out
        assert "rejected=0" not in captured.out

    def test_serve_bad_pool_exits_2(self, tiny_trace, capsys):
        rc = main(["serve", "--trace", tiny_trace, "--pool", "2:x"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("serve: --pool")

    def test_serve_shards_above_one_exits_2(
        self, tiny_trace, capsys, monkeypatch
    ):
        # Regression: serve simulates one unsharded session, so --shards 2
        # used to be dropped silently.
        monkeypatch.setenv("REPRO_SHARDS", "1")
        rc = main(["serve", "--trace", tiny_trace, "--quiet", "--shards", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("serve: --shards 2")

    def test_serve_without_trace_exits_2(self, capsys):
        rc = main(["serve"])
        assert rc == 2
        assert "--trace" in capsys.readouterr().err

    def test_serve_unknown_policy_exits_2(self, tiny_trace, capsys):
        rc = main(["serve", "--trace", tiny_trace, "--policy", "nope"])
        captured = capsys.readouterr()
        assert rc == 2
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("serve:")

    def test_serve_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["serve", "--trace", str(tmp_path / "none.jsonl")])
        assert rc == 2
        assert "serve:" in capsys.readouterr().err

    def test_serve_restores_the_sigterm_handler(self, tiny_trace):
        # A leaked SIGTERM -> KeyboardInterrupt handler is inherited by
        # workers the process forks later; Pool.terminate() could then
        # lose its SIGTERM and hang joining a worker.
        before = signal.getsignal(signal.SIGTERM)
        assert main(["serve", "--trace", tiny_trace, "--quiet"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_serve_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "pascal-trace", "version": 1}\nnope\n')
        rc = main(["serve", "--trace", str(bad), "--quiet"])
        assert rc == 2
        assert "bad.jsonl:2" in capsys.readouterr().err


def truncated_with_bad_line(trace: str, tmp_path) -> str:
    """``trace``'s header and first two records, then ``nope`` on line 4:
    attaching reads only the first record, so the pacer meets it."""
    lines = Path(trace).read_text().splitlines(keepends=True)[:3]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines) + "nope\n")
    return str(bad)


class TestRealtimeMalformedTrace:
    """A malformed record past line 1 is a usage error in the paced modes
    too: one ``serve:`` line naming file and line, then exit 2."""

    def test_paced_replay_exits_2(self, tiny_trace, tmp_path, capsys):
        bad = truncated_with_bad_line(tiny_trace, tmp_path)
        rc = main(
            ["serve", "--realtime", "--time-scale", "1000", "--trace", bad,
             "--quiet"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"serve: {bad}:4: invalid JSON")
        assert "serve: final" not in captured.out

    def test_gateway_ends_when_pacing_fails(self, tiny_trace, tmp_path):
        # A server whose pacing task died can answer nothing, so it must
        # exit rather than keep accepting connections.  In a subprocess
        # with a timeout, so a server that stays up fails the test
        # instead of blocking the suite.
        bad = truncated_with_bad_line(tiny_trace, tmp_path)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.harness", "serve", "--realtime",
             "--time-scale", "1000", "--trace", bad, "--quiet",
             "--port", "0"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stderr.startswith(f"serve: {bad}:4: invalid JSON")
        assert "serve: final" not in result.stdout


class TestImportTrace:
    def test_import_then_replay_round_trip(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(
            json.dumps(
                {
                    "arrival_time": 12.0,
                    "num_prompt_tokens": 9,
                    "num_generated_tokens": 7,
                    "num_reasoning_tokens": 3,
                }
            )
            + "\n"
        )
        out = tmp_path / "trace.jsonl"
        rc = main(
            [
                "import-trace",
                "--format",
                "vllm",
                "--input",
                str(log),
                "--output",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "imported 1/1 requests (vllm)" in captured.out
        rc = main(["serve", "--trace", str(out), "--quiet"])
        assert rc == 0
        assert "served 1 requests" in capsys.readouterr().out

    def test_import_missing_args_exits_2(self, capsys):
        rc = main(["import-trace", "--format", "vllm"])
        assert rc == 2
        assert "--input" in capsys.readouterr().err

    def test_import_strict_failure_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("garbage\n")
        rc = main(
            [
                "import-trace",
                "--format",
                "openai",
                "--input",
                str(log),
                "--output",
                str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 2
        assert "log.jsonl:1" in capsys.readouterr().err

    def test_import_skip_malformed_reports_but_succeeds(
        self, tmp_path, capsys
    ):
        log = tmp_path / "log.jsonl"
        log.write_text(
            "garbage\n"
            + json.dumps(
                {
                    "created": 5,
                    "usage": {"prompt_tokens": 4, "completion_tokens": 6},
                }
            )
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        rc = main(
            [
                "import-trace",
                "--format",
                "openai",
                "--input",
                str(log),
                "--output",
                str(out),
                "--skip-malformed",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "imported 1/2" in captured.out
        assert "skipped 1 malformed" in captured.err

    def test_import_all_malformed_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("garbage\n")
        rc = main(
            [
                "import-trace",
                "--format",
                "openai",
                "--input",
                str(log),
                "--output",
                str(tmp_path / "out.jsonl"),
                "--skip-malformed",
            ]
        )
        assert rc == 2
        assert "no importable requests" in capsys.readouterr().err


class TestMaxBytesPrune:
    def test_prune_with_budget_reports_it(self, tmp_path, capsys):
        rc = main(
            [
                "cache",
                "prune",
                "--cache-dir",
                str(tmp_path / "store"),
                "--max-bytes",
                "1000",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "budget 1,000 bytes" in captured.out

    def test_prune_negative_budget_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "cache",
                "prune",
                "--cache-dir",
                str(tmp_path / "store"),
                "--max-bytes",
                "-3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "max_bytes" in captured.err
