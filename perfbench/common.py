"""Shared plumbing for the benchmark: paths, workload definitions, stats,
output checks and the result line.

The benchmark drives the repository only through its public surfaces
(``repro.api`` and the ``python -m repro.harness serve`` CLI), importing
the package from the checkout's ``src/`` directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output (span dumps); git-ignored.
OUT_DIR = ROOT / ".perfbench_out"

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package to import)."""


def ensure_repro_importable() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` or raise SetupError."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child Python processes: the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def load_definitions() -> dict:
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return list(load_definitions()["workloads"])


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def request_digest(requests) -> str:
    """SHA-256 over every request's ``(rid, first_answer_t, done_t)`` in
    rid order; floats enter as ``repr``, so the digest is exact."""
    h = hashlib.sha256()
    for req in sorted(requests, key=lambda r: r.rid):
        h.update(f"{req.rid},{req.first_answer_t!r},{req.done_t!r}\n".encode())
    return h.hexdigest()


def check_session(session, expected_submitted: int | None = None) -> list[str]:
    """Post-drain output checks on a simulator session; returns problems.

    All requests resolved, the conservation law
    ``submitted == completed + rejected + cancelled``, every instance's
    running counters consistent with its registries, and (when given)
    the number of submissions.
    """
    problems: list[str] = []
    cluster = session.cluster
    if not cluster.all_finished():
        problems.append(
            f"not drained: {session.n_in_flight} of "
            f"{session.n_submitted} still in flight"
        )
    resolved = session.n_completed + session.n_rejected + session.n_cancelled
    if resolved != session.n_submitted:
        problems.append(
            f"conservation: {session.n_submitted} submitted != "
            f"{resolved} resolved"
        )
    if expected_submitted is not None and session.n_submitted != expected_submitted:
        problems.append(
            f"expected {expected_submitted} submissions, "
            f"saw {session.n_submitted}"
        )
    for inst in cluster.instances:
        try:
            inst.check_invariants()
        except AssertionError as exc:
            problems.append(f"instance {inst.iid}: {exc}")
    return problems


def slo_met(metrics, slo) -> int:
    """Completed requests whose answering QoE met the SLO.

    Divided by the *submitted* count this is ``sim_slo_attain``: requests
    that never completed count as misses.
    """
    report = metrics.slo_report(slo)
    return report.n_requests - report.n_violations


def peak_rss_mb() -> float:
    """Peak resident set of this process (MiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Collects metric values with units and sample counts, then prints
    the human-readable lines and the final JSON result line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, str] = {}
        self.notes: list[str] = []

    def put(self, name: str, value: float, unit: str, samples: str) -> None:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.samples[name] = samples

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self, attempted: int, failed: int, problems: list[str]) -> dict:
        for line in self.notes:
            print(f"{self.workload}: {line}")
        for problem in problems:
            print(f"{self.workload}: CHECK FAILED: {problem}")
        failed_frac = failed / attempted if attempted else 1.0
        print(
            f"{self.workload}: failed_frac {failed_frac:.6g} frac "
            f"({failed} of {attempted} attempted)"
        )
        for name, entry in self.metrics.items():
            print(
                f"{self.workload}: {name} {entry['value']:.6g} "
                f"{entry['unit']} (n={self.samples[name]})"
            )
        result = {
            "correct": not problems and failed == 0,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": self.metrics,
        }
        print(json.dumps(result), flush=True)
        return result
