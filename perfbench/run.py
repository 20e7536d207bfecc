"""Regime x layer benchmark of the PASCAL simulator and its HTTP gateway.

Run from the repository root::

    python3 perfbench/run.py --workload short-saturated --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that attributes the cost to the repository's
modules.  The last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SetupError,
    ensure_repro_importable,
    load_definitions,
    workload_names,
)


def run_one(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    wl = load_definitions()["workloads"][workload]
    if seed is None:
        seed = wl["default_seed"]
    if wl["kind"] == "gateway":
        import gateway as runner
    else:
        import sim as runner
    if trace:
        return runner.run_traced(workload, wl, seed, seconds)
    return runner.run(workload, wl, seed, seconds)


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    rows = []
    status = 0
    for workload in workload_names():
        cmd = [
            sys.executable,
            __file__,
            "--workload",
            workload,
            "--seconds",
            repr(args.seconds),
            "--trace",
            str(args.trace),
        ]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, entry in result["metrics"].items():
            rows.append((workload, name, entry["value"], entry["unit"]))
        rows.append(
            (workload, "failed_frac", result["failed"] / result["attempted"], "frac")
        )
    width = max(len(r[1]) for r in rows) if rows else 0
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:<18} {name:<{width}} {value:>14.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        ensure_repro_importable()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import sim

        sim.setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
