"""The benchmark's own tests (tiny sizes; about a minute).

    python3 -m pytest perfbench/tests/selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import gateway  # noqa: E402
import sim  # noqa: E402
from common import ensure_repro_importable, load_definitions  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402

ensure_repro_importable()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Deterministic per-layer counters: equal across runs of one seed.
COUNTERS = (
    "sim.events",
    "sim.schedules",
    "core.place_calls",
    "core.transition_calls",
    "monitor.census_calls",
    "schedulers.reforms",
    "serving.decode_steps",
    "serving.prefill_steps",
    "serving.epochs",
    "serving.sync_calls",
    "serving.bulk_token_share",
    "memory.lookups",
    "memory.swap_out_tokens",
    "memory.swap_in_tokens",
    "cluster.migrations",
    "perfmodel.calls",
)


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(sim, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(gateway, "SETUP_SAMPLES", 2)


def tiny(name: str) -> dict:
    wl = dict(load_definitions()["workloads"][name])
    if wl["kind"] == "sim":
        wl["requests_per_session"] = 60
    else:
        wl["requests_per_window"] = 40
    return wl


def test_metric_names_are_well_formed():
    names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert PER_LAYER == list(PER_LAYER_UNITS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(
        load_definitions()["workloads"]
    )


@pytest.mark.parametrize("name", ["short-saturated", "reasoning-kvbound"])
def test_simulator_smoke(name, capsys):
    result = sim.run(name, tiny(name), seed=3, seconds=0.5)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced = sim.run_traced(name, tiny(name), seed=3, seconds=0.5)
    assert traced["correct"]
    assert list(traced["metrics"]) == PER_LAYER
    assert "digest" in capsys.readouterr().out


def test_gateway_smoke():
    wl = tiny("gateway-sse")
    result = gateway.run("gateway-sse", wl, seed=3, seconds=1.0)
    assert result["correct"] and result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced = gateway.run_traced("gateway-sse", wl, seed=3, seconds=1.0)
    assert traced["correct"]
    assert list(traced["metrics"]) == PER_LAYER
    assert traced["metrics"]["serve.polls_per_req"]["value"] > 0


def test_sliced_clock_rescales_each_slice():
    class Halving:
        def factor(self):
            time.sleep(0.01)  # the reference's own run time
            return 0.5

    begin = time.perf_counter()
    clock = calibrate.SlicedClock(Halving())
    time.sleep(0.02)
    inside = time.perf_counter()
    clock.cut()
    time.sleep(0.02)
    clock.cut()
    end = time.perf_counter()
    assert 0 < clock.normalise(inside) < clock.elapsed
    # Two slices of at least 0.02 s at half weight; reference time left out.
    assert 0.02 <= clock.elapsed <= (end - begin - 0.02) * 0.5


def test_counters_repeat_exactly():
    wl = tiny("short-saturated")
    runs = [sim.run_traced("short-saturated", wl, seed=5, seconds=0.1) for _ in range(2)]
    for key in COUNTERS:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
    assert runs[0]["metrics"]["cluster.migrations"]["value"] > 0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
