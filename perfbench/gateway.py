"""The ``gateway-sse`` workload: the HTTP gateway under closed-loop SSE load.

Untraced runs host :class:`repro.serve.Gateway` (a
:class:`~repro.serve.WallClockPacer` over a ``ServingSession``, with the
:class:`~repro.serve.HeaderOracle`) on a loopback port and drive it with
:mod:`client` from the same event loop, in windows of a fixed request
count, each normalised by the host-speed reference timed around it (see
:mod:`calibrate`), until the budget is spent.  One process and one
thread do all the work, so the reference speaks for the whole run.  The
set-up time is that of the ``python -m repro.harness serve --realtime
--port 0`` CLI: spawn until its port banner; every spawned server must
then exit 0 on SIGTERM with its final accounting line.

Traced runs wrap the gateway's pacer, oracle and session and run the
client as a child process, so the serving process's CPU time is the
gateway's alone.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import re
import signal
import subprocess
import sys
import time

import client
from calibrate import HostSpeed, normalised_setups
from common import (
    BENCH_DIR,
    OUT_DIR,
    SETUP_SAMPLES,
    Report,
    check_session,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    request_digest,
    slo_met,
)

HOST = client.HOST


def serve_command(wl: dict) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.harness",
        "serve",
        "--realtime",
        "--port",
        "0",
        "--host",
        HOST,
        "--policy",
        wl["policy"],
        "--time-scale",
        repr(wl["time_scale"]),
        "--oracle",
        "header",
        "--quiet",
    ]


def models_check(port: int) -> list[str]:
    """``GET /v1/models`` must answer 200 with the simulated model."""
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        conn.request("GET", "/v1/models")
        resp = conn.getresponse()
        body = json.loads(resp.read())
    except (OSError, ValueError) as exc:
        return [f"GET /v1/models: {exc!r}"]
    finally:
        conn.close()
    if resp.status != 200 or not body.get("data"):
        return [f"GET /v1/models: {resp.status} {body!r}"]
    return []


def spawn_server(wl: dict) -> tuple[float, list[str]]:
    """Start the CLI server, query it, stop it; (spawn-to-banner seconds,
    problems)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        serve_command(wl),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    problems = []
    try:
        banner = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            problems.append(f"no port banner from the server: {banner!r}")
        else:
            # An answer also means its signal handlers are installed.
            problems += models_check(int(match.group(1)))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    if proc.returncode != 0 or "serve: final" not in out:
        problems.append(f"server exit {proc.returncode}: {out[-300:]!r}")
    return elapsed, problems


async def start_gateway(wl: dict, tracer=None):
    """A started in-process gateway over a fresh session."""
    from repro.api import ServingSession
    from repro.serve import Gateway, HeaderOracle, WallClockPacer

    from layers import instrument, instrument_serve
    from sim import cluster_config

    session = ServingSession(policy=wl["policy"], config=cluster_config())
    pacer = WallClockPacer(session, time_scale=wl["time_scale"])
    gateway = Gateway(pacer, HeaderOracle(), host=HOST, port=0)
    if tracer is not None:
        instrument(session, tracer)
        instrument_serve(gateway, tracer)
    await gateway.start()
    return gateway


async def stop_gateway(gateway):
    """Stop the gateway and finish the session; returns it."""
    from repro.serve import fast_forward_drain

    await gateway.stop()
    session = gateway.pacer.session
    fast_forward_drain(session, 30.0)
    return session


def http_checks(outcomes: list[list]) -> tuple[int, list[str]]:
    """Failed count and the first few failure reasons."""
    bad = [o for o in outcomes if not o[1]]
    return len(bad), [f"http: {o[4]}" for o in bad[:5]]


async def _load(wl: dict, seed: int, seconds: float, host: HostSpeed):
    """Windows of closed-loop load on an in-process gateway.

    Returns (session, outcomes, normalised window rates, normalised wall
    TTFTs in ms, peak RSS after the first window).
    """
    k = wl["requests_per_window"]
    gateway = await start_gateway(wl)
    outcomes: list[list] = []
    windows: list[float] = []
    rates: list[float] = []
    wall_ttfts: list[float] = []
    rss = None
    try:
        deadline = time.perf_counter() + seconds
        while len(windows) < 3 or time.perf_counter() + median(windows) <= deadline:
            gc.collect()
            start = time.perf_counter()
            batch = await client.drive(
                gateway.bound_port,
                seed,
                wl["connections"],
                wl,
                requests=k,
                window=len(windows),
            )
            elapsed = time.perf_counter() - start
            if rss is None:  # peak over set-up plus exactly k requests
                rss = peak_rss_mb()
            factor = host.factor()
            windows.append(elapsed)
            ok = [o for o in batch if o.ok]
            rates.append(len(ok) / (elapsed * factor))
            wall_ttfts += [o.ttft_s * factor * 1e3 for o in ok]
            outcomes += [o.as_list() for o in batch]
    finally:
        session = await stop_gateway(gateway)
    return session, outcomes, rates, wall_ttfts, rss


def run(workload: str, wl: dict, seed: int, seconds: float) -> dict:
    report = Report(workload)
    problems: list[str] = []

    def setup_once() -> float:
        elapsed, spawn_problems = spawn_server(wl)
        problems.extend(spawn_problems)
        return elapsed

    setup = normalised_setups(setup_once, SETUP_SAMPLES)
    session, outcomes, rates, wall_ttfts, rss = asyncio.run(
        _load(wl, seed, seconds, HostSpeed())
    )
    failed, http_problems = http_checks(outcomes)
    problems += http_problems
    problems += check_session(session, expected_submitted=len(outcomes))
    metrics = session.metrics()

    k = wl["requests_per_window"]
    sim_ttfts = sorted(metrics.ttfts())
    wall_ttfts.sort()
    n_http = f"{len(wall_ttfts)} streams"
    report.note(
        f"digest {request_digest(session.cluster.submitted)} "
        "(live arrival times: not repeatable across runs)"
    )
    report.put("setup_s", median(setup), "s", f"{len(setup)} spawns")
    report.put(
        "req_per_s", median(rates), "1/s", f"median of {len(rates)} windows x {k}"
    )
    report.put("peak_rss_mb", rss, "MB", f"after {k} requests")
    report.put("sim_ttft_p50_s", percentile(sim_ttfts, 50), "s", n_http)
    report.put("sim_ttft_p99_s", percentile(sim_ttfts, 99), "s", n_http)
    report.put(
        "sim_slo_attain",
        slo_met(metrics, session.config.slo) / len(outcomes),
        "frac",
        f"{len(outcomes)} sent",
    )
    report.put("wall_ttft_p50_ms", percentile(wall_ttfts, 50), "ms", n_http)
    report.put("wall_ttft_p99_ms", percentile(wall_ttfts, 99), "ms", n_http)
    return report.emit(len(outcomes), failed, problems)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
async def _serve_to_child(wl: dict, seed: int, seconds: float, tracer=None):
    """Host the gateway here, load it from a client child process.

    Returns (session, client outcomes, window s, CPU s of this process).
    """
    gateway = await start_gateway(wl, tracer)
    shapes = {k: wl[k] for k in ("prompt_tokens", "reasoning_tokens", "answer_tokens")}
    cpu = time.process_time()
    child = await asyncio.create_subprocess_exec(
        sys.executable,
        str(BENCH_DIR / "client.py"),
        "--port",
        str(gateway.bound_port),
        "--seconds",
        repr(seconds),
        "--seed",
        str(seed),
        "--connections",
        str(wl["connections"]),
        "--shapes",
        json.dumps(shapes),
        stdout=asyncio.subprocess.PIPE,
        env=child_env(),
    )
    try:
        out, _ = await child.communicate()
    finally:
        if child.returncode is None:
            child.kill()
            await child.wait()
    cpu = time.process_time() - cpu
    session = await stop_gateway(gateway)
    summary = json.loads(out.decode().splitlines()[-1])
    return session, summary["outcomes"], summary["elapsed_s"], cpu


def run_traced(workload: str, wl: dict, seed: int, seconds: float) -> dict:
    from layers import PER_LAYER_UNITS, layer_metrics
    from tracer import Tracer

    report = Report(workload)
    half = seconds / 2.0

    gc.collect()
    _, base, base_window, _ = asyncio.run(_serve_to_child(wl, seed, half))
    base_ok = sum(1 for o in base if o[1])
    tracer = Tracer()
    gc.collect()
    session, outcomes, window, cpu = asyncio.run(
        _serve_to_child(wl, seed, half, tracer)
    )
    failed, problems = http_checks(base + outcomes)
    problems += check_session(session, expected_submitted=len(outcomes))

    ok = [o for o in outcomes if o[1]]
    layers = layer_metrics(session, tracer, len(ok))
    by_rid = {r.rid: r for r in session.cluster.submitted}
    scale = wl["time_scale"]
    overhead = sorted(
        (o[2] - by_rid[o[0]].ttft() / scale) * 1e3 for o in ok
    )
    traced_rate = len(ok) / window
    base_rate = base_ok / base_window
    layers.update(
        {
            "serve.gateway_self_s": max(
                0.0, cpu - layers["serve.poll_s"] - layers["serve.oracle_s"]
            ),
            "serve.bytes_per_req": sum(o[3] for o in ok) / len(ok),
            "serve.overhead_ms_p50": percentile(overhead, 50),
            "trace.overhead_frac": base_rate / traced_rate - 1.0,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.tsv")
    n = f"{len(ok)} traced streams"
    for name, unit in PER_LAYER_UNITS.items():
        report.put(name, layers[name], unit, n)
    return report.emit(len(base) + len(outcomes), failed, problems)
