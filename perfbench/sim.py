"""The simulator workloads: ``ServingSession`` + ``SyntheticSource``.

One *session* simulates the workload's fixed request count from one seed
and drains it.  A run derives ``seeds_per_run`` session seeds from its
``--seed`` and cycles sessions over them until its time budget is spent.
Simulated metrics pool the first session of every seed; wall metrics
pool every session; every repeat must reproduce its seed's digest
exactly.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

from calibrate import HostSpeed, SlicedClock, normalised_setups
from common import (
    BENCH_DIR,
    SETUP_SAMPLES,
    Report,
    check_session,
    child_env,
    load_definitions,
    median,
    peak_rss_mb,
    percentile,
    request_digest,
    slo_met,
)


def build_dataset(spec):
    """A dataset from its definition: a registered name, the Fig-16 mix,
    or an inline length model."""
    from repro.workload.datasets import (
        DatasetSpec,
        LengthSpec,
        get_dataset,
        reasoning_heavy_mix,
    )

    if spec == "reasoning-heavy-mix":
        return reasoning_heavy_mix()
    if isinstance(spec, str):
        return get_dataset(spec)
    return DatasetSpec(
        name=spec["name"],
        prompt=LengthSpec(**spec["prompt"]),
        reasoning=LengthSpec(**spec["reasoning"]),
        answering=LengthSpec(**spec["answering"]),
    )


def cluster_config():
    from repro.config import ClusterConfig, InstanceConfig

    shape = load_definitions()["cluster"]
    return ClusterConfig(
        n_instances=shape["n_instances"],
        instance=InstanceConfig(kv_capacity_tokens=shape["kv_capacity_tokens"]),
    )


def make_session(wl: dict, seed: int, n_requests: int | None = None, wrap=None):
    """A ready-to-drain session for workload ``wl``.

    ``wrap`` may replace the arrival source (the traced run's hook).
    """
    from repro.api import ServingSession, SyntheticSource
    from repro.workload.trace import TraceConfig

    session = ServingSession(policy=wl["policy"], config=cluster_config())
    source = SyntheticSource(
        TraceConfig(
            dataset=build_dataset(wl["dataset"]),
            n_requests=n_requests or wl["requests_per_session"],
            arrival_rate_per_s=wl["rate_per_s"],
            seed=seed,
        )
    )
    session.attach(wrap(source) if wrap is not None else source)
    return session


def wall_ttft_subscriber(clock: SlicedClock | None):
    """Subscriber stamping admission and first answer token on the wall
    clock; it also ticks ``clock``, so the reference runs between
    events."""
    from repro.api import SessionSubscriber

    stamp = time.perf_counter
    tick = clock.tick if clock is not None else lambda: None

    class WallTTFT(SessionSubscriber):
        def __init__(self):
            self.admitted: dict[int, float] = {}
            self.first: dict[int, float] = {}

        def on_admit(self, handle, now, instance_id):
            tick()
            self.admitted[handle.rid] = stamp()

        def on_first_token(self, handle, now):
            tick()
            self.first[handle.rid] = stamp()

    return WallTTFT()


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body of one set-up sample: import, build, report."""
    wl = load_definitions()["workloads"][workload]
    make_session(wl, seed)
    print("ready", flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Process start -> session built, in a fresh interpreter."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--setup-probe",
        workload,
        "--seed",
        str(seed),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def run_session(wl: dict, seed: int, host: HostSpeed | None = None):
    """One untraced session: (seconds, session, metrics, wall TTFT by rid).

    With ``host`` the seconds and TTFTs are normalised slice by slice
    (see :class:`calibrate.SlicedClock`); without, they are raw.
    """
    gc.collect()
    clock = SlicedClock(host) if host is not None else None
    start = time.perf_counter()
    session = make_session(wl, seed)
    sub = session.subscribe(wall_ttft_subscriber(clock))
    metrics = session.drain()
    if clock is None:
        elapsed = time.perf_counter() - start
        to_s = float
    else:
        clock.cut()
        elapsed = clock.elapsed
        to_s = clock.normalise
    ttfts = {rid: to_s(t) - to_s(sub.admitted[rid]) for rid, t in sub.first.items()}
    return elapsed, session, metrics, ttfts


def session_seeds(wl: dict, seed: int) -> list[int]:
    """The run's session seeds: ``seeds_per_run`` disjoint ones per seed."""
    k = wl["seeds_per_run"]
    return [seed * k + i for i in range(k)]


def run(workload: str, wl: dict, seed: int, seconds: float) -> dict:
    """Cycle sessions over the run's seeds until the budget is spent
    (at least three sessions, and every seed once).

    Simulated metrics pool the first session of every seed.  Wall metrics
    pool every session, normalised by the host-speed reference timed
    every half second inside it (see :mod:`calibrate`); a request's wall
    TTFT is its mean over the sessions that ran it.
    """
    n = wl["requests_per_session"]
    seeds = session_seeds(wl, seed)
    report = Report(workload)
    setup = normalised_setups(lambda: setup_seconds(workload, seed), SETUP_SAMPLES)
    host = HostSpeed()

    problems: list[str] = []
    rates: list[float] = []
    wall_ttfts: dict[tuple[int, int], list[float]] = {}
    digests: dict[int, str] = {}
    sim_ttfts: list[float] = []
    met = attempted = failed = 0
    raw: list[float] = []  # un-normalised session lengths, for the budget
    deadline = time.perf_counter() + seconds
    while len(raw) < max(3, len(seeds)) or time.perf_counter() + median(raw) <= deadline:
        sub = seeds[len(raw) % len(seeds)]
        start = time.perf_counter()
        elapsed, session, metrics, ttfts = run_session(wl, sub, host)
        raw.append(time.perf_counter() - start)
        rates.append(n / elapsed)
        for rid, ttft in ttfts.items():
            wall_ttfts.setdefault((sub, rid), []).append(ttft)
        attempted += session.n_submitted
        failed += session.n_submitted - session.n_completed
        problems += check_session(session, expected_submitted=n)
        dig = request_digest(session.cluster.submitted)
        if sub not in digests:
            digests[sub] = dig
            sim_ttfts += metrics.ttfts()
            met += slo_met(metrics, session.config.slo)
        elif dig != digests[sub]:
            problems.append(f"seed {sub}: digest {dig} != {digests[sub]}")
        del session, metrics

    for sub in seeds:
        report.note(f"seed {sub} digest {digests[sub]}")
    sessions = f"{len(raw)} sessions x {n} requests"
    pooled = f"{len(sim_ttfts)} requests, {len(seeds)} seeds"
    sim_ttfts.sort()
    per_request = sorted(sum(v) / len(v) for v in wall_ttfts.values())
    report.put("setup_s", median(setup), "s", f"{len(setup)} set-ups")
    report.put("req_per_s", median(rates), "1/s", f"median of {sessions}")
    report.put("peak_rss_mb", peak_rss_mb(), "MB", "1 process")
    report.put("sim_ttft_p50_s", percentile(sim_ttfts, 50), "s", pooled)
    report.put("sim_ttft_p99_s", percentile(sim_ttfts, 99), "s", pooled)
    report.put("sim_slo_attain", met / (len(seeds) * n), "frac", pooled)
    report.put("wall_ttft_p50_ms", percentile(per_request, 50) * 1e3, "ms", sessions)
    report.put("wall_ttft_p99_ms", percentile(per_request, 99) * 1e3, "ms", sessions)
    return report.emit(attempted, failed, problems)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
#: Request count of the tracemalloc session (retained bytes per request).
RETAINED_SAMPLE = 1000


def run_traced(workload: str, wl: dict, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced sessions of the same seed until the
    budget is spent; per-layer metrics come from the first traced one."""
    from common import OUT_DIR
    from layers import (
        PER_LAYER_UNITS,
        instrument,
        layer_metrics,
        retained_bytes_per_req,
        traced_source,
    )
    from tracer import Tracer

    n = wl["requests_per_session"]
    seed = session_seeds(wl, seed)[0]
    report = Report(workload)
    problems: list[str] = []
    ratios: list[float] = []
    layers = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() + pair_s <= deadline:
        pair_start = time.perf_counter()
        base_wall, base, _, _ = run_session(wl, seed)
        base_digest = request_digest(base.cluster.submitted)
        del base
        tracer = Tracer()
        gc.collect()
        start = time.perf_counter()
        session = make_session(wl, seed, wrap=lambda s: traced_source(s, tracer))
        instrument(session, tracer)
        session.subscribe(wall_ttft_subscriber(None))
        session.drain()
        ratios.append((time.perf_counter() - start) / base_wall)
        pair_s = time.perf_counter() - pair_start
        attempted += session.n_submitted
        failed += session.n_submitted - session.n_completed
        problems += check_session(session, expected_submitted=n)
        if request_digest(session.cluster.submitted) != base_digest:
            problems.append("tracing changed the simulated outcome")
        if layers is None:
            layers = layer_metrics(session, tracer, session.n_completed)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.tsv")
        del session, tracer

    sample = min(n, RETAINED_SAMPLE)
    layers["metrics.retained_bytes_per_req"] = retained_bytes_per_req(
        lambda: make_session(wl, seed, sample), sample
    )
    layers["trace.overhead_frac"] = median(ratios) - 1.0
    samples = f"1 traced session x {n} requests"
    for name, unit in PER_LAYER_UNITS.items():
        report.put(name, layers[name], unit, samples)
    report.samples["trace.overhead_frac"] = f"{len(ratios)} session pairs"
    report.samples["metrics.retained_bytes_per_req"] = f"{sample} requests"
    return report.emit(attempted, failed, problems)
