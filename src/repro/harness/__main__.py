"""Command-line access to the per-figure experiments and trace tools.

Usage::

    python -m repro.harness list                 # available experiment ids
    python -m repro.harness --list-policies      # registered cluster policies
    python -m repro.harness fig4                 # run one and print its table
    python -m repro.harness fig12 fig13          # run several
    python -m repro.harness all                  # run everything
    python -m repro.harness all --jobs 8         # ... fanned out over 8 workers
    python -m repro.harness fig12 --scale paper  # full-size run

    # the on-disk result store: reuse simulation cells across processes
    python -m repro.harness figures --cache rw   # cell-backed tables, cached
    python -m repro.harness all --scale both --cache rw   # quick + paper
    python -m repro.harness cache ls             # inspect the store
    python -m repro.harness cache prune          # drop stale/old entries
    python -m repro.harness cache prune --max-bytes 100000000  # size budget
    python -m repro.harness cache clear

    # record a synthesized trace to JSONL, then replay it per policy:
    python -m repro.harness record-trace --dataset arena-hard \\
        --n-requests 200 --rate 2.0 --record-trace trace.jsonl
    python -m repro.harness trace-compare --trace trace.jsonl --jobs 8
    python -m repro.harness trace-compare --trace trace.jsonl \\
        --rate-scale 2.0 --policies pascal,fcfs,rr
    python -m repro.harness trace-compare --trace trace.jsonl \\
        --pool 2:800 --policies tiered-express,pascal  # heterogeneous pool

    # convert real server logs into the trace schema:
    python -m repro.harness import-trace --format vllm \\
        --input server_requests.jsonl --output trace.jsonl
    python -m repro.harness import-trace --format openai \\
        --input responses.jsonl --output trace.jsonl --skip-malformed

    # stream a trace through the online ServingSession API, printing
    # per-request lifecycle events (admit/phase/first-token/complete):
    python -m repro.harness serve --trace examples/sample_trace.jsonl
    python -m repro.harness serve --trace trace.jsonl --policy fcfs \\
        --admit-max 64        # reject arrivals beyond 64 in flight

    # real-time serving: pace the session against the wall clock, and
    # optionally expose an OpenAI-compatible HTTP endpoint whose client
    # disconnects become first-class cancellations (docs/serving.md):
    python -m repro.harness serve --realtime --trace trace.jsonl \\
        --time-scale 10       # ten simulated seconds per wall second
    python -m repro.harness serve --realtime --port 8077 \\
        --oracle sampled --dataset arena-hard --record-trace live.jsonl

    # the determinism & contract linter (rules PAS001-PAS008):
    python -m repro.harness lint                      # src + tests
    python -m repro.harness lint --format github      # CI annotations
    python -m repro.harness lint --format json src    # a subtree, as JSON

``--jobs`` parallelizes at the simulation-cell level (one dataset x tier x
policy run, or one replayed trace x policy, per task): the requested cells
are deduplicated, executed across worker processes, and every table is then
built from the shared results — byte-identical to a serial run.

``--cache {off,ro,rw}`` layers a content-addressed on-disk store under the
in-process memoization (``rw`` reads and writes, ``ro`` only reads): each
cell is addressed by the hash of its full spec plus a simulator-code
fingerprint, so cached tables are byte-identical to fresh ones and a code
change can never serve stale results.  ``figures`` is the cell-backed
subset of ``all`` (everything the store can serve end-to-end).

Results also land in ``benchmarks/results/`` when run via the benchmark
suite; this entry point is for interactive exploration.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.api import (
    EventPrinter,
    MaxInFlightAdmission,
    ServingSession,
    TraceFileSource,
)
from repro.config import ExtensionPolicyConfig, PoolSpec
from repro.core.registry import get_policy_class, policy_table
from repro.harness import cache as result_cache
from repro.harness import runner
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.replay import trace_compare
from repro.harness.runner import ReplaySettings, sweep
from repro.workload import importers
from repro.workload.datasets import resolve_dataset
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceConfig,
    TraceFormatError,
    build_replay_trace,
    build_trace,
    export_trace,
)

#: Targets handled by the trace tools rather than the figure registry.
TRACE_TARGETS = ("trace-compare", "record-trace", "import-trace", "serve")

#: Sub-actions of the `cache` maintenance target.
CACHE_ACTIONS = ("ls", "prune", "clear")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run the paper-figure experiment harness.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (see `list`), `all`, `figures`, `list`, "
        "`trace-compare`, `record-trace`, or "
        "`cache {ls,prune,clear}`",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=os.cpu_count(),
        metavar="N",
        help="worker processes for the simulation sweep "
        "(default: all CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper", "both"),
        default=None,
        help="experiment scale (default: $REPRO_SCALE or 'quick'; "
        "'both' runs quick then paper in one process, sharing cells)",
    )
    parser.add_argument(
        "--list-policies",
        action="store_true",
        help="print the registered cluster policies and exit",
    )
    store = parser.add_argument_group("on-disk result store")
    store.add_argument(
        "--cache",
        choices=result_cache.CACHE_MODES,
        default=os.environ.get("REPRO_CACHE", "off"),
        help="disk store mode: off (default, or $REPRO_CACHE), "
        "ro (read, never write), rw (read and write)",
    )
    store.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="store location (default: $PASCAL_CACHE_DIR or "
        "~/.cache/pascal-repro)",
    )
    store.add_argument(
        "--max-age-days",
        type=float,
        default=30.0,
        metavar="D",
        help="`cache prune`: also drop entries older than D days "
        "(default: 30)",
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="`cache prune`: then evict least-recently-used entries "
        "(the store bumps an entry's mtime on every read) until the "
        "store is at most N bytes",
    )
    shard = parser.add_argument_group("sharded simulation (repro.shard)")
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition the simulated cluster K ways (instances and "
        "arrivals hash-split across K independent engines; default 1 = "
        "the single-engine path, byte-identical to omitting the flag)",
    )
    shard.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes hosting the K shards (default: one per "
        "shard; 1 = serial in-process).  Execution knob only: results "
        "are byte-identical for any N",
    )
    replay = parser.add_argument_group("trace replay (trace-compare)")
    replay.add_argument(
        "--trace",
        metavar="PATH",
        help="JSONL trace to replay through the policies",
    )
    replay.add_argument(
        "--rate-scale",
        type=float,
        default=1.0,
        metavar="F",
        help="arrival-rate multiplier for the loaded trace "
        "(2.0 = twice the offered load; default 1.0)",
    )
    replay.add_argument(
        "--policies",
        metavar="CSV",
        help="comma-separated policy subset (default: all registered "
        "except oracle, which is misleading at replay capacity)",
    )
    replay.add_argument(
        "--pool",
        metavar="EXPRESS[:THRESHOLD]",
        default=None,
        help="heterogeneous pool for the replay cluster: EXPRESS express "
        "(FCFS fast-lane) instances, optionally a predicted-reasoning "
        "routing threshold in tokens (consumed by tier-aware policies "
        "such as tiered-express)",
    )
    serve = parser.add_argument_group("online session streaming (serve)")
    serve.add_argument(
        "--policy",
        metavar="NAME",
        default="pascal",
        help="cluster policy the serving session runs (default: pascal)",
    )
    serve.add_argument(
        "--admit-max",
        type=int,
        default=None,
        metavar="N",
        help="admission control: reject arrivals while N requests are "
        "already in flight (default: admit everything)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-event stream; print only the summary",
    )
    serve.add_argument(
        "--realtime",
        action="store_true",
        help="pace the session against the wall clock (events take "
        "effect when due) instead of running as fast as possible",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="F",
        help="realtime speed multiplier in simulated seconds per wall "
        "second (10 = ten times faster than real time; default 1.0)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help="with --realtime: serve an OpenAI-compatible HTTP endpoint "
        "on this port (0 = ephemeral; default: no HTTP gateway)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="gateway bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--oracle",
        choices=("auto", "header", "trace", "sampled"),
        default="auto",
        help="how live HTTP requests map to simulated token lengths: "
        "x-pascal-* headers, a recorded trace's shapes (--oracle-trace), "
        "seeded dataset sampling (--dataset/--seed), or auto = headers "
        "with trace/sampled fallback (default)",
    )
    serve.add_argument(
        "--oracle-trace",
        metavar="PATH",
        default=None,
        help="trace file backing the `trace` length oracle",
    )
    serve.add_argument(
        "--drain-deadline",
        type=float,
        default=5.0,
        metavar="S",
        help="wall-second budget for finishing in-flight requests at "
        "shutdown (default: 5.0)",
    )
    importer = parser.add_argument_group("log conversion (import-trace)")
    importer.add_argument(
        "--format",
        choices=importers.IMPORT_FORMATS,
        default=None,
        help="input log format: vllm (RequestOutput/RequestMetrics JSONL) "
        "or openai (API response JSONL)",
    )
    importer.add_argument(
        "--input",
        metavar="PATH",
        help="log file to convert",
    )
    importer.add_argument(
        "--output",
        metavar="PATH",
        help="destination JSONL trace",
    )
    importer.add_argument(
        "--skip-malformed",
        action="store_true",
        help="import every valid line and report the malformed ones "
        "(default: fail on the first malformed line)",
    )
    record = parser.add_argument_group("trace recording (record-trace)")
    record.add_argument(
        "--record-trace",
        metavar="PATH",
        help="write a JSONL trace here: the synthesized trace for "
        "`record-trace`, or the (rate-rescaled) trace `trace-compare` "
        "actually replayed",
    )
    record.add_argument(
        "--dataset",
        default="alpaca-eval-2.0",
        metavar="NAME",
        help="dataset model to synthesize from, or `reasoning-heavy-mix` "
        "(default: alpaca-eval-2.0)",
    )
    record.add_argument(
        "--n-requests",
        type=int,
        default=100,
        metavar="N",
        help="requests to synthesize (default: 100)",
    )
    record.add_argument(
        "--rate",
        type=float,
        default=1.0,
        metavar="R",
        help="Poisson arrival rate in requests/s (default: 1.0)",
    )
    record.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="synthesis seed (default: 0)",
    )
    return parser


def _cacheable_experiments() -> list[str]:
    """The `figures` alias: every cell-backed (cacheable) experiment."""
    return sorted(
        name for name, spec in ALL_EXPERIMENTS.items() if spec.cells is not None
    )


def _print_experiment_list() -> None:
    for name in sorted(ALL_EXPERIMENTS):
        print(f"{name:20s} {ALL_EXPERIMENTS[name].title}")
    print(f"{'figures':20s} All cell-backed tables (the disk-cacheable set)")
    print(f"{'record-trace':20s} Synthesize a trace and record it to JSONL")
    print(f"{'trace-compare':20s} Replay a JSONL trace through the policies")
    print(f"{'import-trace':20s} Convert vLLM/OpenAI-style logs to the "
          "trace schema")
    print(f"{'serve':20s} Stream a trace through the online "
          "ServingSession API")
    print(f"{'cache':20s} Result-store maintenance: cache ls|prune|clear")
    print(f"{'lint':20s} Determinism & contract linter (PAS rules)")


def _print_policies() -> None:
    for name, summary in policy_table():
        print(f"{name:20s} {summary}")


def _run_record_trace(args) -> int:
    if not args.record_trace:
        print(
            "record-trace needs an output path: --record-trace PATH",
            file=sys.stderr,
        )
        return 2
    try:
        dataset = resolve_dataset(args.dataset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        trace = build_trace(
            TraceConfig(
                dataset=dataset,
                n_requests=args.n_requests,
                arrival_rate_per_s=args.rate,
                seed=args.seed,
            )
        )
        export_trace(trace, args.record_trace)
    except (ValueError, OSError) as exc:
        # Bad synthesis knobs (negative rate/count) or an unwritable
        # output path are usage errors, same as trace-compare's contract.
        print(f"record-trace: {exc}", file=sys.stderr)
        return 2
    print(
        f"recorded {len(trace)} requests ({dataset.name}, "
        f"{args.rate:g} req/s, seed {args.seed}) -> {args.record_trace}"
    )
    return 0


def _parse_pool(text: str) -> PoolSpec:
    """``EXPRESS[:THRESHOLD]`` -> :class:`PoolSpec` (ValueError on junk)."""
    express_text, sep, threshold_text = text.partition(":")
    try:
        express = int(express_text)
        threshold = (
            int(threshold_text)
            if sep
            else PoolSpec().express_threshold_tokens
        )
    except ValueError:
        raise ValueError(
            f"--pool expects EXPRESS[:THRESHOLD] integers, got {text!r}"
        ) from None
    if express < 0 or threshold < 0:
        raise ValueError(f"--pool values must be >= 0, got {text!r}")
    return PoolSpec(
        express_instances=express, express_threshold_tokens=threshold
    )


def _run_trace_compare(args) -> int:
    if not args.trace:
        print(
            "trace-compare needs an input trace: --trace PATH",
            file=sys.stderr,
        )
        return 2
    policies = None
    if args.policies:
        policies = tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        )
    # Bad input is a usage error, not a crash: validate the cheap pieces
    # (rate scale, policy names, pool spec) up front, and around the run
    # itself catch only file problems — an unexpected ValueError from deep
    # inside the simulation is a bug and must keep its traceback.
    try:
        trace = ReplayTraceConfig(path=args.trace, rate_scale=args.rate_scale)
        for policy in policies or ():
            get_policy_class(policy)
        settings = _replay_settings(args)
    except ValueError as exc:
        print(f"trace-compare: {exc}", file=sys.stderr)
        return 2
    try:
        result = trace_compare(
            trace,
            policies=policies,
            settings=settings,
            jobs=args.jobs,
        )
    except (TraceFormatError, OSError) as exc:
        print(f"trace-compare: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.record_trace:
        try:
            export_trace(build_replay_trace(trace), args.record_trace)
        except OSError as exc:
            print(f"trace-compare: {exc}", file=sys.stderr)
            return 2
        print(f"replayed trace recorded -> {args.record_trace}")
    return 0


def _replay_settings(args) -> ReplaySettings:
    """The replay cluster of `trace-compare` and `serve`: ``--pool`` and
    ``--shards`` (validated in :func:`main`; `serve` refuses K > 1);
    ValueError on a bad pool.

    ``--shard-workers`` is handled globally in :func:`main` — it is an
    execution knob, deliberately kept out of the settings (and therefore
    out of every cache key).
    """
    extensions = ExtensionPolicyConfig()
    if args.pool is not None:
        extensions = ExtensionPolicyConfig(pool=_parse_pool(args.pool))
    return ReplaySettings(extensions=extensions, shards=args.shards or 1)


def _run_import_trace(args) -> int:
    """`import-trace`: convert a real-format log into the trace schema."""
    if not args.format or not args.input or not args.output:
        print(
            "import-trace needs --format {vllm,openai}, --input PATH and "
            "--output PATH",
            file=sys.stderr,
        )
        return 2
    try:
        report = importers.import_to_trace(
            args.input,
            args.output,
            fmt=args.format,
            strict=not args.skip_malformed,
        )
    except (importers.TraceImportError, OSError, ValueError) as exc:
        print(f"import-trace: {exc}", file=sys.stderr)
        return 2
    if report.errors:
        print(
            f"import-trace: skipped {len(report.errors)} malformed "
            f"line(s):\n{report.error_summary()}",
            file=sys.stderr,
        )
    if not report.requests:
        print(
            f"import-trace: no importable requests in {args.input} "
            f"({report.n_lines} lines)",
            file=sys.stderr,
        )
        return 2
    print(
        f"imported {report.n_imported}/{report.n_lines} requests "
        f"({args.format}) -> {args.output}"
    )
    return 0


def _build_serve_session(args) -> "ServingSession | None":
    """Construct the serve session (usage errors print and return None)."""
    try:
        get_policy_class(args.policy)
        admission = None
        if args.admit_max is not None:
            admission = MaxInFlightAdmission(args.admit_max)
        settings = _replay_settings(args)
        if settings.shards > 1:
            raise ValueError(
                f"--shards {settings.shards} is not supported: serve runs "
                f"one session over the whole cluster"
            )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return None
    session = ServingSession(
        policy=args.policy,
        config=settings.cluster_config(),
        admission=admission,
    )
    if not args.quiet:
        session.subscribe(EventPrinter())
    return session


def _serve_accounting(session) -> str:
    """The final-state line every serve exit path prints."""
    line = (
        f"serve: final submitted={session.n_submitted} "
        f"completed={session.n_completed} "
        f"cancelled={session.n_cancelled} "
        f"rejected={session.n_rejected}"
    )
    if session.n_in_flight:
        line += f" in-flight={session.n_in_flight}"
    return line


def _serve_drain(session, deadline_s: float) -> None:
    """Finish in-flight work, fast-forward, within a wall budget."""
    from repro.serve import fast_forward_drain

    fast_forward_drain(session, deadline_s)


def _serve_record(session, path: str) -> int:
    """`serve --record-trace`: export the traffic actually served."""
    from repro.serve import stamp_live_cancels

    try:
        export_trace(
            stamp_live_cancels(session.cluster.submitted), path
        )
    except OSError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(f"served traffic recorded -> {path}")
    return 0


def _serve_oracle(args):
    """Build the length oracle for the gateway (ValueError on bad args)."""
    from repro.serve import (
        HeaderOracle,
        OracleChain,
        SampledOracle,
        TraceOracle,
    )

    resolve_dataset(args.dataset)  # KeyError -> usage error upstream
    if args.oracle == "header":
        return HeaderOracle()
    if args.oracle == "trace" or (
        args.oracle == "auto" and args.oracle_trace
    ):
        if not args.oracle_trace:
            raise ValueError("--oracle trace needs --oracle-trace PATH")
        fallback = TraceOracle(args.oracle_trace)
    elif args.oracle == "sampled" or args.oracle == "auto":
        fallback = SampledOracle(args.dataset, args.seed)
    if args.oracle in ("trace", "sampled"):
        return fallback
    return OracleChain((HeaderOracle(), fallback))


def _run_serve_offline(args) -> int:
    """`serve` without --realtime: replay as fast as possible."""
    session = _build_serve_session(args)
    if session is None:
        return 2
    trace = ReplayTraceConfig(path=args.trace, rate_scale=args.rate_scale)
    try:
        # Attaching primes the source's first record, so file problems
        # (missing trace, malformed line 1) surface here as well as
        # during the incremental pulls inside drain().
        session.attach(TraceFileSource(trace))
        metrics = session.drain()
    except (TraceFormatError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        _serve_drain(session, args.drain_deadline)
        print(_serve_accounting(session))
        if args.record_trace:
            _serve_record(session, args.record_trace)
        return 130
    ttfts = metrics.ttfts()
    mean_ttft = (
        f"{sum(ttfts) / len(ttfts):.3f}s mean ttft" if ttfts else "no ttft"
    )
    print(
        f"served {session.n_completed} requests "
        f"({session.n_rejected} rejected, {session.n_cancelled} cancelled) "
        f"from {trace.name} under "
        f"{args.policy} in {session.now:.1f}s simulated; {mean_ttft}"
    )
    print(_serve_accounting(session))
    if args.record_trace:
        return _serve_record(session, args.record_trace)
    return 0


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _run_serve_realtime(args) -> int:
    """`serve --realtime`: wall-clock pacing, optional HTTP gateway."""
    from repro.serve import WallClockPacer

    session = _build_serve_session(args)
    if session is None:
        return 2
    try:
        pacer = WallClockPacer(session, time_scale=args.time_scale)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        trace = ReplayTraceConfig(
            path=args.trace, rate_scale=args.rate_scale
        )
        try:
            session.attach(TraceFileSource(trace))
        except (TraceFormatError, OSError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2

    if args.port is None and not args.trace:
        print(
            "serve --realtime needs --trace PATH (or --port P for "
            "live HTTP traffic)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.port is not None:
            status = _serve_gateway_loop(args, session, pacer)
            if status != 0:
                return status
        elif _pace_until_signalled(pacer):
            print("serve: interrupted, draining", file=sys.stderr)
    except (TraceFormatError, OSError) as exc:
        # A malformed record past line 1 surfaces when the paced engine
        # pulls it: the offline contract, one line and exit 2.
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    _serve_drain(session, args.drain_deadline)
    print(_serve_accounting(session))
    if args.record_trace:
        return _serve_record(session, args.record_trace)
    return 0


def _pace_until_signalled(pacer) -> bool:
    """Run the pacer until the trace drains or SIGINT/SIGTERM arrives."""
    stop = {"requested": False}

    def _on_signal(signum, frame):
        stop["requested"] = True

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        pacer.run(should_stop=lambda: stop["requested"])
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return stop["requested"]


def _serve_gateway_loop(args, session, pacer) -> int:
    """Run the OpenAI-compatible gateway until SIGINT/SIGTERM."""
    import asyncio

    from repro.serve import Gateway

    try:
        oracle = _serve_oracle(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"serve: {message}", file=sys.stderr)
        return 2
    gateway = Gateway(pacer, oracle, host=args.host, port=args.port)

    async def _main() -> None:
        await gateway.start()
        print(
            f"serving {gateway.model_name} on "
            f"http://{args.host}:{gateway.bound_port} "
            f"(policy {args.policy}, x{args.time_scale:g} time)",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await gateway.serve_until(stop)
        print("serve: interrupted, draining", file=sys.stderr)

    try:
        asyncio.run(_main())
    except OSError as exc:  # bind failure
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_serve(args) -> int:
    """`serve`: stream a trace (or live HTTP traffic) through a session."""
    if args.realtime:
        return _run_serve_realtime(args)
    if not args.trace:
        print("serve needs an input trace: --trace PATH", file=sys.stderr)
        return 2
    # SIGTERM behaves like ^C: cut intake, drain bounded, report.  The
    # caller's handler comes back afterwards: a process that calls main()
    # and later forks pool workers must leave them killable by SIGTERM,
    # or Pool.terminate() can lose the signal and join a worker forever.
    previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        return _run_serve_offline(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_cache_command(args, actions: list[str]) -> int:
    """The `cache {ls,prune,clear}` maintenance subcommand."""
    if len(actions) != 1 or actions[0] not in CACHE_ACTIONS:
        got = " ".join(actions) if actions else "(nothing)"
        print(
            f"cache: expected one of {', '.join(CACHE_ACTIONS)}, got {got}",
            file=sys.stderr,
        )
        return 2
    # Maintenance needs write access regardless of the run mode.
    store = result_cache.DiskCache("rw", args.cache_dir)
    action = actions[0]
    if action == "ls":
        entries = store.entries()
        total = 0
        for info in entries:
            total += info.size_bytes
            print(
                f"{info.key[:16]}  {info.kind:8s} {info.size_bytes:>10,d}B  "
                f"{info.created}  {info.summary}"
            )
        print(
            f"{len(entries)} entries, {total:,d} bytes in {store.root} "
            f"(fingerprint {result_cache.code_fingerprint()})"
        )
        return 0
    if action == "prune":
        try:
            removed = store.prune(
                max_age_days=args.max_age_days, max_bytes=args.max_bytes
            )
        except ValueError as exc:
            print(f"cache prune: {exc}", file=sys.stderr)
            return 2
        budget = (
            f" (budget {args.max_bytes:,d} bytes)"
            if args.max_bytes is not None
            else ""
        )
        print(
            f"pruned {removed} stale/old/evicted entries from "
            f"{store.root}{budget}"
        )
        return 0
    removed = store.clear()
    print(f"cleared {removed} entries from {store.root}")
    return 0


def _print_cache_stats() -> None:
    """One stderr line so stdout tables stay byte-comparable across runs."""
    store = result_cache.active()
    if store is None:
        return
    print(
        f"[cache] mode={store.mode} dir={store.root} {store.stats.line()} "
        f"simulations={runner.simulation_count()}",
        file=sys.stderr,
    )


def main(argv: list[str]) -> int:
    if argv and argv[0] == "lint":
        # The linter owns its own flags (`--format text|json|github`
        # would collide with import-trace's `--format vllm|openai`), so
        # dispatch before the main parse — same pattern as `cache`.
        from repro.analysis.cli import run_lint

        return run_lint(argv[1:])
    args = _parser().parse_args(argv)
    if args.list_policies:
        _print_policies()
        return 0
    if not args.targets:
        print(__doc__)
        return 2
    if "list" in args.targets:
        _print_experiment_list()
        return 0
    if args.targets[0] == "cache":
        return _run_cache_command(args, args.targets[1:])
    if args.cache not in result_cache.CACHE_MODES:
        # argparse only validates `choices` for values given on the
        # command line; the default can come from $REPRO_CACHE.
        print(
            f"--cache (or $REPRO_CACHE) must be one of "
            f"{', '.join(result_cache.CACHE_MODES)}, got {args.cache!r}",
            file=sys.stderr,
        )
        return 2
    if args.cache != "off":
        result_cache.configure(args.cache, args.cache_dir)
    if args.shards is not None and args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shards is not None:
        # Same pattern as --scale/$REPRO_SCALE: experiment settings built
        # from for_scale() pick the shard count up from the environment,
        # so it reaches sweep workers and cell specs (and cache keys)
        # like any other settings field.
        os.environ["REPRO_SHARDS"] = str(args.shards)
    if args.shard_workers is not None:
        from repro.shard import set_default_workers

        try:
            set_default_workers(args.shard_workers)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    trace_targets = [t for t in args.targets if t in TRACE_TARGETS]
    names = [t for t in args.targets if t not in TRACE_TARGETS]
    if "all" in names:
        names = sorted(ALL_EXPERIMENTS)
    elif "figures" in names:
        names = [n for n in names if n != "figures"]
        names.extend(
            n for n in _cacheable_experiments() if n not in names
        )
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"try one of: {', '.join(sorted(ALL_EXPERIMENTS))}, "
            f"figures, {', '.join(TRACE_TARGETS)}, cache",
            file=sys.stderr,
        )
        return 2

    if args.scale is not None and args.scale != "both":
        os.environ["REPRO_SCALE"] = args.scale

    trace_handlers = {
        "record-trace": _run_record_trace,
        "trace-compare": _run_trace_compare,
        "import-trace": _run_import_trace,
        "serve": _run_serve,
    }
    for target in trace_targets:
        status = trace_handlers[target](args)
        if status != 0:
            _print_cache_stats()
            return status

    # One deduplicated sweep over every requested figure's cells, then
    # build each table from the shared results.  With `--scale both` the
    # quick and paper passes share one process (and one disk cache), so
    # scale-independent work — capacity probes, identical cells — is
    # reused across the passes.
    scales = ("quick", "paper") if args.scale == "both" else (None,)
    for scale in scales:
        if scale is not None:
            os.environ["REPRO_SCALE"] = scale
            if names:
                print(f"=== scale: {scale} ===\n")
        if args.jobs and args.jobs > 1:
            cells: list = []
            for name in names:
                cells.extend(ALL_EXPERIMENTS[name].required_cells())
            if cells:
                sweep(cells, jobs=args.jobs)
        for name in names:
            print(ALL_EXPERIMENTS[name]().render())
            print()
    _print_cache_stats()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; not an error.
        sys.exit(141)
