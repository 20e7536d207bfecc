"""The ``serve`` target of ``python -m repro.harness`` (``args`` is its
parsed namespace).  It imports only the serving stack, so a server starts
without compiling the figure harness; ``repro.serve`` does not import it.
The gateway, the length oracles and ``asyncio`` load only on the
``--port`` path, so an offline replay compiles none of them.
"""

from __future__ import annotations

import signal
import sys

from repro.api import (
    EventPrinter,
    MaxInFlightAdmission,
    ServingSession,
    TraceFileSource,
)
from repro.config import ExtensionPolicyConfig, ReplayCluster, parse_pool
from repro.core.registry import get_policy_class
from repro.serve.pacer import WallClockPacer, fast_forward_drain
from repro.serve.record import stamp_live_cancels
from repro.workload.datasets import resolve_dataset
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceFormatError,
    export_trace,
)


def _build_session(args) -> ServingSession | None:
    """Construct the serve session (usage errors print and return None)."""
    try:
        get_policy_class(args.policy)
        admission = None
        if args.admit_max is not None:
            admission = MaxInFlightAdmission(args.admit_max)
        extensions = ExtensionPolicyConfig()
        if args.pool is not None:
            extensions = ExtensionPolicyConfig(pool=parse_pool(args.pool))
        if args.shards is not None and args.shards > 1:
            raise ValueError(
                f"--shards {args.shards} is not supported: serve runs "
                f"one session over the whole cluster"
            )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return None
    session = ServingSession(
        policy=args.policy,
        config=ReplayCluster(extensions=extensions).cluster_config(),
        admission=admission,
    )
    if not args.quiet:
        session.subscribe(EventPrinter())
    return session


def _accounting(session) -> str:
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


def _record(session, path: str) -> int:
    """`serve --record-trace`: export the traffic actually served."""
    try:
        export_trace(
            stamp_live_cancels(session.cluster.submitted), path
        )
    except OSError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(f"served traffic recorded -> {path}")
    return 0


def _oracle(args):
    """Build the length oracle for the gateway (ValueError on bad args)."""
    from repro.serve.oracle import (
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


def _run_offline(args) -> int:
    """`serve` without --realtime: replay as fast as possible."""
    session = _build_session(args)
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
        fast_forward_drain(session, args.drain_deadline)
        print(_accounting(session))
        if args.record_trace:
            _record(session, args.record_trace)
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
    print(_accounting(session))
    if args.record_trace:
        return _record(session, args.record_trace)
    return 0


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _run_realtime(args) -> int:
    """`serve --realtime`: wall-clock pacing, optional HTTP gateway."""
    session = _build_session(args)
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
            status = _gateway_loop(args, session, pacer)
            if status != 0:
                return status
        elif _pace_until_signalled(pacer):
            print("serve: interrupted, draining", file=sys.stderr)
    except (TraceFormatError, OSError) as exc:
        # A malformed record past line 1 surfaces when the paced engine
        # pulls it: the offline contract, one line and exit 2.
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    fast_forward_drain(session, args.drain_deadline)
    print(_accounting(session))
    if args.record_trace:
        return _record(session, args.record_trace)
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


def _gateway_loop(args, session, pacer) -> int:
    """Run the OpenAI-compatible gateway until SIGINT/SIGTERM."""
    import asyncio

    from repro.serve.gateway import Gateway

    try:
        oracle = _oracle(args)
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


def run_serve(args) -> int:
    """`serve`: stream a trace (or live HTTP traffic) through a session."""
    if args.realtime:
        return _run_realtime(args)
    if not args.trace:
        print("serve needs an input trace: --trace PATH", file=sys.stderr)
        return 2
    # SIGTERM behaves like ^C: cut intake, drain bounded, report.  The
    # caller's handler comes back afterwards: a process that calls main()
    # and later forks pool workers must leave them killable by SIGTERM,
    # or Pool.terminate() can lose the signal and join a worker forever.
    previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        return _run_offline(args)
    finally:
        signal.signal(signal.SIGTERM, previous)
