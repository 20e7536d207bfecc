"""Attribute a session's work to the repository's modules.

:func:`instrument` wraps the public methods of one live
:class:`~repro.api.ServingSession` (engine, policy, monitor, schedulers,
instances, KV pools, perf model, migration manager) with a
:class:`~tracer.Tracer`; :func:`layer_metrics` turns the tracer and the
session's own public counters into the per-layer metrics.
"""

from __future__ import annotations

from tracer import Tracer

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_req": "count/req",
    "sim.schedules": "count",
    "sim.self_s": "s",
    "workload.synth_s": "s",
    "core.place_calls": "count",
    "core.place_s": "s",
    "core.transition_calls": "count",
    "core.transition_s": "s",
    "monitor.census_calls": "count",
    "monitor.scanned_per_call": "req/call",
    "monitor.census_s": "s",
    "schedulers.reforms": "count",
    "schedulers.reforms_per_req": "count/req",
    "schedulers.walk_mean": "req",
    "schedulers.form_batch_s": "s",
    "serving.decode_steps": "count",
    "serving.prefill_steps": "count",
    "serving.epochs": "count",
    "serving.steps_per_epoch": "steps/epoch",
    "serving.batch_mean": "tokens/step",
    "serving.bulk_token_share": "frac",
    "serving.sync_calls": "count",
    "serving.self_s": "s",
    "memory.lookups": "count",
    "memory.swap_out_tokens": "tokens",
    "memory.swap_in_tokens": "tokens",
    "memory.self_s": "s",
    "cluster.migrations": "count",
    "cluster.self_s": "s",
    "perfmodel.calls": "count",
    "perfmodel.self_s": "s",
    "metrics.collect_s": "s",
    "metrics.retained_bytes_per_req": "bytes/req",
    "serve.polls_per_req": "count/req",
    "serve.poll_s": "s",
    "serve.oracle_s": "s",
    "serve.gateway_self_s": "s",
    "serve.bytes_per_req": "bytes/req",
    "serve.overhead_ms_p50": "ms",
    "trace.overhead_frac": "frac",
}

#: Census queries that scan every request on the instance.
_MONITOR_SCANS = (
    "answering_slo_ok",
    "pending_decode_tokens",
    "reasoning_count",
    "fresh_answering_count",
)
_INSTANCE_METHODS = (
    "on_step_complete",
    "admit",
    "accept_migrated",
    "depart",
    "cancel_request",
)
_POOL_TIMED = (
    "allocate",
    "grow",
    "grow_all",
    "grow_all_n",
    "swap_out",
    "swap_in",
    "release",
)


def counting_request_class(base: type, tracer: Tracer) -> type:
    """A layout-compatible subclass of ``Request`` that counts
    ``record_token`` calls (the per-token path, as opposed to the bulk
    epoch path).  Requests are switched to it by ``__class__``
    assignment as the source yields them."""
    calls = tracer.calls
    record = base.record_token

    def record_token(self, now):
        calls["record_token"] += 1
        record(self, now)

    return type(
        "CountingRequest", (base,), {"__slots__": (), "record_token": record_token}
    )


def traced_source(source, tracer: Tracer):
    """Wrap an arrival source: time each synthesis pull, count tokens."""
    from repro.api import ArrivalSource
    from repro.workload.request import Request

    counting = counting_request_class(Request, tracer)

    class TracedSource(ArrivalSource):
        def __iter__(self):
            pull = tracer.timed("workload", "synth", iter(source).__next__)
            while True:
                try:
                    req = pull()
                except StopIteration:
                    return
                req.__class__ = counting
                yield req

    return TracedSource()


def instrument(session, tracer: Tracer) -> None:
    """Wrap the live objects behind ``session``."""
    from repro.sim.events import EventKind

    cluster = session.cluster
    engine = cluster.engine
    tracer.wrap(engine, "run", "sim", "engine.run")
    tracer.wrap(engine, "step", "sim", "engine.step")
    tracer.wrap(engine, "schedule", None, "engine.schedule")
    tracer.wrap(engine, "schedule_in", None, "engine.schedule_in")
    # Handlers were bound at construction; re-register wrapped ones.
    engine.register(
        EventKind.ARRIVAL,
        tracer.timed("cluster", "cluster.arrival", cluster._on_arrival),
    )
    engine.register(
        EventKind.TRANSFER_COMPLETE,
        tracer.timed(
            "cluster",
            "migrations.on_transfer_complete",
            cluster.migrations.on_transfer_complete,
        ),
    )
    tracer.wrap(cluster.migrations, "start", "cluster", "migrations.start")

    policy = cluster.policy
    tracer.wrap(policy, "place_arrival", "core", "policy.place_arrival")
    tracer.wrap(
        policy, "on_phase_transition", "core", "policy.on_phase_transition"
    )

    sums = tracer.sums

    def scanned(inst, *rest):
        sums["monitor.scanned"] += len(inst.requests)

    for method in _MONITOR_SCANS:
        tracer.wrap(cluster.monitor, method, "monitor", "monitor", scanned)
    tracer.wrap(cluster.monitor, "kv_footprint", "monitor", "monitor.kv")

    def walked(inst, now):
        sums["schedulers.walk"] += len(inst.requests)

    for inst in cluster.instances:
        tracer.wrap(
            inst.scheduler, "form_batch", "schedulers", "form_batch", walked
        )
        for method in _INSTANCE_METHODS:
            tracer.wrap(inst, method, "serving", f"instance.{method}")
        tracer.wrap(inst, "sync", None, "instance.sync")
        for method in _POOL_TIMED:
            tracer.wrap(inst.pool, method, "memory", f"pool.{method}")
        tracer.wrap(inst.pool, "holds", None, "pool.lookup")
        tracer.wrap(inst.pool, "on_gpu", None, "pool.lookup")

    perf = cluster.perf
    tracer.wrap(perf, "decode_step_seconds", None, "perf.decode_step_seconds")
    tracer.wrap(perf, "prefill_seconds", "perfmodel", "perf.prefill_seconds")
    tracer.wrap(perf, "swap_seconds", "perfmodel", "perf.swap_seconds")

    tracer.wrap(session, "metrics", "metrics", "session.metrics")


def instrument_serve(gateway, tracer: Tracer) -> None:
    """Wrap the gateway's pacer and oracle (call before ``start``)."""
    from repro.workload.request import Request

    counting = counting_request_class(Request, tracer)
    resolve = gateway.oracle.resolve

    def resolve_counting(*args):
        req = resolve(*args)
        if req is not None:
            req.__class__ = counting
        return req

    gateway.oracle.resolve = tracer.timed(
        "serve", "oracle.resolve", resolve_counting
    )
    tracer.wrap(gateway.pacer, "poll", "serve", "pacer.poll")


def layer_metrics(session, tracer: Tracer, completed: int) -> dict[str, float]:
    """Per-layer metrics from the tracer and the session's counters.

    Layers the workload never exercised report 0.
    """
    cluster = session.cluster
    instances = cluster.instances
    calls = tracer.calls
    layer_self, name_self, inclusive = tracer.times()
    per_req = 1.0 / completed if completed else 0.0

    events = cluster.engine.events_processed
    reforms = sum(inst.reforms for inst in instances)
    decode_steps = sum(inst.decode_steps for inst in instances)
    prefill_steps = sum(inst.prefill_steps for inst in instances)
    tokens = sum(inst.tokens_generated for inst in instances)
    epochs = calls["instance.on_step_complete"] - prefill_steps
    census = calls["monitor"] + calls["monitor.kv"]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out.update(
        {
            "sim.events": events,
            "sim.events_per_req": events * per_req,
            "sim.schedules": calls["engine.schedule"]
            + calls["engine.schedule_in"],
            "sim.self_s": layer_self["sim"],
            "workload.synth_s": layer_self["workload"],
            "core.place_calls": calls["policy.place_arrival"],
            "core.place_s": name_self["policy.place_arrival"],
            "core.transition_calls": calls["policy.on_phase_transition"],
            "core.transition_s": name_self["policy.on_phase_transition"],
            "monitor.census_calls": census,
            "monitor.scanned_per_call": (
                tracer.sums["monitor.scanned"] / calls["monitor"]
                if calls["monitor"]
                else 0.0
            ),
            "monitor.census_s": layer_self["monitor"],
            "schedulers.reforms": reforms,
            "schedulers.reforms_per_req": reforms * per_req,
            "schedulers.walk_mean": (
                tracer.sums["schedulers.walk"] / calls["form_batch"]
                if calls["form_batch"]
                else 0.0
            ),
            "schedulers.form_batch_s": layer_self["schedulers"],
            "serving.decode_steps": decode_steps,
            "serving.prefill_steps": prefill_steps,
            "serving.epochs": epochs,
            "serving.steps_per_epoch": decode_steps / epochs if epochs else 0.0,
            "serving.batch_mean": (
                tokens / (decode_steps + prefill_steps)
                if decode_steps + prefill_steps
                else 0.0
            ),
            "serving.bulk_token_share": (
                1.0 - calls["record_token"] / tokens if tokens else 0.0
            ),
            "serving.sync_calls": calls["instance.sync"],
            "serving.self_s": layer_self["serving"],
            "memory.lookups": calls["pool.lookup"],
            "memory.swap_out_tokens": sum(i.swap_out_tokens for i in instances),
            "memory.swap_in_tokens": sum(i.swap_in_tokens for i in instances),
            "memory.self_s": layer_self["memory"],
            "cluster.migrations": len(cluster.migrations.transfer_latencies()),
            "cluster.self_s": layer_self["cluster"],
            "perfmodel.calls": calls["perf.decode_step_seconds"]
            + calls["perf.prefill_seconds"]
            + calls["perf.swap_seconds"],
            "perfmodel.self_s": layer_self["perfmodel"],
            "metrics.collect_s": inclusive["session.metrics"],
            "serve.polls_per_req": calls["pacer.poll"] * per_req,
            "serve.poll_s": inclusive["pacer.poll"],
            "serve.oracle_s": inclusive["oracle.resolve"],
        }
    )
    return out


def retained_bytes_per_req(build_session, n_requests: int) -> float:
    """Bytes still allocated after a drained session, per request.

    Runs a dedicated session under ``tracemalloc`` (which slows it
    several-fold) and keeps the session alive while measuring.
    """
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = build_session()
        session.drain()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return retained / n_requests
