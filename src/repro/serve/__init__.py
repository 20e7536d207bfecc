"""Real-time serving: wall-clock pacing, HTTP gateway, live cancellation.

The rest of the repository runs the simulator as fast as Python allows —
the clock is a number that jumps from event to event.  This package runs
the *same* simulator against a wall clock:

* :class:`~repro.serve.pacer.WallClockPacer` anchors simulated time to a
  monotonic clock and sleeps until the next event is due, accepting
  externally injected arrivals and cancellations between events;
* :class:`~repro.serve.gateway.Gateway` is an asyncio, OpenAI-compatible
  HTTP endpoint (``POST /v1/chat/completions`` with SSE streaming) whose
  tokens are released by the pacer, and whose client disconnects become
  first-class cancellations;
* :mod:`~repro.serve.oracle` maps live HTTP requests onto simulator
  workload parameters (token lengths, dataset label);
* :mod:`~repro.serve.record` turns a live run's traffic — cancellations
  included — into a version-2 JSONL trace that replays offline,
  deterministically, through ``trace-compare``.

Wall time never influences *simulated* outcomes: it only decides when the
engine is cranked.  Everything here is therefore exempt from the PAS001
wall-clock lint rule (see ``docs/lint_rules.md``) but still records its
results on the deterministic simulated timeline.
"""

from importlib import import_module

#: Public name -> defining submodule.  Names resolve on first use (PEP
#: 562), so importing one submodule — e.g. ``repro.serve.pacer`` for an
#: offline ``serve --trace`` — loads neither the gateway nor ``asyncio``.
_EXPORTS = {
    "Gateway": "gateway",
    "HeaderOracle": "oracle",
    "LengthOracle": "oracle",
    "OracleChain": "oracle",
    "OracleError": "oracle",
    "SampledOracle": "oracle",
    "TraceOracle": "oracle",
    "WallClockPacer": "pacer",
    "default_oracle": "oracle",
    "fast_forward_drain": "pacer",
    "stamp_live_cancels": "record",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
