"""Arrival processes.

All experiments in the paper use Poisson request arrivals (Sections III-A
and V-A), evaluated at "low", "medium" and "high" rates.  The absolute rates
are not printed in the paper, so the harness scales a measured saturated
cluster throughput by load factors (see ``EvalSettings.rates_for`` in
``harness/runner.py``).
"""

from __future__ import annotations

import random
from typing import Iterator


def iter_poisson_arrivals(
    rate_per_s: float,
    n_requests: int,
    rng: random.Random,
    start_t: float = 0.0,
) -> Iterator[float]:
    """Arrival timestamps of a homogeneous Poisson process, lazily.

    Interarrival gaps are iid Exponential(rate); timestamps are
    cumulative.  The single source of truth for the arrival recurrence:
    the batch :func:`poisson_arrivals` and the streaming
    :class:`repro.api.sources.SyntheticSource` both consume it, which is
    what keeps the two paths draw-for-draw identical.
    """
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if n_requests < 0:
        raise ValueError(f"n_requests must be non-negative, got {n_requests}")
    t = start_t
    for _ in range(n_requests):
        t += rng.expovariate(rate_per_s)
        yield t


def poisson_arrivals(
    rate_per_s: float,
    n_requests: int,
    rng: random.Random,
    start_t: float = 0.0,
) -> list[float]:
    """Materialized form of :func:`iter_poisson_arrivals`."""
    return list(iter_poisson_arrivals(rate_per_s, n_requests, rng, start_t))


def iter_onoff_arrivals(
    rate_per_s: float,
    n_requests: int,
    rng: random.Random,
    duty: float = 1.0,
    cycle_s: float = 60.0,
) -> Iterator[float]:
    """On-off modulated (bursty) Poisson arrivals, lazily.

    A square-wave modulated Poisson process: each ``cycle_s``-second cycle
    opens with an "on" window of ``duty * cycle_s`` seconds during which
    arrivals stream at ``rate_per_s / duty``, followed by silence.  The
    long-run mean rate is exactly ``rate_per_s``, so load tiers stay
    comparable with the homogeneous process; what changes is the
    *peak-to-mean ratio* (``1/duty``), the heavy-tail stressor bursty
    production traffic exhibits.

    Implemented by time-warping: a homogeneous Poisson process at the
    burst rate is drawn in warped time (the concatenation of the on
    windows) and mapped back to real time.  ``duty >= 1.0`` delegates to
    :func:`iter_poisson_arrivals` draw-for-draw — a trace built with the
    default duty is byte-identical to the unmodulated one.
    """
    if duty <= 0.0:
        raise ValueError(f"duty must be positive, got {duty}")
    if cycle_s <= 0.0:
        raise ValueError(f"cycle must be positive, got {cycle_s}")
    if duty >= 1.0:
        yield from iter_poisson_arrivals(rate_per_s, n_requests, rng)
        return
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if n_requests < 0:
        raise ValueError(f"n_requests must be non-negative, got {n_requests}")
    on_s = duty * cycle_s
    burst_rate = rate_per_s / duty
    tau = 0.0  # clock over the concatenated on-windows only
    for _ in range(n_requests):
        tau += rng.expovariate(burst_rate)
        n_cycles, within = divmod(tau, on_s)
        yield n_cycles * cycle_s + within
