"""Percentiles, binning and the paper's adaptive tail-latency rule.

Figure 10 groups requests into 256-token bins of reasoning length and, to
keep tail statistics meaningful in sparsely populated bins, varies the tail
metric with the sample count:

* fewer than  5 samples — omitted,
* fewer than 10 samples — maximum,
* fewer than 20 samples — P90,
* fewer than 100 samples — P95,
* otherwise — P99.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy 'linear' method)."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)


def kendall_tau(pairs: list[tuple[float, float]]) -> float:
    """Kendall rank correlation (tau-b) between paired observations.

    ``pairs`` holds ``(x, y)`` observations — here, (predicted score,
    observed reasoning length).  Tau-b handles ties on either side:

        tau_b = (C - D) / sqrt((C + D + Tx) * (C + D + Ty))

    with C/D the concordant/discordant pair counts and Tx/Ty the pairs
    tied only in x / only in y (pairs tied in both drop out of every
    term).  Scale-free: any strictly monotone transform of either side
    leaves it unchanged, which is what makes value predictors (token
    estimates) and ranking predictors (unitless scores) directly
    comparable.

    The exhaustive O(n^2) pair walk is deliberate: this runs once per
    table render over per-dataset observation lists, never inside the
    simulation loop.

    Returns NaN when one side is constant (correlation undefined);
    raises on fewer than two pairs — callers gate on sample size.
    """
    n = len(pairs)
    if n < 2:
        raise ValueError("kendall tau needs at least two pairs")
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        x_i, y_i = pairs[i]
        for j in range(i + 1, n):
            x_j, y_j = pairs[j]
            dx = (x_i > x_j) - (x_i < x_j)
            dy = (y_i > y_j) - (y_i < y_j)
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        float(concordant + discordant + ties_x)
        * float(concordant + discordant + ties_y)
    )
    if denom == 0.0:
        return float("nan")
    return (concordant - discordant) / denom


@dataclass(frozen=True)
class TailBin:
    """One reasoning-length bin of Figure 10."""

    lo: int
    hi: int
    n_samples: int
    metric_name: str
    tail_value: float

    @property
    def label(self) -> str:
        return f"[{self.lo}-{self.hi}]"


def adaptive_tail(values: list[float]) -> tuple[str, float] | None:
    """The paper's sample-size-dependent tail statistic (Figure 10)."""
    n = len(values)
    if n < 5:
        return None
    if n < 10:
        return "max", max(values)
    if n < 20:
        return "p90", percentile(values, 90.0)
    if n < 100:
        return "p95", percentile(values, 95.0)
    return "p99", percentile(values, 99.0)


def tail_ttft_bins(
    requests,
    bin_width: int = 256,
) -> list[TailBin]:
    """Figure 10: tail TTFT per reasoning-token-length bin."""
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    grouped: dict[int, list[float]] = {}
    for req in requests:
        ttft = req.ttft()
        if ttft is None:
            continue
        grouped.setdefault(req.reasoning_len // bin_width, []).append(ttft)
    bins: list[TailBin] = []
    for index in sorted(grouped):
        values = grouped[index]
        tail = adaptive_tail(values)
        if tail is None:
            continue
        name, value = tail
        bins.append(
            TailBin(
                lo=index * bin_width,
                hi=(index + 1) * bin_width - 1,
                n_samples=len(values),
                metric_name=name,
                tail_value=value,
            )
        )
    return bins
