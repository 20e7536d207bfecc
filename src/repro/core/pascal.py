"""PASCAL's hierarchical intra-instance scheduler (Section IV-C).

Each instance keeps a two-band priority hierarchy:

* **high-priority band (reasoning)** — reasoning-phase requests.  They are
  served first and take KV memory first, because any interruption during
  reasoning adds directly to TTFT.  Within the band, round-robin with the
  standard token quantum keeps short reasoning requests responsive under
  memory pressure.
* **low-priority band (answering)** — answering-phase requests, time-shared
  round-robin over whatever GPU memory the reasoning band left over.  The
  token pacer downstream hides moderate preemption from the user.

Two extra rules from the paper:

* **conditional demotion** — a reasoning request whose generated sequence
  exceeds a threshold (5000 tokens in the evaluation) is demoted to the
  answering band, so one enormous chain-of-thought cannot starve the
  answering requests of memory forever;
* **fresh quantum at phase entry** — a request entering the answering band
  (transition, migration or demotion) starts at ladder level 0 with a fresh
  quantum; Algorithm 2's ``a_i`` counts exactly the level-0 answering
  requests ("have not exhausted the first time quantum").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.schedulers.base import IntraScheduler
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.instance import RequestSet

#: Band indices: lower band value = strictly higher scheduling priority.
REASONING_BAND = 0
ANSWERING_BAND = 1


def band_of(req: Request) -> int:
    """Which PASCAL band a request belongs to right now."""
    if req.in_reasoning and not req.demoted:
        return REASONING_BAND
    return ANSWERING_BAND


class PascalScheduler(IntraScheduler):
    """Two-band hierarchical queue with RR inside each band."""

    name = "pascal"

    def __init__(
        self,
        quantum_tokens: int = 500,
        demotion_threshold_tokens: int = 5000,
    ):
        super().__init__()
        if quantum_tokens < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum_tokens}")
        if demotion_threshold_tokens < 1:
            raise ValueError(
                f"demotion threshold must be >= 1, got {demotion_threshold_tokens}"
            )
        self.quantum_tokens = quantum_tokens
        self.demotion_threshold_tokens = demotion_threshold_tokens

    def priority_key(self, req: Request) -> tuple:
        # Two-tier ring round-robin within each band (same discipline as the
        # RR baseline); the band dominates, so any reasoning request
        # outranks every answering request.
        fresh = 0 if req.level == 0 else 1
        return (band_of(req), fresh, req.enqueue_seq, req.rid)

    def on_phase_transition_local(self, req: Request, now: float) -> None:
        """Reasoning finished here: re-enqueue as a fresh answering request."""
        req.level = 0
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()
        self.requeue(req)

    def demotion_due(self, req: Request) -> bool:
        return (
            req.generated_tokens > self.demotion_threshold_tokens
            and req.in_reasoning
            and not req.demoted
        )

    def refresh(
        self,
        requests: list[Request],
        now: float,
        census: "RequestSet | None" = None,
    ) -> None:
        """Conditional demotion, tested over ``requests`` (the previous
        plan's members, the only requests whose generated length moved)."""
        threshold = self.demotion_threshold_tokens
        due = [
            r
            for r in requests
            # Inline pre-filter: most members are far below the threshold.
            if r.generated_tokens > threshold and self.demotion_due(r)
        ]
        if due and census is not None:
            # Co-demoted requests take their enqueue_seq in admission order.
            due = [r for r in census if r in due]
        for req in due:
            self.demote(req, census)

    def demote(
        self, req: Request, census: "RequestSet | None" = None
    ) -> None:
        """Move a reasoning request to the answering band, re-enqueued
        with a fresh quantum; ``census`` is the
        :class:`~repro.serving.instance.RequestSet` holding it (its
        ``r_i`` drops by one), or ``None`` for a standalone request."""
        req.demoted = True
        req.level = 0
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()
        self.requeue(req)
        if census is not None:
            census.leave_reasoning_band(req)
