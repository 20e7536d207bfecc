"""Intra-instance scheduler framework.

All four intra-instance policies in the paper — FCFS (vLLM default), RR,
the infinite-memory oracle and PASCAL's hierarchical queue — reduce to one
mechanism with different *priority keys*:

1. sort the instance's live requests by the policy's key (lower = sooner);
2. walk the order greedily, reserving GPU KV blocks (current footprint plus
   one token of growth) for each request until memory or the batch limit is
   exhausted — **without skipping**: the first request that does not fit
   cuts the prefix, which is exactly what produces head-of-line blocking
   under FCFS and bounded preemption under RR/PASCAL;
3. requests beyond the prefix lose GPU residency (swap to CPU over PCIe),
   requests inside it gain residency (admission or swap-in);
4. if any selected request still needs its prompt processed, the step is a
   prefill step (vLLM runs prefills with priority); otherwise it decodes
   one token for every batched request.

Priority *state* (multilevel ladder position, band) lives on the request;
policies are stateless apart from a sequence counter, which keeps the whole
zoo small and uniformly testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING

from repro.workload.request import ReqState, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.instance import RequestSet, ServingInstance


class StepKind(Enum):
    IDLE = auto()
    PREFILL = auto()
    DECODE = auto()


@dataclass
class StepPlan:
    """What the instance executes next.

    A decode plan carries *incremental* bookkeeping so the per-step hot
    loop never re-derives batch aggregates: ``kv_total`` is the batch's
    summed KV footprint (advanced by ``batch_size`` per decode step) and
    ``crossing_counts[s % block_size]`` is the number of requests whose
    cache crosses a block boundary on the plan's ``s``-th growth step —
    valid for the plan's whole life because a reused decode plan grows
    every member by exactly one token per step.  ``steps_taken`` counts
    growth steps applied under this plan.
    """

    kind: StepKind
    requests: list[Request] = field(default_factory=list)
    prefill_tokens: int = 0
    kv_total: int = 0
    crossing_counts: list[int] = field(default_factory=list)
    steps_taken: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    def prepare_decode(self, block_size: int) -> None:
        """Snapshot the decode aggregates from the batch's current state."""
        self.kv_total = sum(r.kv_tokens for r in self.requests)
        counts = [0] * block_size
        for r in self.requests:
            counts[-r.kv_tokens % block_size] += 1
        self.crossing_counts = counts
        self.steps_taken = 0


class IntraScheduler:
    """Base policy: subclasses define the priority key and the quantum."""

    name = "base"

    #: Token quantum; None disables time-sharing (FCFS / oracle).
    quantum_tokens: int | None = None

    def __init__(self) -> None:
        self._seq = 0

    # ------------------------------------------------------------------
    # policy surface
    # ------------------------------------------------------------------
    def priority_key(self, req: Request) -> tuple:
        """Sort key; lower sorts earlier (= scheduled sooner)."""
        raise NotImplementedError

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # lifecycle hooks (called by the instance / cluster)
    # ------------------------------------------------------------------
    def on_admit(self, req: Request, now: float) -> None:
        """A request was routed to this instance (new or migrated in)."""
        req.level = 0
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()

    def on_quantum_expired(self, req: Request, now: float) -> None:
        """The request consumed its token quantum: lower its priority."""
        req.level += 1
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()

    def on_phase_transition_local(self, req: Request, now: float) -> None:
        """The request entered answering and stays on this instance."""

    def refresh(
        self,
        requests: list[Request],
        now: float,
        census: "RequestSet | None" = None,
    ) -> None:
        """Pre-sort hook (PASCAL uses it for conditional demotion);
        ``census`` is the instance's request set, whose ``r_i`` a band
        change must update."""

    # ------------------------------------------------------------------
    # batch formation
    # ------------------------------------------------------------------
    def form_batch(self, inst: "ServingInstance", now: float) -> StepPlan:
        """Recompute GPU residency and the next step's batch."""
        pool = inst.pool
        cfg = inst.config.scheduler
        live = [r for r in inst.requests if not r.finished]
        self.refresh(live, now, inst.requests)
        order = sorted(live, key=self.priority_key)

        # Blocks pinned by requests that are no longer schedulable here
        # (KV caches mid-migration stay allocated until the copy lands)
        # are off-limits for this plan.
        resident_blocks = sum(
            pool.blocks_for(r.kv_tokens)
            for r in live
            if pool.holds(r) and pool.on_gpu(r)
        )
        external_blocks = pool.gpu_used_blocks - resident_blocks
        capacity = pool.gpu_capacity_blocks - external_blocks
        planned_blocks = 0
        batch: list[Request] = []
        keep_resident: list[Request] = []
        swap_in: list[Request] = []
        admit: list[Request] = []
        evict: list[Request] = []
        stop_admission = False

        for req in order:
            in_batch = len(batch) < cfg.max_batch_size
            resident = pool.holds(req) and pool.on_gpu(req)
            if not resident and not in_batch:
                # No execution slot anyway; don't move memory for it.
                continue
            footprint = req.kv_tokens if pool.holds(req) else req.full_kv_tokens
            need = pool.blocks_for(footprint + (1 if in_batch else 0))
            fits = planned_blocks + need <= capacity
            if resident:
                if fits:
                    planned_blocks += need
                    keep_resident.append(req)
                    if in_batch:
                        batch.append(req)
                else:
                    evict.append(req)
            else:
                if stop_admission:
                    continue
                if not fits:
                    # Head-of-line: no lower-priority request may leapfrog.
                    stop_admission = True
                    continue
                planned_blocks += need
                if pool.holds(req):
                    swap_in.append(req)
                else:
                    admit.append(req)
                batch.append(req)

        # Apply residency changes: evictions first so swap-ins have room.
        for req in evict:
            inst.do_swap_out(req, now)
        for req in swap_in:
            inst.do_swap_in(req, now)
        for req in admit:
            inst.do_allocate(req, now)

        # Park everything resident-but-unbatched.
        batch_set = set(id(r) for r in batch)
        for req in keep_resident:
            if id(req) not in batch_set and req.state == ReqState.RUNNING:
                req.set_state(ReqState.QUEUED, now)

        if not batch:
            return StepPlan(StepKind.IDLE)

        # vLLM runs pending prefills with priority over decode.
        prefills: list[Request] = []
        prefill_budget = cfg.max_prefill_tokens
        for req in batch:
            if not req.prefill_done and req.prompt_len <= prefill_budget:
                prefills.append(req)
                prefill_budget -= req.prompt_len
        if prefills:
            return StepPlan(
                StepKind.PREFILL,
                prefills,
                prefill_tokens=sum(r.prompt_len for r in prefills),
            )

        decodes = [r for r in batch if r.prefill_done]
        if not decodes:
            return StepPlan(StepKind.IDLE)
        plan = StepPlan(StepKind.DECODE, decodes)
        plan.prepare_decode(pool.block_size)
        return plan
