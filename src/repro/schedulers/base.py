"""Intra-instance scheduler framework.

All four intra-instance policies in the paper — FCFS (vLLM default), RR,
the infinite-memory oracle and PASCAL's hierarchical queue — reduce to one
mechanism with different *priority keys*:

1. keep the instance's live requests in the policy's key order (lower =
   sooner) in a persistent **run-queue**, re-keyed only where a key can
   change (see :meth:`IntraScheduler.priority_key`);
2. walk the order greedily, reserving GPU KV blocks (current footprint plus
   one token of growth) for each request until memory or the batch limit is
   exhausted — **without skipping**: the first request that does not fit
   cuts the prefix, which is exactly what produces head-of-line blocking
   under FCFS and bounded preemption under RR/PASCAL.  The exception is
   *steady state*: when every live request is already GPU-resident and
   prefill-done, the run-queue fits the batch limit and the pool takes the
   next step's block crossings, the walk would batch every request in
   order and move nothing, so the run-queue itself becomes the decode plan
   (:meth:`IntraScheduler.steady_plan`).  Requests admitted into a steady
   instance are its *newcomers*: while the pool also takes their prompts,
   the walk would allocate and prefill exactly them, so
   :meth:`IntraScheduler.admission_plan` does that without walking, and
   the decode reform after their prefill is steady again;
3. requests beyond the prefix lose GPU residency (swap to CPU over PCIe),
   requests inside it gain residency (admission or swap-in);
4. if any selected request still needs its prompt processed, the step is a
   prefill step (vLLM runs prefills with priority); otherwise it decodes
   one token for every batched request.

Priority *state* (multilevel ladder position, band) lives on the request;
policies are stateless apart from a sequence counter and the run-queue,
which keeps the whole zoo small and uniformly testable.
``ServingInstance.check_invariants`` re-derives the run-queue with
``sorted(live, key=priority_key)``, the reference the walk replaced, and
checks that steady state is never recorded while a live request other
than a newcomer is off the GPU or not prefill-done, and that every
newcomer is unallocated or in the in-flight prefill.  The walk
(:meth:`IntraScheduler.walk`) stays the fallback and, in the tests, the
reference for the steady and admission paths.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    growth steps applied under this plan.  A fresh plan has no histogram;
    the instance fills all three in the pass that opens its first epoch.
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

    def crossings(self, steps: int) -> int:
        """Block boundaries the members cross over the plan's next
        ``steps`` growth steps.

        Each full ``block_size``-step cycle crosses exactly one boundary
        per member; the partial cycle is read off the histogram.
        """
        counts = self.crossing_counts
        block_size = len(counts)
        s = self.steps_taken
        cycles, rem = divmod(steps, block_size)
        total = cycles * len(self.requests)
        for i in range(rem):
            total += counts[(s + i) % block_size]
        return total


def _prefill_plan(batch: list[Request], budget: int) -> StepPlan | None:
    """The prefill step for ``batch``, or None when nothing in it needs
    one: vLLM runs pending prefills with priority over decode.  The
    unprefilled requests are taken in batch order while their prompts
    fit the ``max_prefill_tokens`` budget; one that does not fit is
    skipped, not a cut."""
    prefills: list[Request] = []
    for req in batch:
        if not req.prefill_done and req.prompt_len <= budget:
            prefills.append(req)
            budget -= req.prompt_len
    if not prefills:
        return None
    return StepPlan(
        StepKind.PREFILL,
        prefills,
        prefill_tokens=sum(r.prompt_len for r in prefills),
    )


class IntraScheduler:
    """Base policy: subclasses define the priority key and the quantum.

    One scheduler serves one instance: it holds that instance's run-queue.
    """

    name = "base"

    #: Token quantum; None disables time-sharing (FCFS / oracle).
    quantum_tokens: int | None = None

    def __init__(self) -> None:
        self._seq = 0
        #: The instance's live requests as ``(key, request)`` pairs in
        #: :meth:`priority_key` order.  Keys are unique, so a pair never
        #: compares its request.  Changed only by :meth:`requeue` and
        #: :meth:`dequeue`.
        self.run_queue: list[tuple[tuple, Request]] = []
        #: rid -> the request's pair in ``run_queue``: the key it was
        #: queued under, which locates it for removal after the key moved.
        self._queued: dict[int, tuple[tuple, Request]] = {}

    # ------------------------------------------------------------------
    # policy surface
    # ------------------------------------------------------------------
    def priority_key(self, req: Request) -> tuple:
        """Sort key; lower sorts earlier (= scheduled sooner).

        The contract the run-queue relies on: a key is unique per request
        (it ends in ``rid``), and it may change only inside a scheduler
        hook (:meth:`on_admit`, :meth:`on_quantum_expired`,
        :meth:`on_phase_transition_local`, PASCAL's ``demote``), which
        re-queues the request.  The one change made outside a hook, the
        end-of-think flip (PASCAL's band reads the phase), is re-queued
        by the instance at the flip.
        """
        raise NotImplementedError

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def demotion_due(self, req: Request) -> bool:
        """Must the next reform re-key ``req`` by demotion?  Never, unless
        a policy demotes (PASCAL's conditional demotion)."""
        return False

    # ------------------------------------------------------------------
    # run-queue
    # ------------------------------------------------------------------
    def requeue(self, req: Request) -> None:
        """Queue ``req`` under its current key, replacing its old entry."""
        key = self.priority_key(req)
        queue = self.run_queue
        old = self._queued.get(req.rid)
        if old is not None:
            if old[1] is req and old[0] == key:
                return
            del queue[bisect_left(queue, old)]
        entry = (key, req)
        self._queued[req.rid] = entry
        insort(queue, entry)

    def dequeue(self, req: Request) -> None:
        """Drop ``req``, which left the instance; a non-member is ignored."""
        old = self._queued.pop(req.rid, None)
        if old is not None:
            queue = self.run_queue
            del queue[bisect_left(queue, old)]

    def check_run_queue(
        self, live: list[Request], planned: list[Request], where: str
    ) -> None:
        """Raise unless the run-queue holds exactly ``live`` in
        ``sorted(live, key=priority_key)`` order under current keys, and
        every request :meth:`demotion_due` is in ``planned`` (the plan
        whose members the next reform's :meth:`refresh` tests)."""
        key = self.priority_key
        expected = [(key(r), r) for r in sorted(live, key=key)]
        queue = self.run_queue
        if (
            len(queue) != len(expected)
            or len(self._queued) != len(queue)
            or any(
                entry[0] != k or entry[1] is not r
                or self._queued.get(r.rid) is not entry
                for entry, (k, r) in zip(queue, expected)
            )
        ):
            raise AssertionError(
                f"{where} run-queue drift: "
                f"registry={[r.rid for _, r in expected]} "
                f"queue={[r.rid for _, r in queue]}"
            )
        missed = [
            r.rid for r in live if self.demotion_due(r) and r not in planned
        ]
        if missed:
            raise AssertionError(
                f"{where} demotion-scan drift: requests {missed} are past "
                "the demotion threshold but outside the current plan"
            )

    # ------------------------------------------------------------------
    # lifecycle hooks (called by the instance / cluster)
    # ------------------------------------------------------------------
    def on_admit(self, req: Request, now: float) -> None:
        """A request was routed to this instance (new or migrated in)."""
        req.level = 0
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()
        self.requeue(req)

    def on_quantum_expired(self, req: Request, now: float) -> None:
        """The request consumed its token quantum: lower its priority."""
        req.level += 1
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()
        self.requeue(req)

    def on_phase_transition_local(self, req: Request, now: float) -> None:
        """The request entered answering and stays on this instance."""

    def refresh(
        self,
        requests: list[Request],
        now: float,
        census: "RequestSet | None" = None,
    ) -> None:
        """Re-key hook run before each reform's walk (PASCAL uses it for
        conditional demotion).  ``requests`` are the previous plan's
        members, the only requests that generated tokens since the last
        reform; ``census`` is the instance's request set, whose ``r_i`` a
        band change must update."""

    # ------------------------------------------------------------------
    # batch formation
    # ------------------------------------------------------------------
    def form_batch(self, inst: "ServingInstance", now: float) -> StepPlan:
        """Recompute GPU residency and the next step's batch.

        After :meth:`refresh`, an instance in steady state takes
        :meth:`admission_plan` while it has newcomers and
        :meth:`steady_plan` otherwise; any other reforms by :meth:`walk`,
        as does a steady instance whose plan falls back.
        """
        previous = inst.plan
        if previous is not None:
            self.refresh(previous.requests, now, inst.requests)
        if inst.steady:
            if inst.newcomers:
                plan = self.admission_plan(inst, now)
            else:
                plan = self.steady_plan(inst)
            if plan is not None:
                return plan
        return self.walk(inst, now)

    def steady_plan(self, inst: "ServingInstance") -> StepPlan | None:
        """The walk's plan when it would move nothing, else None.

        ``inst.steady`` says every live request is GPU-resident and
        prefill-done.  If the run-queue also fits the batch limit and the
        pool takes the next step's block crossings, the walk would batch
        every request in queue order: its reservations sum to the
        resident blocks plus those crossings, against the capacity left
        beside the pinned blocks.  It would evict, admit, swap, park and
        prefill nothing, so the run-queue itself is the decode plan.
        """
        queue = self.run_queue
        if not queue:
            return StepPlan(StepKind.IDLE)
        if len(queue) > inst.config.scheduler.max_batch_size:
            return None
        pool = inst.pool
        free = pool.gpu_capacity_blocks - pool.gpu_used_blocks
        if len(queue) > free:
            block_size = pool.block_size
            crossings = 0
            for _, req in queue:
                if req.kv_tokens % block_size == 0:
                    crossings += 1
            if crossings > free:
                return None
        return StepPlan(StepKind.DECODE, [req for _, req in queue])

    def admission_plan(
        self, inst: "ServingInstance", now: float
    ) -> StepPlan | None:
        """The walk's plan for a steady instance with newcomers, or None
        when that plan could move more than the newcomers.

        ``inst.newcomers`` were admitted since the instance became steady;
        every other live request is GPU-resident and prefill-done.  If
        the run-queue fits the batch limit, every newcomer is unallocated
        and the free blocks cover the residents' next-step crossings plus
        each newcomer's prompt and first token, the walk would batch
        every request and allocate exactly the newcomers: its
        reservations sum to the resident blocks plus those, against the
        capacity left beside the pinned blocks.  The newcomers are then
        allocated in run-queue order and prefilled under the walk's
        ``max_prefill_tokens`` rule.
        """
        queue = self.run_queue
        cfg = inst.config.scheduler
        if len(queue) > cfg.max_batch_size:
            return None
        pool = inst.pool
        block_size = pool.block_size
        newcomers = inst.newcomers
        need = 0
        for req in newcomers:
            need += -(-(req.full_kv_tokens + 1) // block_size)
        free = pool.gpu_capacity_blocks - pool.gpu_used_blocks
        if len(queue) - len(newcomers) + need > free:
            crossings = 0
            for _, req in queue:
                if req.on_gpu and req.kv_tokens % block_size == 0:
                    crossings += 1
            if crossings + need > free:
                return None
        if any(pool.holds(req) for req in newcomers):
            return None
        queued = self._queued
        admitted = sorted(newcomers, key=lambda r: queued[r.rid][0])
        for req in admitted:
            inst.do_allocate(req, now)
            if req.prefill_done:
                del newcomers[req]  # its KV exists already (skip_prefill)
        plan = _prefill_plan(admitted, cfg.max_prefill_tokens)
        if len(newcomers) > (plan.batch_size if plan is not None else 0):
            # A newcomer over this step's prefill budget stays resident
            # but unprefilled: the walk takes over until it is prefilled.
            inst.steady = False
            newcomers.clear()
        if plan is not None:
            return plan
        decodes = [req for _, req in queue if req.prefill_done]
        if not decodes:
            return StepPlan(StepKind.IDLE)
        return StepPlan(StepKind.DECODE, decodes)

    def walk(self, inst: "ServingInstance", now: float) -> StepPlan:
        """Reform by walking the run-queue (steps 2-4 of the module
        docstring), and record in ``inst.steady`` whether it left every
        live request GPU-resident and prefill-done.  It places the
        newcomers like any other request, so it drops their record."""
        pool = inst.pool
        cfg = inst.config.scheduler
        # Blocks pinned by departed requests (KV caches mid-migration stay
        # allocated until the copy lands) are off-limits for this plan.
        capacity = pool.gpu_capacity_blocks - inst.pinned_blocks
        block_size = pool.block_size
        slots = cfg.max_batch_size
        planned_blocks = 0
        queue = self.run_queue
        batch: list[Request] = []
        parked: list[Request] = []
        swap_in: list[Request] = []
        admit: list[Request] = []
        evict: list[Request] = []
        stop_admission = False
        inst.steady = False
        inst.newcomers.clear()

        # Residency is read from the request's mirror of its pool entry
        # (``on_gpu``, ``kv_tokens``); a batched request reserves one
        # token of growth (``+ in_batch``).
        for _, req in queue:
            in_batch = slots > 0
            if req.on_gpu:
                need = -(-(req.kv_tokens + in_batch) // block_size)
                if planned_blocks + need <= capacity:
                    planned_blocks += need
                    if in_batch:
                        batch.append(req)
                        slots -= 1
                    else:
                        parked.append(req)
                else:
                    evict.append(req)
            elif in_batch and not stop_admission:
                # (Without an execution slot, or behind a blocked head, a
                # non-resident request moves no memory.)
                held = pool.holds(req)
                footprint = req.kv_tokens if held else req.full_kv_tokens
                need = -(-(footprint + 1) // block_size)
                if planned_blocks + need > capacity:
                    # Head-of-line: no lower-priority request may leapfrog.
                    stop_admission = True
                    continue
                planned_blocks += need
                if held:
                    swap_in.append(req)
                else:
                    admit.append(req)
                batch.append(req)
                slots -= 1

        # Apply residency changes: evictions first so swap-ins have room.
        for req in evict:
            inst.do_swap_out(req, now)
        for req in swap_in:
            inst.do_swap_in(req, now)
        for req in admit:
            inst.do_allocate(req, now)

        # Park everything resident-but-unbatched.
        for req in parked:
            if req.state == ReqState.RUNNING:
                req.set_state(ReqState.QUEUED, now)

        if not batch:
            inst.steady = not queue
            return StepPlan(StepKind.IDLE)

        plan = _prefill_plan(batch, cfg.max_prefill_tokens)
        if plan is not None:
            return plan

        decodes = [r for r in batch if r.prefill_done]
        if not decodes:
            return StepPlan(StepKind.IDLE)
        # Everything resident (nothing evicted or left off the GPU) and
        # prefill-done: the next reform may take :meth:`steady_plan`.
        inst.steady = (
            len(batch) + len(parked) == len(queue)
            and len(decodes) == len(batch)
            and all(r.prefill_done for r in parked)
        )
        return StepPlan(StepKind.DECODE, decodes)
