"""One serving instance: a model replica bound to one GPU.

The instance executes *engine steps* (continuous batching, Section II-B):
each step either prefills a group of admitted prompts or decodes one token
for every request in the running batch.  Between steps the intra-instance
scheduler may recompute GPU residency — admitting, preempting (KV swap to
CPU over PCIe) or resuming requests.

Hot-loop discipline: the batch formed by the scheduler is *reused* across
steps until something scheduling-relevant happens (arrival, completion,
phase transition, quantum expiry, migration, or the KV pool running out of
growth room).  Clean steps therefore cost O(batch size), which is what
makes cluster-scale experiments tractable in pure Python.  A reform in
steady state (every live request GPU-resident and prefill-done, see
:attr:`ServingInstance.steady`) skips the scheduler's residency walk, as
does the prefill of requests admitted into a steady instance (its
:attr:`ServingInstance.newcomers`), and each decode epoch opens in one
pass over its members
(:meth:`ServingInstance._open_epoch`) with its step times in closed form
(:meth:`PerfModel.decode_epoch`).

**Decode-epoch coalescing.**  A clean decode plan is deterministic for a
provable horizon: nothing observable changes until some batched request
reaches a milestone (phase flip, completion, quantum expiry, its first
answering token) or cumulative block-boundary crossings exhaust the free
GPU pool.  Instead of paying one ``STEP_COMPLETE`` event per token, the
instance schedules a single event at the horizon's end and computes every
intermediate step time analytically (:class:`_DecodeEpoch`) — the same
float operations as iterated ``decode_step_seconds`` sums, in the same
order, so timestamps are bit-identical to single-stepping.  Per-token
effects are *lazily emitted*: :meth:`ServingInstance.sync` catches an
instance up to the present.  Every mutation point (admission, departure,
cancellation, migration landings, :meth:`ServingInstance.mark_dirty`)
and every accessor that hands out requests
(:meth:`ServingInstance.live_requests`) syncs first.  Census reads
(``m_i``, free GPU KV and the monitor's queries) write nothing: they add
the open epoch's owed steps (:meth:`ServingInstance.owed_steps`) to what
the members record, which is what the same read shows after a sync.  So
no observer sees mid-epoch staleness, and placement and phase routing
catch no instance up.  Milestones land, by construction, on an epoch's
final step, which is dispatched as a real event — lifecycle hooks
therefore fire at true simulated times in globally sorted order, exactly
as with one event per token.
``InstanceConfig.epoch_coalescing=False`` caps every epoch at one step:
the single-step reference path used by the capacity probe and the
epoch-equivalence tests.

**Milestone-only emission.**  Only a milestone token needs the per-token
path (:meth:`ServingInstance._emit_token`, which runs
:meth:`Request.record_token` and fires the hooks).  Steps before an
epoch's final one carry no milestone and advance in bulk
(:meth:`ServingInstance._bulk_advance`).  On the final step, only the
members at a milestone, or not ``RUNNING``, take the per-token path; the
rest get the same plain-token bookkeeping as the bulk steps.  Both modes
share this path, so single-stepping is the one-event-per-step reference,
not a per-token one.  The per-token reference, which sends every member
of every final step through ``_emit_token``, lives in the tests
(``tests/test_epoch_equivalence.py``).

**Step log.**  Every member of a decode step finishes it at the same
time, so answer timing is stored once per step, not once per token.
:meth:`ServingInstance._open_epoch` appends an epoch's step times to the
instance's step log (``array('d')`` chunks of :data:`STEP_LOG_CHUNK`
steps; a chunk that is full when an epoch opens is replaced by a new
one), unless no member is answering, and
:meth:`ServingInstance._truncate_epoch` trims the steps it cuts.  Each
answering member's tokens are a run of the log (see
:mod:`repro.workload.request`) whose end follows its token count, so
neither the bulk nor the final-step pass writes answer timing.  Runs
open only in the open pass, for an answering member that is not
``RUNNING`` (parked, swapped, landed or new) or whose open run is not on
the current chunk (it just flipped locally, was just prefilled, or the
chunk rolled over).  A ``RUNNING`` member was in the instance's previous
decode step, since every walk exit that drops a request from the batch
takes it out of ``RUNNING``, so its run simply continues;
:meth:`ServingInstance.check_invariants` holds that every ``RUNNING``
answering member's run ends at the open epoch's next step.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from typing import Callable

from repro.config import InstanceConfig, SLOConfig
from repro.core.pascal import REASONING_BAND, band_of
from repro.memory.blocks import KVPool, OutOfMemoryError
from repro.perfmodel.analytical import PerfModel
from repro.schedulers.base import IntraScheduler, StepKind, StepPlan
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.request import Phase, ReqState, Request

#: Callback signatures the cluster wires up.
TransitionHook = Callable[[Request, "ServingInstance", float], None]
CompletionHook = Callable[[Request, float], None]

#: Enum members bound once for the per-member epoch loops: reaching a
#: member through its class costs about 160 ns on CPython 3.11.
_RUNNING = ReqState.RUNNING
_REASONING = Phase.REASONING
_ANSWERING = Phase.ANSWERING

#: Steps a step-log chunk holds before the next epoch opens a new one.
#: Runs never span chunks, so a later release of old steps can free
#: whole chunks.
STEP_LOG_CHUNK = 4096

#: Subtracted from every starvation bound.  Far above the float rounding
#: of :func:`answering_starving`'s arithmetic at any simulated time below
#: ~1e9 s, so a bound never lands after the judge's first True.
_BOUND_SLACK_S = 1e-6


def answering_starving(
    req: Request, now: float, slo: SLOConfig, owed: int = 0
) -> bool:
    """Pacer view: is this answering request behind the user's pace?

    ``owed`` counts answering tokens ``req`` generated before ``now``
    that its instance has not recorded yet (see
    :meth:`ServingInstance.owed_steps`).
    """
    if req.first_answer_t is None:
        # No answering token yet: judge against the TTFAT target.
        if req.reasoning_end_t is None:
            return False
        return (now - req.reasoning_end_t) > slo.ttfat_target_s
    if req.finished:
        return False
    expected = (
        int(math.floor((now - req.first_answer_t) / slo.tpot_target_s)) + 1
    )
    generated = req.answered_tokens + owed
    return generated < expected


def starve_bound(req: Request, slo: SLOConfig, owed: int = 0) -> float:
    """Lower bound on the earliest time :func:`answering_starving` can be
    True for ``req``, ``owed`` unrecorded tokens included.

    After the first answering token the pacer expects token ``g + 1`` at
    ``first_answer_t + g·tpot``.  Before it, the TTFAT rule fires after
    ``reasoning_end_t + ttfat``, and the pacer rule no earlier than
    ``first_answer_t + tpot >= reasoning_end_t + tpot``.  A request with
    neither stamp (no reasoning phase and no answering token yet) gets
    ``-inf``: it stays a candidate until its first token.  Tokens only
    move the bound later, so an old bound stays a valid lower bound.
    """
    if req.first_answer_t is not None:
        g = req.answered_tokens + owed
        bound = req.first_answer_t + g * slo.tpot_target_s
    elif req.reasoning_end_t is not None:
        lead = min(slo.ttfat_target_s, slo.tpot_target_s)
        bound = req.reasoning_end_t + lead
    else:
        return -math.inf
    return bound - _BOUND_SLACK_S


class RequestSet:
    """The instance's resident requests and its phase census.

    **Registry.**  A plain ``set`` iterates in hash order — identical
    within one process, but not across machines or Python builds, so any
    census read that feeds placement or event emission would be a latent
    determinism bug (PAS003).  Backing the registry with a dict keeps
    add/discard/membership O(1) while making iteration order *admission
    order*, which is what every observer (the order PASCAL demotes
    co-due requests in, invariant checks) sees.

    **Census.**  The instance monitor reads ``r_i`` and ``t_i`` on every
    arrival and every phase transition, so both are kept incrementally
    instead of by scanning the members:

    * :attr:`reasoning` (``r_i``) counts the unfinished members in
      PASCAL's reasoning band.  Each member's dict value records whether
      it is counted; the count moves at :meth:`add`/:meth:`discard`, at
      the end-of-think flip (:meth:`flip_to_answering`) and at demotion
      (:meth:`leave_reasoning_band`).
    * A min-heap holds the answering members keyed by
      :func:`starve_bound`, with an insertion counter breaking ties so
      requests are never compared.  :meth:`answering_slo_ok` (``t_i``)
      pops only the entries due by ``now`` and leaves the verdict to
      :func:`answering_starving`.  Stale entries stay valid lower bounds,
      so token emission, bulk or per token, never touches the heap.
      Departed members' entries wait for a query to pop them, so the heap
      is held to :meth:`heap_bound` entries: rebuilt from the members
      when it would pass the bound, emptied with the registry.

    ``ServingInstance.check_invariants`` re-derives both by a full scan.
    """

    __slots__ = ("_requests", "reasoning", "slo", "_deadlines", "_seq")

    def __init__(self, slo: SLOConfig | None = None) -> None:
        self._requests: dict[Request, bool] = {}
        self.reasoning = 0
        self.slo = slo if slo is not None else SLOConfig()
        self._deadlines: list[tuple[float, int, Request]] = []
        self._seq = 0

    def add(self, req: Request) -> None:
        if req in self._requests:
            return
        counted = not req.finished and band_of(req) == REASONING_BAND
        self._requests[req] = counted
        if counted:
            self.reasoning += 1
        elif req.in_answering and not req.finished:
            self._watch(req)

    def discard(self, req: Request) -> None:
        members = self._requests
        if members.pop(req, False):
            self.reasoning -= 1
        if not members:
            self._deadlines.clear()
        elif len(self._deadlines) > self.heap_bound():
            self._rebuild()

    def leave_reasoning_band(self, req: Request) -> None:
        """``req`` left the reasoning band (flip or demotion); a
        non-member or an uncounted member is left alone."""
        if self._requests.get(req):
            self._requests[req] = False
            self.reasoning -= 1

    def flip_to_answering(self, req: Request) -> None:
        """``req`` just produced its end-of-think token here."""
        if req in self._requests:
            self.leave_reasoning_band(req)
            self._watch(req)

    def answering_slo_ok(self, now: float, owed: int = 0) -> bool:
        """``t_i``: True iff no unfinished answering member is starving.

        ``owed`` is the instance's :meth:`ServingInstance.owed_steps`:
        each ``RUNNING`` member, a member of the open epoch's plan, is
        credited with that many unrecorded answering tokens.  The bounds
        pushed back are those the same query would push after a sync.
        """
        heap = self._deadlines
        members = self._requests
        slo = self.slo
        held = []
        ok = True
        while heap and heap[0][0] <= now:
            _, seq, req = heappop(heap)
            if req not in members or req.finished:
                continue  # left the instance: its entry goes with it
            credit = owed if req.state is _RUNNING else 0
            bound = starve_bound(req, slo, credit)
            if bound > now:
                heappush(heap, (bound, seq, req))
                continue
            held.append((bound, seq, req))
            if answering_starving(req, now, slo, credit):
                ok = False
                break
        for entry in held:
            heappush(heap, entry)
        return ok

    def heap_bound(self) -> int:
        """Most entries the deadline heap may hold: O(members)."""
        return 2 * len(self._requests) + 64

    def _watch(self, req: Request) -> None:
        """Give answering member ``req`` a heap entry."""
        heap = self._deadlines
        if len(heap) < self.heap_bound():
            heappush(heap, (starve_bound(req, self.slo), self._next_seq(), req))
            return
        self._rebuild()  # ``req`` included

    def _rebuild(self) -> None:
        """One entry per answering member.  Without t_i queries (policies
        with no SLO filter) nothing pops the entries of departed
        members."""
        heap = self._deadlines
        heap[:] = [
            (starve_bound(r, self.slo), self._next_seq(), r)
            for r in self._requests
            if r.in_answering and not r.finished
        ]
        heapify(heap)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def __contains__(self, req: object) -> bool:
        return req in self._requests

    def __iter__(self):
        return iter(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rids = [r.rid for r in self._requests]
        return f"RequestSet({rids})"


class _DecodeEpoch:
    """One in-flight coalesced decode run: N analytically-timed steps.

    ``times[j]`` is the completion time of the epoch's ``j``-th step.
    ``emitted`` counts steps whose tokens have been recorded; the step
    after them is *in flight*, its KV growth already applied, mirroring
    the single-step engine where growth happens at step start and tokens
    appear at step end.  ``event`` is the pending ``STEP_COMPLETE`` at
    ``times[-1]`` (replaced when a mid-epoch dirtying event truncates
    the run down to its in-flight step).  ``base`` is the index of step
    0 in the instance's step log, None when the epoch is not logged (no
    member was answering when it opened).
    """

    __slots__ = ("plan", "times", "event", "emitted", "base")

    def __init__(self, plan: StepPlan, times, event, base):
        self.plan = plan
        self.times: list[float] = times
        self.event = event
        self.emitted = 0
        self.base: int | None = base


class ServingInstance:
    """Continuous-batching execution engine for one GPU instance."""

    def __init__(
        self,
        iid: int,
        config: InstanceConfig,
        perf: PerfModel,
        engine: SimulationEngine,
        scheduler: IntraScheduler,
        slo: SLOConfig | None = None,
    ):
        self.iid = iid
        self.config = config
        self.perf = perf
        self.engine = engine
        self.scheduler = scheduler
        self.pool = KVPool(
            gpu_capacity_tokens=config.gpu_kv_tokens(),
            cpu_capacity_tokens=config.cpu_kv_tokens(),
        )
        #: Resident requests in admission order, and the phase census the
        #: monitor reads, judged against ``slo`` (see :class:`RequestSet`).
        self.requests = RequestSet(slo)
        self.busy = False
        self.overhead_s = 0.0
        self._dirty = True
        self._plan: StepPlan | None = None
        self._epoch: _DecodeEpoch | None = None
        self._emitting = False
        #: The step log's current chunk: completion times of the decode
        #: steps of every epoch with an answering member, in order.
        self.step_log = array("d")
        #: Running total of ``full_kv_tokens`` over admitted-but-unallocated
        #: requests (O(1) :meth:`pending_kv_tokens`); a pending request
        #: cannot generate, so its footprint is constant while counted.
        self._pending_kv = 0
        #: GPU blocks still held by departed requests whose KV copy has not
        #: landed (copy-then-free): off-limits to ``form_batch``.  Moves at
        #: :meth:`depart` and :meth:`release_departed`; a departed request
        #: neither grows nor swaps, so its block count is fixed meanwhile.
        self.pinned_blocks = 0
        #: Steady state: every live request but the :attr:`newcomers` is
        #: GPU-resident and prefill-done, so a reform may take the
        #: scheduler's ``steady_plan`` (no newcomers) or
        #: ``admission_plan`` instead of walking.  Recorded by the walk at
        #: each of its exits; cleared by a migrated landing that is
        #: off-GPU or not prefill-done, and by an admission plan that
        #: leaves a newcomer unprefilled.  Admissions, departures,
        #: completions and prefills cannot break it.
        self.steady = False
        #: Requests admitted while steady and not prefilled yet, in
        #: admission order: each is unallocated, or prefilling in the
        #: in-flight plan.  A completed prefill, a cancel or a departure
        #: removes a request; the walk clears them all.
        self.newcomers: dict[Request, None] = {}

        #: Wired by the cluster; default no-ops keep the instance standalone.
        self.on_transition: TransitionHook = lambda req, inst, now: None
        self.on_complete: CompletionHook = lambda req, now: None
        #: Fired once per request, at its first *answering* token (the
        #: paper's TTFT milestone); feeds the session lifecycle stream.
        self.on_first_token: CompletionHook = lambda req, now: None

        #: Optional shared rid -> [token time] log (timeline tooling).
        self.token_log: dict[int, list[float]] | None = None

        # counters for throughput/utilization reporting
        self.decode_steps = 0
        self.prefill_steps = 0
        self.reforms = 0
        self.tokens_generated = 0
        self.swap_out_tokens = 0
        self.swap_in_tokens = 0

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def admit(self, req: Request, now: float) -> None:
        """A new request was routed here by the instance-level scheduler;
        a steady instance records it as a newcomer and stays steady."""
        reason = self._prefill_limit(req)
        if reason is not None:
            raise ValueError(
                f"instance {self.iid}: request {req.rid}'s {reason}; "
                "it can never be prefilled"
            )
        self.sync(now)
        req.instance_id = self.iid
        self.requests.add(req)
        self._pending_kv += req.full_kv_tokens
        if self.steady:
            self.newcomers[req] = None
        self.scheduler.on_admit(req, now)
        self.mark_dirty()
        self.maybe_start_step(now)

    def unservable_reason(self, req: Request) -> str | None:
        """Why this instance can never serve ``req``, or None if it can.

        A request is unservable when its prompt exceeds the prefill
        budget, or when its lifetime KV footprint (prompt + reasoning +
        answer, block-rounded) exceeds the whole GPU pool, so that even
        alone it could never hold its final token's KV.
        """
        reason = self._prefill_limit(req)
        if reason is not None:
            return reason
        pool = self.pool
        lifetime = req.prompt_len + req.total_decode_tokens
        if pool.blocks_for(lifetime) > pool.gpu_capacity_blocks:
            return (
                f"lifetime KV footprint of {lifetime} tokens exceeds the "
                f"GPU KV capacity of "
                f"{pool.gpu_capacity_blocks * pool.block_size} tokens"
            )
        return None

    def _prefill_limit(self, req: Request) -> str | None:
        """A prefill step takes at most ``max_prefill_tokens`` prompt
        tokens: a longer prompt would hold its KV forever without ever
        running."""
        budget = self.config.scheduler.max_prefill_tokens
        if req.prompt_len <= budget or req.prefill_done or req.skip_prefill:
            return None
        return (
            f"{req.prompt_len}-token prompt exceeds max_prefill_tokens="
            f"{budget}"
        )

    def accept_migrated(self, req: Request, now: float) -> None:
        """A phase-transitioned request's KV cache finished arriving."""
        self.sync(now)
        req.instance_id = self.iid
        tokens = req.full_kv_tokens
        on_gpu = self.pool.can_allocate_gpu(tokens)
        self.pool.allocate(req, tokens, on_gpu=on_gpu)
        req.set_state(ReqState.QUEUED if on_gpu else ReqState.PREEMPTED, now)
        if not (on_gpu and req.prefill_done):
            self.steady = False
        self.requests.add(req)
        self.scheduler.on_admit(req, now)
        self.mark_dirty()
        self.maybe_start_step(now)

    def depart(self, req: Request, now: float) -> None:
        """The request is migrating away; its KV stays pinned here until
        the migration manager calls :meth:`release_departed`."""
        self.sync(now)
        req.set_state(ReqState.MIGRATING, now)
        self.requests.discard(req)
        self.newcomers.pop(req, None)
        self.scheduler.dequeue(req)
        if req.on_gpu:
            self.pinned_blocks += self.pool.blocks_for(req.kv_tokens)
        elif not self.pool.holds(req):
            self._pending_kv -= req.full_kv_tokens
        self.mark_dirty()

    def release_departed(self, req: Request) -> None:
        """Free a departed request's KV here: its copy landed elsewhere,
        or its migration was cancelled."""
        if req.on_gpu:
            self.pinned_blocks -= self.pool.blocks_for(req.kv_tokens)
        self.pool.release(req)

    def cancel_request(self, req: Request, now: float) -> bool:
        """Evict a resident request immediately (client cancellation).

        Frees its KV footprint — pool blocks if allocated (GPU or CPU),
        the pending-KV claim otherwise — and drops it from any in-flight
        plan.  An already-launched engine step still completes at its
        scheduled time (that compute was committed when the step began),
        but the cancelled request emits no further tokens: it is removed
        from the plan's request list before the step's emit runs.  The
        caller owns the request-side bookkeeping (``mark_cancelled``).
        Returns ``False`` when the request is not resident here.
        """
        if req not in self.requests:
            return False
        self.sync(now)
        # Truncates an in-flight decode epoch down to its in-flight step,
        # so everything after this instant is re-planned without ``req``.
        self.mark_dirty()
        plan = self._plan
        if plan is not None and req in plan.requests:
            plan.requests.remove(req)
        self.requests.discard(req)
        self.newcomers.pop(req, None)
        self.scheduler.dequeue(req)
        if self.pool.holds(req):
            self.pool.release(req)
        else:
            self._pending_kv -= req.full_kv_tokens
        self.mark_dirty()
        self.maybe_start_step(now)
        return True

    def mark_dirty(self) -> None:
        self._dirty = True
        if self._epoch is not None and not self._emitting:
            # Something scheduling-relevant happened mid-epoch: the
            # remaining steps are no longer valid.  Keep the in-flight
            # step (its growth is already applied, exactly as a
            # single-step engine would have) and cut the rest.
            self.sync()
            self._truncate_epoch()

    # ------------------------------------------------------------------
    # residency mechanics (called by schedulers during form_batch)
    # ------------------------------------------------------------------
    def do_allocate(self, req: Request, now: float) -> None:
        """First admission to GPU memory (prompt KV reservation)."""
        self.pool.allocate(req, req.full_kv_tokens, on_gpu=True)
        self._pending_kv -= req.full_kv_tokens
        if req.skip_prefill and not req.prefill_done:
            # Figure 5 workload: the KV exists already; no prefill compute.
            req.prefill_done = True
            req.prefill_end_t = now

    def do_swap_out(self, req: Request, now: float) -> None:
        tokens = self.pool.swap_out(req)
        self.overhead_s += self.perf.swap_seconds(tokens)
        self.swap_out_tokens += tokens
        req.set_state(ReqState.PREEMPTED, now)

    def do_swap_in(self, req: Request, now: float) -> None:
        tokens = self.pool.swap_in(req)
        self.overhead_s += self.perf.swap_seconds(tokens)
        self.swap_in_tokens += tokens
        req.set_state(ReqState.QUEUED, now)

    # ------------------------------------------------------------------
    # census used by the instance-level scheduler
    # ------------------------------------------------------------------
    def pending_kv_tokens(self) -> int:
        """Prospective KV demand of admitted-but-unallocated requests.

        Between an arrival and its first ``form_batch`` the request holds no
        pool blocks yet; a router that ignored this in-flight demand would
        dogpile simultaneous arrivals onto whichever instance reports the
        smallest allocated footprint.
        """
        return self._pending_kv

    def owed_steps(self, now: float | None = None) -> int:
        """Steps of the open decode epoch that completed strictly before
        ``now`` (default: the clock) and that :meth:`sync` has not
        applied yet.

        The cutoff is :meth:`sync`'s, so a census read that adds these
        steps' effects equals the same read after ``sync(now)``.  Every
        owed step precedes the epoch's final one, so it carries no
        milestone: it owes one plain token to each plan member, and
        while an epoch is open the members are exactly the ``RUNNING``
        requests (:meth:`check_invariants` holds this).
        """
        epoch = self._epoch
        if epoch is None:
            return 0
        j = epoch.emitted
        last = len(epoch.times) - 1
        if j >= last:
            return 0  # also while the final step is being emitted
        if now is None:
            now = self.engine.now
        return bisect_left(epoch.times, now, j, last) - j

    def owed_tokens(self) -> int:
        """Tokens the open epoch's owed steps generated by the clock (see
        :meth:`owed_steps`): one per member per step."""
        steps = self.owed_steps()
        return steps * len(self._epoch.plan.requests) if steps else 0

    def total_kv_tokens(self) -> int:
        """``m_i``: total KV footprint, GPU plus CPU plus queued demand
        (Algorithm 1's load proxy), owed tokens included."""
        return (
            self.pool.total_kv_tokens() + self._pending_kv
            + self.owed_tokens()
        )

    def gpu_free_tokens(self) -> int:
        """Free GPU KV, less the blocks the owed steps' growth crosses
        into."""
        pool = self.pool
        free = pool.gpu_free_blocks()
        steps = self.owed_steps()
        if steps:
            free -= self._epoch.plan.crossings(steps)
        return free * pool.block_size

    def live_requests(self) -> list[Request]:
        self.sync()
        return [r for r in self.requests if not r.finished]

    @property
    def plan(self) -> StepPlan | None:
        """The plan being executed (None before the first reform)."""
        return self._plan

    def check_invariants(self) -> None:
        """Running counters vs authoritative registries (property tests)."""
        self.sync()
        self.pool.check_invariants()
        finished = [r.rid for r in self.requests if r.finished]
        if finished:
            # The registry's length is read as the live count.
            raise AssertionError(
                f"instance {self.iid} registry drift: finished requests "
                f"{finished} are still registered"
            )
        live = list(self.requests)
        pending = sum(r.full_kv_tokens for r in live if not self.pool.holds(r))
        if pending != self._pending_kv:
            raise AssertionError(
                f"instance {self.iid} pending-KV drift: "
                f"registry={pending} counter={self._pending_kv}"
            )
        pool = self.pool
        resident = sum(
            pool.blocks_for(r.kv_tokens) for r in live if pool.on_gpu(r)
        )
        pinned = pool.gpu_used_blocks - resident
        if pinned != self.pinned_blocks:
            raise AssertionError(
                f"instance {self.iid} pinned-block drift: "
                f"registry={pinned} counter={self.pinned_blocks}"
            )
        plan = self._plan
        prefilling = (
            plan.requests
            if plan is not None and plan.kind is StepKind.PREFILL
            else ()
        )
        newcomers = self.newcomers
        strays = [
            r.rid
            for r in newcomers
            if r not in self.requests
            or r.prefill_done
            or (pool.holds(r) and r not in prefilling)
        ]
        if strays:
            raise AssertionError(
                f"instance {self.iid} newcomer drift: requests {strays} "
                "are not live, prefill-done, or allocated outside the "
                "in-flight prefill"
            )
        if self.steady:
            unsettled = [
                r.rid
                for r in live
                if not (r.on_gpu and r.prefill_done) and r not in newcomers
            ]
            if unsettled:
                raise AssertionError(
                    f"instance {self.iid} steady-state drift: requests "
                    f"{unsettled} are off the GPU or not prefill-done"
                )
        miscounted = [
            r.rid
            for r in live
            if len(r.answer_token_times) != r.answered_tokens
        ]
        if miscounted:
            raise AssertionError(
                f"instance {self.iid} answer-timing drift: requests "
                f"{miscounted} hold a timestamp count other than their "
                "answering-token count"
            )
        epoch = self._epoch
        if epoch is not None and not self._emitting:
            # The open epoch's final step is emitted by its own event, so
            # a drained engine leaves no epoch open.  The event is
            # scheduled at that very float: exact equality is the point.
            event = epoch.event
            if (
                event.cancelled
                or event.time != epoch.times[-1]  # lint-ignore: PAS004
            ):
                raise AssertionError(
                    f"instance {self.iid} epoch-event drift: the open "
                    f"epoch's STEP_COMPLETE (t={event.time}, cancelled="
                    f"{event.cancelled}) is not live at its final step "
                    f"t={epoch.times[-1]}"
                )
            # The owed-token reads credit the RUNNING requests with the
            # open epoch's unapplied steps: they must be its members.
            running = sorted(r.rid for r in live if r.state is _RUNNING)
            members = sorted(r.rid for r in epoch.plan.requests)
            if running != members:
                raise AssertionError(
                    f"instance {self.iid} plan-membership drift: RUNNING "
                    f"requests {running} are not the open epoch's members "
                    f"{members}"
                )
            if epoch.emitted < len(epoch.times):
                # The open pass opens no run for a RUNNING member: its
                # run must end where the epoch's next step is logged.
                log = self.step_log
                base = epoch.base
                end = None if base is None else base + epoch.emitted
                broken = [
                    r.rid
                    for r in live
                    if r.state is _RUNNING
                    and r.phase is _ANSWERING
                    and (
                        r.run_chunk is not log
                        or r.run_offset + r.generated_tokens != end
                    )
                ]
                if broken:
                    raise AssertionError(
                        f"instance {self.iid} answer-run drift: RUNNING "
                        f"requests {broken} have no open run ending at the "
                        f"open epoch's next logged step {end}"
                    )
        self.scheduler.check_run_queue(
            live, plan.requests if plan is not None else [],
            f"instance {self.iid}",
        )
        census = self.requests
        if len(census._deadlines) > census.heap_bound():
            raise AssertionError(
                f"instance {self.iid} deadline-heap growth: "
                f"{len(census._deadlines)} entries for {len(census)} members"
            )
        reasoning = sum(1 for r in live if band_of(r) == REASONING_BAND)
        if reasoning != census.reasoning:
            raise AssertionError(
                f"instance {self.iid} reasoning-count drift: "
                f"registry={reasoning} counter={census.reasoning}"
            )
        now = self.engine.now
        slo_ok = not any(
            answering_starving(r, now, census.slo)
            for r in live
            if r.in_answering
        )
        census_ok = census.answering_slo_ok(now)
        if slo_ok != census_ok:
            raise AssertionError(
                f"instance {self.iid} t_i drift at t={now}: "
                f"registry={slo_ok} census={census_ok}"
            )

    # ------------------------------------------------------------------
    # step loop
    # ------------------------------------------------------------------
    def maybe_start_step(self, now: float) -> None:
        """Begin the next engine step unless one is already in flight."""
        if self.busy or self._emitting:
            return
        plan = self._plan
        if (
            self._dirty
            or plan is None
            or (
                plan.kind == StepKind.DECODE
                and not self._growth_feasible(plan)
            )
        ):
            plan = self.scheduler.form_batch(self, now)
            self._plan = plan
            self._dirty = False
            self.reforms += 1

        if plan.kind == StepKind.IDLE or not plan.requests:
            self._check_livelock(now)
            return

        if plan.kind == StepKind.PREFILL:
            # Reserve this step's tokens up front so concurrent migrations
            # cannot consume the blocks mid-step.
            for req in plan.requests:
                self.pool.grow(req, 1)
                if req.state != ReqState.RUNNING:
                    req.set_state(ReqState.RUNNING, now)
                elif req.in_answering and req.answer_sched_t is None:
                    req.answer_sched_t = now
            latency = self.perf.prefill_seconds(plan.prefill_tokens)
            latency += self.overhead_s
            self.overhead_s = 0.0
            self.busy = True
            self.engine.schedule_in(latency, EventKind.STEP_COMPLETE, self)
            return

        self._open_epoch(plan, now)

    def on_step_complete(self, now: float) -> None:
        """Finish the in-flight step: emit tokens, react to milestones."""
        self.busy = False
        if self._epoch is not None:
            self._finish_epoch()
            self.maybe_start_step(now)
            return
        plan = self._plan
        if plan is None or plan.kind != StepKind.PREFILL:
            # pragma: no cover - defensive
            raise RuntimeError(
                f"instance {self.iid}: step completed without a prefill "
                "plan or decode epoch"
            )
        self.prefill_steps += 1
        newcomers = self.newcomers
        for req in plan.requests:
            newcomers.pop(req, None)
        for req in plan.requests:
            req.prefill_done = True
            req.prefill_end_t = now
            self._emit_token(req, now)
        self.mark_dirty()
        self.maybe_start_step(now)

    # ------------------------------------------------------------------
    # decode-epoch machinery
    # ------------------------------------------------------------------
    def sync(self, now: float | None = None, inclusive: bool = False) -> None:
        """Lazily emit epoch steps that are already in the past.

        Every mutation entry point (admissions, departures, cancels,
        migration landings) and every snapshot of the members calls this
        first, so they see the exact state a single-step engine would
        show at ``now``; census reads add :meth:`owed_steps` instead.
        Strictly-before semantics match event dispatch: a step completing
        at exactly ``now`` still has its event queued and will be
        dispatched in due order.  ``inclusive`` also takes the steps
        completing at ``now``, for :meth:`ServingSession.step`'s
        ``until`` bound, where single-stepping would have dispatched
        them.  The epoch's final step is never taken here: every cutoff
        falls before it, and its own event emits it.
        """
        epoch = self._epoch
        if epoch is None or self._emitting:
            return
        j = epoch.emitted
        last = len(epoch.times) - 1
        if j >= last:
            return
        if now is None:
            now = self.engine.now
        if inclusive:
            j1 = bisect_right(epoch.times, now, j, last)
        else:
            j1 = bisect_left(epoch.times, now, j, last)
        if j1 > j:
            # Steps before the epoch's final one are milestone-free by
            # horizon construction: advance them in bulk.
            self._bulk_advance(j, j1)

    def _emit_step(self, j: int) -> None:
        """Record step ``j``'s tokens at its analytic completion time.

        Members are walked in plan order.  A member takes the per-token
        path through :meth:`_emit_token`, hooks and all, only when it is
        not ``RUNNING`` or when this token is one of the milestones
        :meth:`_open_epoch` ends epochs at: its end-of-think token,
        its first answering token, its final token or its quantum expiry.
        Every other member gets the plain-token subset of
        :meth:`Request.record_token` that :meth:`_bulk_advance` applies to
        earlier steps.  A milestone member's hooks therefore see this
        step's tokens of the members before it and none of the members
        after it, exactly as if every member took the per-token path.
        """
        epoch = self._epoch
        now = epoch.times[j]
        self.decode_steps += 1
        quantum = self.scheduler.quantum_tokens
        token_log = self.token_log
        running = _RUNNING
        reasoning = _REASONING
        self._emitting = True
        try:
            for req in epoch.plan.requests:
                g = req.generated_tokens + 1
                answering = req.phase is not reasoning
                if (
                    req.state is not running
                    or (
                        (
                            req.first_answer_t is None
                            or g >= req.reasoning_len + req.answer_len
                        )
                        if answering
                        else g >= req.reasoning_len
                    )
                    or (quantum is not None and req.quantum_used + 1 >= quantum)
                ):
                    self._emit_token(req, now)
                    continue
                req.generated_tokens = g
                req.quantum_used += 1
                self.tokens_generated += 1
                if token_log is not None:
                    token_log.setdefault(req.rid, []).append(now)
        finally:
            self._emitting = False
        epoch.emitted = j + 1

    def _finish_epoch(self) -> None:
        """The epoch's final event fired: emit everything still owed."""
        epoch = self._epoch
        n = len(epoch.times)
        j = epoch.emitted
        if j < n:
            if j < n - 1:
                self._bulk_advance(j, n - 1)
            self._emit_step(n - 1)
        self._epoch = None

    def _bulk_advance(self, j0: int, j1: int) -> None:
        """Emit steps ``[j0, j1)`` and begin ``(j0, j1]`` in one pass.

        Every step strictly before the epoch's final one carries no
        milestone by horizon construction — no phase flip, completion,
        first answering token, or quantum expiry — so its per-token
        effects reduce to the plain-token subset of
        :meth:`Request.record_token`, counter arithmetic, applied here in
        one pass instead of ``batch`` calls per step through
        :meth:`_emit_token`.  An answering member's timing needs no write:
        its open run's end follows its token count.  :meth:`_emit_step`
        applies the same subset, one token at a time, to the final step's
        members that are at no milestone.
        """
        epoch = self._epoch
        plan = epoch.plan
        requests = plan.requests
        k = j1 - j0
        batch = len(requests)
        self.pool.grow_all_n(requests, k, plan.crossings(k))
        plan.steps_taken += k
        plan.kv_total += k * batch
        self.decode_steps += k
        self.tokens_generated += k * batch
        for req in requests:
            req.generated_tokens += k
            req.quantum_used += k
        token_log = self.token_log
        if token_log is not None:
            window = epoch.times[j0:j1]
            for req in requests:
                token_log.setdefault(req.rid, []).extend(window)
        epoch.emitted = j1

    def _truncate_epoch(self) -> None:
        """Cut the in-flight epoch down to its in-flight step."""
        epoch = self._epoch
        keep = epoch.emitted + 1  # emitted steps plus the one in flight
        if keep >= len(epoch.times):
            return  # already at the final step; the event stands
        del epoch.times[keep:]
        if epoch.base is not None:
            del self.step_log[epoch.base + keep :]
        epoch.event.cancelled = True
        epoch.event = self.engine.schedule(
            epoch.times[-1], EventKind.STEP_COMPLETE, self
        )

    def _open_epoch(self, plan: StepPlan, now: float) -> None:
        """Open a decode epoch over the plan's provably-clean horizon and
        begin its first step.

        One pass over the members fills a fresh plan's ``kv_total`` and
        crossing histogram, finds the milestone horizon and makes step 0's
        state writes.  The horizon is the fewest tokens any member has
        left before its phase flip (reasoning) or completion (answering)
        or its quantum expiry, and one token when its next token is its
        first answering one (a lifecycle-hook milestone).  It is then
        capped by the number of block-boundary crossings the free GPU
        pool can absorb.  Milestones therefore always land on the epoch's
        *final* step, whose ``STEP_COMPLETE`` is a real event dispatched
        at its true time.  The step times come from
        :meth:`PerfModel.decode_epoch`, and go to the step log when a
        member is answering; the same pass opens the answering members'
        runs that do not continue (see the module docstring).
        """
        log = self.step_log
        if len(log) >= STEP_LOG_CHUNK:
            log = self.step_log = array("d")
        base = len(log)
        answering = False
        pool = self.pool
        block_size = pool.block_size
        requests = plan.requests
        batch = len(requests)
        fresh = not plan.crossing_counts
        if fresh:
            counts = [0] * block_size
            kv_total = 0
        else:
            counts = plan.crossing_counts
            kv_total = plan.kv_total
        coalesce = self.config.epoch_coalescing
        quantum = self.scheduler.quantum_tokens
        horizon = sys.maxsize
        running = _RUNNING
        reasoning = _REASONING
        for r in requests:
            if fresh:
                kv = r.kv_tokens
                kv_total += kv
                counts[-kv % block_size] += 1
            phase = r.phase
            if coalesce:
                if phase is reasoning:
                    d = r.reasoning_len - r.generated_tokens
                elif r.first_answer_t is None:
                    d = 1
                else:
                    d = r.reasoning_len + r.answer_len - r.generated_tokens
                if quantum is not None:
                    q = quantum - r.quantum_used
                    if q < d:
                        d = q
                if d < horizon:
                    horizon = d
            if phase is _ANSWERING:
                answering = True
                if r.state is not running or r.run_chunk is not log:
                    r.open_run(log, base)
            if r.state is not running:
                r.set_state(running, now)
            elif phase is _ANSWERING and r.answer_sched_t is None:
                # Phase flipped mid-batch and the request kept its slot:
                # its answering service starts with this step.
                r.answer_sched_t = now
        if fresh:
            plan.crossing_counts = counts
            plan.steps_taken = 0
        if not coalesce or horizon < 1:
            horizon = 1
        else:
            # Block cap: each full block_size-step cycle grows the batch
            # by exactly batch_size blocks; walk the crossing histogram
            # for the partial cycle the remaining free blocks allow.
            cycles, budget = divmod(pool.gpu_free_blocks(), batch)
            cap = cycles * block_size
            s = plan.steps_taken
            while True:
                crossing = counts[s % block_size]
                if crossing > budget:
                    break
                budget -= crossing
                cap += 1
                s += 1
            if cap < horizon:
                horizon = cap if cap > 1 else 1
        # Step 0's growth; its latency is computed from the post-growth
        # batch KV, and the swap overhead lands on it alone.
        pool.grow_all(requests, counts[plan.steps_taken % block_size])
        plan.steps_taken += 1
        kv_total += batch
        plan.kv_total = kv_total
        overhead = self.overhead_s
        self.overhead_s = 0.0
        times = self.perf.decode_epoch(batch, kv_total, horizon, now, overhead)
        if answering:
            log.extend(times)
        self.busy = True
        event = self.engine.schedule(times[-1], EventKind.STEP_COMPLETE, self)
        self._epoch = _DecodeEpoch(
            plan, times, event, base if answering else None
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _emit_token(self, req: Request, now: float) -> None:
        was_reasoning = req.phase == Phase.REASONING
        awaiting_first_answer = req.first_answer_t is None
        req.record_token(now)
        self.tokens_generated += 1
        if self.token_log is not None:
            self.token_log.setdefault(req.rid, []).append(now)
        if awaiting_first_answer and req.first_answer_t is not None:
            # Fired before any completion hook: a one-token answer reaches
            # its TTFT milestone and finishes on the same token.
            self.on_first_token(req, now)
        if req.finished:
            self.pool.release(req)
            self.requests.discard(req)
            self.scheduler.dequeue(req)
            self.mark_dirty()
            self.on_complete(req, now)
            return
        if was_reasoning and req.phase == Phase.ANSWERING:
            # The end-of-think token was just produced: phase boundary.
            # PASCAL's band reads the phase, so its key just moved.
            self.requests.flip_to_answering(req)
            self.scheduler.requeue(req)
            self.mark_dirty()
            self.on_transition(req, self, now)
            if req.state == ReqState.MIGRATING:
                return
        quantum = self.scheduler.quantum_tokens
        if quantum is not None and req.quantum_used >= quantum:
            self.scheduler.on_quantum_expired(req, now)
            self.mark_dirty()

    def _growth_feasible(self, plan: StepPlan) -> bool:
        """Can every batched request take one more token without a reform?

        Only a reused decode plan asks, and its first epoch filled its
        crossing histogram."""
        crossings = plan.crossing_counts[
            plan.steps_taken % self.pool.block_size
        ]
        return crossings <= self.pool.gpu_free_blocks()

    def _check_livelock(self, now: float) -> None:
        live = self.live_requests()
        if not live:
            return
        movable = [r for r in live if r.state != ReqState.MIGRATING]
        if movable and self.pool.gpu_used_blocks == 0:
            biggest = max(r.full_kv_tokens for r in movable)
            raise OutOfMemoryError(
                f"instance {self.iid}: no request fits in an empty GPU pool "
                f"(largest footprint {biggest} tokens vs capacity "
                f"{self.pool.gpu_capacity_blocks * self.pool.block_size}); "
                "the workload exceeds single-request capacity"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingInstance(iid={self.iid}, live={len(self.requests)}, "
            f"busy={self.busy}, kv={self.pool.gpu_used_blocks}blk)"
        )
