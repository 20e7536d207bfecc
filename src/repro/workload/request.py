"""Request lifecycle: phases, scheduling states, and time accounting.

A reasoning-LLM request moves through (Figure 1(b) of the paper):

1. **prefill** — the prompt is processed in one compute-bound pass;
2. **reasoning phase** — hidden chain-of-thought tokens are decoded
   auto-regressively, terminated by the ``</think>`` token;
3. **answering phase** — user-visible tokens are decoded and streamed.

Following Section II-D, the *reasoning phase* is defined to include the
prefill stage, and TTFT is the latency from arrival to the first answering
token.  TTFAT is the latency from the end of reasoning to that same token.

The class also keeps the per-phase breakdown of where wall-clock time went
(executed vs blocked vs preempted) that Figures 4, 5 and 13 report.

**Answer timing.**  The answering phase is judged by each answering
token's completion time (the QoE of Section III-B).  Every member of a
decode batch finishes a step at the same instant, so the serving
instance logs each decode step's completion time once, in its *step
log* (``array('d')`` chunks), and a request stores its answer timing as
a few *runs*: slices ``(chunk, lo, hi)`` of such a log.  Closed runs sit
in :attr:`Request.closed_runs`, three flat entries each.  The one open
run is ``chunk[lo : offset + generated_tokens]``
(:attr:`Request.run_chunk`, :attr:`Request.run_lo`,
:attr:`Request.run_offset`), so its end follows the token count and
recording a token writes no timing at all.  The instance opens or
continues a run with :meth:`Request.open_run` when an epoch begins;
:meth:`Request.record_token` gives a token a one-token run of its own
only when no run is open (the prefill-step token of a request without a
reasoning phase).  :attr:`Request.answer_token_times` builds the list
from the runs, and :attr:`Request.answered_tokens` is the count.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum, auto


class Phase(Enum):
    """Which functional phase of decoding a request is in."""

    REASONING = auto()
    ANSWERING = auto()
    DONE = auto()


class ReqState(Enum):
    """Scheduling state of a request within (or between) instances."""

    #: Waiting in an instance queue; KV may or may not be allocated yet.
    QUEUED = auto()
    #: Member of the current execution batch.
    RUNNING = auto()
    #: Evicted; KV cache offloaded to CPU memory.
    PREEMPTED = auto()
    #: KV cache in flight to another instance at a phase boundary.
    MIGRATING = auto()
    #: All answering tokens generated.
    FINISHED = auto()
    #: Abandoned by its client before completing (terminal, not an error).
    CANCELLED = auto()
    #: Turned away by admission control before placement (terminal).
    REJECTED = auto()


#: States a request never leaves.
_TERMINAL = (ReqState.FINISHED, ReqState.CANCELLED, ReqState.REJECTED)


#: Time-accounting buckets used by the latency-breakdown figures.
BUCKET_EXECUTED = "executed"
BUCKET_BLOCKED = "blocked"
BUCKET_PREEMPTED = "preempted"

_STATE_BUCKET = {
    ReqState.QUEUED: BUCKET_BLOCKED,
    ReqState.RUNNING: BUCKET_EXECUTED,
    ReqState.PREEMPTED: BUCKET_PREEMPTED,
    ReqState.MIGRATING: BUCKET_PREEMPTED,
}


def _breakdown_keys(phase: Phase) -> dict[ReqState, tuple[Phase, str]]:
    """State -> breakdown key within ``phase``, one tuple per bucket."""
    keys = {
        bucket: (phase, bucket)
        for bucket in (BUCKET_EXECUTED, BUCKET_BLOCKED, BUCKET_PREEMPTED)
    }
    return {state: keys[bucket] for state, bucket in _STATE_BUCKET.items()}


#: Phase -> state -> ``(phase, bucket)`` breakdown key.  The six keys are
#: built once here, so every request's breakdown shares them.
_BREAKDOWN_KEY = {
    phase: _breakdown_keys(phase)
    for phase in (Phase.REASONING, Phase.ANSWERING)
}


class Request:
    """One inference request and its full measurement record."""

    __slots__ = (
        "rid",
        "prompt_len",
        "reasoning_len",
        "answer_len",
        "arrival_t",
        "skip_prefill",
        "dataset",
        "cancel_at",
        # live scheduling state
        "phase",
        "state",
        "instance_id",
        "prefill_done",
        "generated_tokens",
        "kv_tokens",
        "on_gpu",
        "quantum_used",
        "level",
        "demoted",
        "enqueue_seq",
        # accounting
        "_state_since",
        "breakdown",
        "first_sched_t",
        "prefill_end_t",
        "reasoning_end_t",
        "first_answer_t",
        "answer_sched_t",
        "done_t",
        "cancelled_t",
        # answer timing (see the module docstring)
        "closed_runs",
        "run_chunk",
        "run_lo",
        "run_offset",
        "n_preemptions",
        "n_migrations",
        "transfer_wait_s",
    )

    def __init__(
        self,
        rid: int,
        prompt_len: int,
        reasoning_len: int,
        answer_len: int,
        arrival_t: float = 0.0,
        skip_prefill: bool = False,
        dataset: str = "",
    ):
        if prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        if reasoning_len < 0 or answer_len < 1:
            raise ValueError("reasoning_len must be >= 0 and answer_len >= 1")
        self.rid = rid
        self.prompt_len = prompt_len
        self.reasoning_len = reasoning_len
        self.answer_len = answer_len
        self.arrival_t = arrival_t
        self.skip_prefill = skip_prefill
        self.dataset = dataset
        #: Scripted cancellation time (trace replay); ``None`` = never.
        self.cancel_at: float | None = None

        self.phase = Phase.REASONING if reasoning_len > 0 else Phase.ANSWERING
        self.state = ReqState.QUEUED
        self.instance_id: int | None = None
        self.prefill_done = False
        self.generated_tokens = 0
        self.kv_tokens = 0
        self.on_gpu = False
        self.quantum_used = 0
        self.level = 0
        self.demoted = False
        self.enqueue_seq = 0

        self._state_since = arrival_t
        self.breakdown: dict[tuple[Phase, str], float] = {}
        self.first_sched_t: float | None = None
        self.prefill_end_t: float | None = None
        self.reasoning_end_t: float | None = None
        self.first_answer_t: float | None = None
        self.answer_sched_t: float | None = None
        self.done_t: float | None = None
        self.cancelled_t: float | None = None
        #: Closed answer-timing runs, flat: ``chunk, lo, hi`` per run.
        self.closed_runs: tuple = ()
        #: The open run's step-log chunk (None: no run open), its first
        #: index, and its end less ``generated_tokens``.
        self.run_chunk: Sequence[float] | None = None
        self.run_lo = 0
        self.run_offset = 0
        self.n_preemptions = 0
        self.n_migrations = 0
        self.transfer_wait_s = 0.0

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def total_decode_tokens(self) -> int:
        """Tokens this request will generate across both phases."""
        return self.reasoning_len + self.answer_len

    @property
    def remaining_tokens(self) -> int:
        """Decode tokens still to be generated."""
        return self.total_decode_tokens - self.generated_tokens

    @property
    def finished(self) -> bool:
        return self.state == ReqState.FINISHED

    @property
    def terminal(self) -> bool:
        """Finished, cancelled or rejected: the lifecycle is over."""
        return self.state in _TERMINAL

    @property
    def in_reasoning(self) -> bool:
        return self.phase == Phase.REASONING

    @property
    def in_answering(self) -> bool:
        return self.phase == Phase.ANSWERING

    @property
    def full_kv_tokens(self) -> int:
        """KV footprint if the request were fully cached right now."""
        return self.prompt_len + self.generated_tokens

    def ttft(self) -> float | None:
        """Time-To-First-(answering)-Token, per the paper's definition."""
        if self.first_answer_t is None:
            return None
        return self.first_answer_t - self.arrival_t

    def ttfat(self) -> float | None:
        """Time from end of reasoning to the first answering token."""
        if self.first_answer_t is None or self.reasoning_end_t is None:
            return None
        return self.first_answer_t - self.reasoning_end_t

    def blocking_latency(self) -> float | None:
        """Transition-to-first-answering-schedule delay (Figure 13(c))."""
        if self.answer_sched_t is None or self.reasoning_end_t is None:
            return None
        return self.answer_sched_t - self.reasoning_end_t

    def e2e_latency(self) -> float | None:
        """Arrival to final answering token."""
        if self.done_t is None:
            return None
        return self.done_t - self.arrival_t

    def phase_time(self, phase: Phase, bucket: str) -> float:
        """Accumulated seconds for one (phase, bucket) cell."""
        return self.breakdown.get((phase, bucket), 0.0)

    def reasoning_latency(self) -> float | None:
        """Arrival to end of reasoning (prefill included, Section II-D)."""
        if self.reasoning_end_t is None:
            return None
        return self.reasoning_end_t - self.arrival_t

    # ------------------------------------------------------------------
    # answer timing
    # ------------------------------------------------------------------
    @property
    def answered_tokens(self) -> int:
        """Answering tokens generated so far."""
        return max(0, self.generated_tokens - self.reasoning_len)

    def answer_runs(self) -> list[tuple[Sequence[float], int, int]]:
        """The answer timing as ``(chunk, lo, hi)`` slices in token order:
        the closed runs, then the open one if it holds a token."""
        flat = self.closed_runs
        runs = [flat[k : k + 3] for k in range(0, len(flat), 3)]
        chunk = self.run_chunk
        if chunk is not None:
            hi = self.run_offset + self.generated_tokens
            if hi > self.run_lo:
                runs.append((chunk, self.run_lo, hi))
        return runs

    @property
    def answer_token_times(self) -> list[float]:
        """Completion time of every answering token so far, in order: a
        new list built from the runs."""
        times: list[float] = []
        for chunk, lo, hi in self.answer_runs():
            times += chunk[lo:hi]
        return times

    @answer_token_times.setter
    def answer_token_times(self, times: Sequence[float]) -> None:
        """Replace the answer timing by ``times``, kept as one closed run."""
        self.closed_runs = (tuple(times), 0, len(times)) if times else ()
        self.run_chunk = None

    def open_run(self, chunk: Sequence[float], base: int) -> None:
        """This request's next tokens complete at ``chunk[base]``,
        ``chunk[base + 1]``, ...: continue the open run if it ends just
        there, else close it (unless empty) and open a new one."""
        g = self.generated_tokens
        old = self.run_chunk
        if old is not None:
            hi = self.run_offset + g
            if old is chunk and hi == base:
                return
            if hi > self.run_lo:
                self.closed_runs += (old, self.run_lo, hi)
        self.run_chunk = chunk
        self.run_lo = base
        self.run_offset = base - g

    # ------------------------------------------------------------------
    # state transitions (called by the serving instance)
    # ------------------------------------------------------------------
    def _accumulate(self, now: float) -> None:
        if self.state in _TERMINAL:
            return
        elapsed = now - self._state_since
        if elapsed < 0:
            raise ValueError(
                f"clock moved backwards for request {self.rid}: "
                f"{now} < {self._state_since}"
            )
        if elapsed > 0:
            key = _BREAKDOWN_KEY[self.phase][self.state]
            self.breakdown[key] = self.breakdown.get(key, 0.0) + elapsed
        self._state_since = now

    def set_state(self, state: ReqState, now: float) -> None:
        """Move to a new scheduling state, closing the current interval."""
        self._accumulate(now)
        if state == ReqState.RUNNING and self.first_sched_t is None:
            self.first_sched_t = now
        if (
            state == ReqState.RUNNING
            and self.in_answering
            and self.answer_sched_t is None
        ):
            self.answer_sched_t = now
        if state == ReqState.PREEMPTED and self.state == ReqState.RUNNING:
            self.n_preemptions += 1
        self.state = state

    def note_phase_boundary(self, now: float) -> None:
        """Close the accounting interval exactly at the phase flip."""
        self._accumulate(now)

    def record_token(self, now: float) -> None:
        """Account for one decode token generated at time ``now``.

        Handles the reasoning->answering flip: the token whose index exceeds
        ``reasoning_len`` is the first user-visible answering token.
        """
        if self.state != ReqState.RUNNING:
            raise RuntimeError(
                f"request {self.rid} generated a token while {self.state.name}"
            )
        self.generated_tokens += 1
        self.quantum_used += 1
        if self.phase == Phase.REASONING:
            if self.generated_tokens == self.reasoning_len:
                # This token is the end-of-think marker: reasoning complete.
                # The request is re-enqueued as an answering request; its
                # blocking latency (Figure 13(c)) counts from here until the
                # scheduler next gives it a decode slot.
                self.note_phase_boundary(now)
                self.reasoning_end_t = now
                self.phase = Phase.ANSWERING
        else:
            if self.first_answer_t is None:
                self.first_answer_t = now
            if self.run_chunk is None:
                # No open run logs this token: it gets a run of its own.
                self.closed_runs += ((now,), 0, 1)
            if self.generated_tokens >= self.total_decode_tokens:
                self._accumulate(now)
                self.phase = Phase.DONE
                self.state = ReqState.FINISHED
                self.done_t = now

    def mark_cancelled(self, now: float) -> None:
        """Terminate the request as client-cancelled.

        The phase is left where the cancel caught it (it records how far
        the request got); only the scheduling state becomes terminal.
        """
        if self.terminal:
            raise RuntimeError(
                f"request {self.rid} cancelled while already {self.state.name}"
            )
        if now >= self._state_since:
            self._accumulate(now)
        # else: cancelled before its nominal arrival — no interval to close.
        self.state = ReqState.CANCELLED
        self.cancelled_t = now

    @property
    def cancelled(self) -> bool:
        return self.state == ReqState.CANCELLED

    def mark_reasoning_precomputed(self, now: float) -> None:
        """Treat prefill+reasoning as already executed (Figure 5 workload)."""
        if self.reasoning_len != 0:
            raise ValueError("precomputed requests must have reasoning_len == 0")
        self.reasoning_end_t = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(rid={self.rid}, {self.phase.name}/{self.state.name}, "
            f"gen={self.generated_tokens}/{self.total_decode_tokens}, "
            f"kv={self.kv_tokens})"
        )
