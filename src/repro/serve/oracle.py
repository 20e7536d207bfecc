"""Length oracles: map live HTTP requests onto simulator workload shape.

The simulator does not tokenize or run a model — a request is three token
counts (prompt / reasoning / answer) and a dataset label.  A live HTTP
request carries none of those, so the gateway consults a *length oracle*
to decide what simulated request an incoming completion call becomes:

* :class:`HeaderOracle` — the client pins exact lengths with
  ``x-pascal-*`` headers (the precise tool for scripted load tests);
* :class:`TraceOracle` — lengths are drawn from a recorded trace file,
  cycled in order (replay the *shape* of real traffic against live
  arrival times);
* :class:`SampledOracle` — lengths are sampled from a named dataset
  model with a seeded RNG (the predictor-only setting: nothing is known
  per request beyond the traffic mix).

Oracles compose with :class:`OracleChain`: the first oracle to claim a
request wins.  :func:`default_oracle` chains headers over dataset
sampling, so explicit headers always take precedence.

Every oracle is deterministic given its construction arguments and the
order of incoming requests — live runs stay replayable.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.workload.datasets import resolve_dataset
from repro.workload.request import Request
from repro.workload.trace import load_trace

#: Request headers understood by :class:`HeaderOracle` (case-insensitive;
#: the gateway lower-cases header names before lookup).
HEADER_PROMPT = "x-pascal-prompt-tokens"
HEADER_REASONING = "x-pascal-reasoning-tokens"
HEADER_ANSWER = "x-pascal-answer-tokens"
HEADER_DATASET = "x-pascal-dataset"


class OracleError(ValueError):
    """A live request could not be mapped to workload parameters.

    The gateway surfaces this as an HTTP 400 with the message as the
    error body — it marks client mistakes (bad header values), not
    server faults.
    """


def estimate_prompt_tokens(payload: Mapping) -> int:
    """Rough prompt length from the chat payload (~4 chars per token).

    Good enough for a simulator whose prompt length only sizes the
    prefill pass and KV footprint; clients needing exact control send
    the ``x-pascal-prompt-tokens`` header instead.
    """
    messages = payload.get("messages", ())
    chars = 0
    if isinstance(messages, Sequence):
        for message in messages:
            if isinstance(message, Mapping):
                chars += len(str(message.get("content", "")))
    return max(1, chars // 4)


class LengthOracle:
    """Abstract request-shape resolver.

    :meth:`resolve` returns the simulated :class:`Request` for a live
    call, or ``None`` to decline (letting the next oracle in a chain
    try).  Invalid client input raises :class:`OracleError`.
    """

    def resolve(
        self,
        rid: int,
        arrival_t: float,
        headers: Mapping[str, str],
        payload: Mapping,
    ) -> Request | None:
        raise NotImplementedError


class HeaderOracle(LengthOracle):
    """Exact lengths from ``x-pascal-*`` headers.

    Claims a request when any length header is present.  Unspecified
    lengths default to: prompt — estimated from the message text,
    reasoning — 0 (a plain chat request), answer — 64 tokens.  The
    dataset label defaults to ``"http"``.
    """

    DEFAULT_ANSWER_TOKENS = 64

    def resolve(
        self,
        rid: int,
        arrival_t: float,
        headers: Mapping[str, str],
        payload: Mapping,
    ) -> Request | None:
        present = [
            name
            for name in (HEADER_PROMPT, HEADER_REASONING, HEADER_ANSWER)
            if name in headers
        ]
        if not present:
            return None
        prompt = self._int_header(
            headers, HEADER_PROMPT, estimate_prompt_tokens(payload), minimum=1
        )
        reasoning = self._int_header(headers, HEADER_REASONING, 0, minimum=0)
        answer = self._int_header(
            headers, HEADER_ANSWER, self.DEFAULT_ANSWER_TOKENS, minimum=1
        )
        return Request(
            rid=rid,
            prompt_len=prompt,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=arrival_t,
            dataset=headers.get(HEADER_DATASET, "http"),
        )

    @staticmethod
    def _int_header(
        headers: Mapping[str, str], name: str, default: int, minimum: int
    ) -> int:
        text = headers.get(name)
        if text is None:
            return default
        try:
            value = int(text)
        except ValueError:
            raise OracleError(
                f"header {name} must be an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise OracleError(
                f"header {name} must be >= {minimum}, got {value}"
            )
        return value


class TraceOracle(LengthOracle):
    """Lengths cycled from a recorded trace file, in file order.

    The k-th live request takes the shape (prompt/reasoning/answer
    lengths, dataset, prefill flag) of the k-th trace record, wrapping
    around — arrival times and any scripted cancellations in the file
    are ignored; the live clock and live disconnects provide those.
    """

    def __init__(self, path: str):
        self._shapes = load_trace(path)
        if not self._shapes:
            raise ValueError(f"trace {path!r} holds no requests")
        self._cursor = 0

    def resolve(
        self,
        rid: int,
        arrival_t: float,
        headers: Mapping[str, str],
        payload: Mapping,
    ) -> Request | None:
        shape = self._shapes[self._cursor % len(self._shapes)]
        self._cursor += 1
        return Request(
            rid=rid,
            prompt_len=shape.prompt_len,
            reasoning_len=shape.reasoning_len,
            answer_len=shape.answer_len,
            arrival_t=arrival_t,
            skip_prefill=shape.skip_prefill,
            dataset=shape.dataset,
        )


class SampledOracle(LengthOracle):
    """Lengths sampled from a dataset model with a seeded RNG.

    ``dataset`` is any registered dataset name, or
    ``"reasoning-heavy-mix"`` for the paper's mixed workload.  Sampling
    order is the arrival order of live requests, so a run is
    reproducible from (dataset, seed, arrival sequence).
    """

    def __init__(self, dataset: str = "alpaca-eval-2.0", seed: int = 0):
        self._dataset = resolve_dataset(dataset)
        self._rng = random.Random(seed)

    def resolve(
        self,
        rid: int,
        arrival_t: float,
        headers: Mapping[str, str],
        payload: Mapping,
    ) -> Request | None:
        return self._dataset.sample_request(rid, arrival_t, self._rng)


class OracleChain(LengthOracle):
    """First oracle to claim a request wins; exhaustion is an error."""

    def __init__(self, oracles: Sequence[LengthOracle]):
        if not oracles:
            raise ValueError("OracleChain needs at least one oracle")
        self.oracles = tuple(oracles)

    def resolve(
        self,
        rid: int,
        arrival_t: float,
        headers: Mapping[str, str],
        payload: Mapping,
    ) -> Request | None:
        for oracle in self.oracles:
            request = oracle.resolve(rid, arrival_t, headers, payload)
            if request is not None:
                return request
        raise OracleError(
            "no oracle claimed the request (send x-pascal-* headers, or "
            "configure a trace/sampled oracle)"
        )


def default_oracle(
    dataset: str = "alpaca-eval-2.0", seed: int = 0
) -> OracleChain:
    """Headers when given, dataset sampling otherwise."""
    return OracleChain((HeaderOracle(), SampledOracle(dataset, seed)))
