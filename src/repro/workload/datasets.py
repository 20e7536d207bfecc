"""Synthetic dataset trace generators.

The paper builds serving traces by replaying AlpacaEval2.0 / Arena-Hard
(chat) and MATH-500 / GPQA / LiveCodeBench (problem-solving) prompts through
OpenAI's o4-mini and recording reasoning/answering token counts (Figures 8
and 14).  We do not have API access, so each dataset is modelled as a pair
of clipped lognormal distributions whose *arithmetic means* equal the values
printed in those figures and whose supports match the figure axes:

========================  ================  ================
dataset                   reasoning mean    answering mean
========================  ================  ================
AlpacaEval2.0                      557.75            566.85
Arena-Hard                         968.35            824.02
MATH-500                           747.20            164.67
GPQA                              2679.27            316.09
LiveCodeBench                     1896.64            697.09
========================  ================  ================

The lognormal family reproduces the figures' density shape: a sharp peak at
short lengths with a heavy right tail ("more than 70 % of requests generate
fewer than 1,000 reasoning tokens" for the chat datasets, Figure 10 caption).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.rng import RandomStreams, sample_lognormal_int
from repro.workload.request import Request


@dataclass(frozen=True)
class LengthSpec:
    """Clipped lognormal over token counts with a fixed arithmetic mean."""

    mean: float
    sigma: float
    lo: int
    hi: int

    def sample(self, rng: random.Random) -> int:
        return sample_lognormal_int(rng, self.mean, self.sigma, self.lo, self.hi)


@dataclass(frozen=True)
class DatasetSpec:
    """Token-length model for one benchmark dataset."""

    name: str
    prompt: LengthSpec
    reasoning: LengthSpec
    answering: LengthSpec

    def sample_request(self, rid: int, arrival_t: float, rng: random.Random) -> Request:
        """Draw one request with this dataset's length statistics."""
        return Request(
            rid=rid,
            prompt_len=self.prompt.sample(rng),
            reasoning_len=self.reasoning.sample(rng),
            answer_len=self.answering.sample(rng),
            arrival_t=arrival_t,
            dataset=self.name,
        )


# ---------------------------------------------------------------------------
# Chat datasets (Figure 8): long detailed answers.
# ---------------------------------------------------------------------------
ALPACA_EVAL = DatasetSpec(
    name="alpaca-eval-2.0",
    prompt=LengthSpec(mean=60.0, sigma=0.6, lo=8, hi=512),
    reasoning=LengthSpec(mean=557.75, sigma=0.9, lo=16, hi=6000),
    answering=LengthSpec(mean=566.85, sigma=0.8, lo=16, hi=6000),
)

ARENA_HARD = DatasetSpec(
    name="arena-hard",
    prompt=LengthSpec(mean=120.0, sigma=0.8, lo=8, hi=1024),
    reasoning=LengthSpec(mean=968.35, sigma=1.1, lo=16, hi=8000),
    answering=LengthSpec(mean=824.02, sigma=0.9, lo=16, hi=6000),
)

# ---------------------------------------------------------------------------
# Problem-solving datasets (Figure 14): long reasoning, short answers.
# The GPQA reasoning:answering ratio is the paper's quoted 8.48x extreme.
# ---------------------------------------------------------------------------
MATH_500 = DatasetSpec(
    name="math-500",
    prompt=LengthSpec(mean=110.0, sigma=0.6, lo=8, hi=1024),
    reasoning=LengthSpec(mean=747.20, sigma=0.9, lo=16, hi=8000),
    answering=LengthSpec(mean=164.67, sigma=0.8, lo=8, hi=2048),
)

GPQA = DatasetSpec(
    name="gpqa",
    prompt=LengthSpec(mean=220.0, sigma=0.5, lo=16, hi=2048),
    reasoning=LengthSpec(mean=2679.27, sigma=0.9, lo=32, hi=10000),
    answering=LengthSpec(mean=316.09, sigma=0.8, lo=8, hi=2048),
)

LIVECODEBENCH = DatasetSpec(
    name="livecodebench",
    prompt=LengthSpec(mean=280.0, sigma=0.6, lo=16, hi=2048),
    reasoning=LengthSpec(mean=1896.64, sigma=1.0, lo=32, hi=10000),
    answering=LengthSpec(mean=697.09, sigma=0.9, lo=16, hi=4000),
)

CHAT_DATASETS = {spec.name: spec for spec in (ALPACA_EVAL, ARENA_HARD)}
REASONING_HEAVY_DATASETS = {
    spec.name: spec for spec in (MATH_500, GPQA, LIVECODEBENCH)
}
ALL_DATASETS = {**CHAT_DATASETS, **REASONING_HEAVY_DATASETS}


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by its canonical name."""
    try:
        return ALL_DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(ALL_DATASETS)}"
        ) from None


@dataclass(frozen=True)
class MixedDataset:
    """Probability mixture of datasets (Figure 16's 50/50 workload).

    Figure 16 replaces 50 % of the Arena-Hard trace with reasoning-heavy
    requests "sampled uniformly from MATH-500, GPQA, and LiveCodeBench".
    """

    name: str
    components: tuple[tuple[DatasetSpec, float], ...]

    def __post_init__(self) -> None:
        total = sum(weight for _, weight in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    def sample_request(self, rid: int, arrival_t: float, rng: random.Random) -> Request:
        pick = rng.random()
        acc = 0.0
        spec = self.components[-1][0]
        for component, weight in self.components:
            acc += weight
            if pick < acc:
                spec = component
                break
        request = spec.sample_request(rid, arrival_t, rng)
        return request


def reasoning_heavy_mix() -> MixedDataset:
    """The Figure 16 workload: 50 % Arena-Hard, 50 % problem-solving."""
    third = 0.5 / 3.0
    return MixedDataset(
        name="arena-hard+reasoning-heavy",
        components=(
            (ARENA_HARD, 0.5),
            (MATH_500, third),
            (GPQA, third),
            (LIVECODEBENCH, third),
        ),
    )


def resolve_dataset(name: str) -> DatasetSpec | MixedDataset:
    """A registered dataset by name, or ``"reasoning-heavy-mix"`` for the
    Figure 16 mixture; ``KeyError`` (as :func:`get_dataset`) otherwise."""
    if name == "reasoning-heavy-mix":
        return reasoning_heavy_mix()
    return get_dataset(name)


def deferral_stress_mix() -> MixedDataset:
    """The deferral-stress workload: a bimodal chat/problem-solving mix.

    65 % short chat (AlpacaEval, mean reasoning ~560 tokens) against 35 %
    GPQA (mean ~2680, the heaviest tail in the paper's table) — the
    heavy-tail bimodality that makes arrival-time *ranking* decisive: a
    mis-ranked GPQA request parks a multi-thousand-token chain of thought
    in front of dozens of short chats.  Run under a bursty arrival
    process (``EvalSettings.arrival_burst_duty``) by the
    ``deferral-stress`` experiment.
    """
    return MixedDataset(
        name="deferral-stress-mix",
        components=(
            (ALPACA_EVAL, 0.65),
            (GPQA, 0.35),
        ),
    )


def mean_request_tokens(spec: DatasetSpec) -> float:
    """Expected total token work of one request (prompt + both phases)."""
    return spec.prompt.mean + spec.reasoning.mean + spec.answering.mean


def sample_trace(
    spec,
    n_requests: int,
    arrival_times: list[float],
    streams: RandomStreams,
) -> list[Request]:
    """Materialize ``n_requests`` requests with the given arrival times."""
    if len(arrival_times) < n_requests:
        raise ValueError(
            f"need {n_requests} arrival times, got {len(arrival_times)}"
        )
    rng = streams.stream(f"dataset:{spec.name}")
    return [
        spec.sample_request(rid, arrival_times[rid], rng)
        for rid in range(n_requests)
    ]
