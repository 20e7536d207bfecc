"""The pairwise learning-to-rank predictor (``predictor="pairwise-ltr"``).

Unit tests for the RankNet-style online ranker: it must learn orderings
from pairwise completions, score prequentially (pre-update), inherit the
flat-EWMA value chain unchanged, and skip ties.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ExtensionPolicyConfig
from repro.core.extensions import (
    PairwiseLTRPredictor,
    ReasoningLengthPredictor,
    make_predictor,
)
from repro.workload.request import Request


def req(dataset: str, rid: int = 0, prompt_len: int = 10) -> Request:
    return Request(
        rid=rid, prompt_len=prompt_len, reasoning_len=10, answer_len=5,
        dataset=dataset,
    )


def train(predictor, stream, seed=0):
    """Feed (dataset, value) observations in interleaved order."""
    rng = random.Random(seed)
    shuffled = list(stream)
    rng.shuffle(shuffled)
    for i, (dataset, value) in enumerate(shuffled):
        predictor.observe(req(dataset, rid=i), value)


class TestRanking:
    def test_learns_dataset_ordering(self):
        predictor = PairwiseLTRPredictor()
        stream = [("short", 50 + i % 7) for i in range(60)]
        stream += [("long", 4000 + 13 * (i % 5)) for i in range(60)]
        train(predictor, stream)
        assert predictor.rank_of(req("long")) > predictor.rank_of(req("short"))

    def test_untrained_score_is_zero(self):
        predictor = PairwiseLTRPredictor()
        assert predictor.rank_of(req("anything")) == 0.0

    def test_first_rank_pair_scored_pre_update(self):
        # Prequential contract: the recorded score is what the model said
        # *before* seeing the observation — the untrained model says 0.
        predictor = PairwiseLTRPredictor()
        predictor.observe(req("d", rid=0), 500)
        ((score, value),) = predictor.rank_pairs["d"]
        assert score == 0.0
        assert value == 500.0

    def test_later_rank_pairs_reflect_training(self):
        predictor = PairwiseLTRPredictor()
        stream = [("short", 50), ("long", 4000)] * 40
        train(predictor, stream)
        probe = req("long", rid=999)
        before = predictor.rank_of(probe)
        predictor.observe(probe, 4000)
        assert predictor.rank_pairs["long"][-1][0] == pytest.approx(before)

    def test_single_observation_trains_nothing(self):
        # No buffered partner yet: weights stay empty after the first obs.
        predictor = PairwiseLTRPredictor()
        predictor.observe(req("d", rid=0), 500)
        assert predictor._weights == {}

    def test_ties_are_skipped(self):
        # Equal observed lengths carry no ordering signal; pairing them
        # must not move the weights.
        predictor = PairwiseLTRPredictor()
        for i in range(10):
            predictor.observe(req("d", rid=i), 100)
        assert predictor._weights == {}

    def test_ring_buffer_stays_bounded(self):
        predictor = PairwiseLTRPredictor()
        for i in range(3 * PairwiseLTRPredictor.BUFFER_SIZE):
            predictor.observe(req("d", rid=i), 10 + i)
        assert len(predictor._examples) == PairwiseLTRPredictor.BUFFER_SIZE

    def test_scores_are_deterministic(self):
        stream = [("a", 100 + i % 11) for i in range(40)]
        stream += [("b", 900 + i % 17) for i in range(40)]
        first = PairwiseLTRPredictor()
        second = PairwiseLTRPredictor()
        train(first, stream, seed=3)
        train(second, stream, seed=3)
        assert first.rank_of(req("a")) == second.rank_of(req("a"))
        assert first._weights == second._weights


class TestValueFallback:
    def test_predict_total_matches_flat_ewma(self):
        # Value queries are inherited verbatim: same stream, same alpha,
        # same estimates as the plain EWMA — ranking rides on top.
        ltr = PairwiseLTRPredictor(alpha=0.5, prior_tokens=300)
        flat = ReasoningLengthPredictor(alpha=0.5, prior_tokens=300)
        for i, value in enumerate((100, 140, 90, 210, 160)):
            ltr.observe(req("d", rid=i), value)
            flat.observe(req("d", rid=i), value)
        probe = req("d", rid=99)
        assert ltr.predict_total(probe) == flat.predict_total(probe)
        assert ltr.abs_errors["d"] == flat.abs_errors["d"]


class TestFactory:
    def test_make_predictor_threads_knobs(self):
        knobs = ExtensionPolicyConfig(predictor="pairwise-ltr")
        predictor = make_predictor(knobs)
        assert isinstance(predictor, PairwiseLTRPredictor)
        # Smoothing and prior are the predictor classes' own defaults.
        assert predictor.alpha == 0.25
        assert predictor.prior_tokens == 600
