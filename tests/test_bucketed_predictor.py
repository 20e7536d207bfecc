"""The per-bucket EWMA predictor (`ExtensionPolicyConfig.predictor`)."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, ExtensionPolicyConfig, InstanceConfig
from repro.core.extensions import (
    BucketedEWMAPredictor,
    PREDICTORS,
    ReasoningLengthPredictor,
    make_predictor,
)
from repro.workload.datasets import GPQA, MATH_500
from repro.workload.request import Request


def observe_stream(predictor, spec, n=1500, seed=1):
    rng = random.Random(seed)
    for i in range(n):
        length = spec.reasoning.sample(rng)
        req = Request(
            rid=i, prompt_len=10, reasoning_len=length, answer_len=5,
            dataset=spec.name,
        )
        predictor.observe(req, length)


class TestFactory:
    def test_default_is_flat_ewma(self):
        predictor = make_predictor(ExtensionPolicyConfig())
        assert type(predictor) is ReasoningLengthPredictor

    def test_bucketed_selects_subclass_with_knobs(self):
        knobs = ExtensionPolicyConfig(predictor="bucketed-ewma")
        predictor = make_predictor(knobs)
        assert isinstance(predictor, BucketedEWMAPredictor)
        assert predictor.alpha == 0.25
        assert predictor.prior_tokens == 600
        assert predictor.hist_alpha == pytest.approx(0.025)

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="bucketed-ewma, ewma, pairwise-ltr"):
            make_predictor(ExtensionPolicyConfig(predictor="quantile"))

    def test_registry_names(self):
        assert sorted(PREDICTORS) == ["bucketed-ewma", "ewma", "pairwise-ltr"]


class TestBucketedEstimator:
    def test_unseen_dataset_falls_back_like_flat_ewma(self):
        predictor = BucketedEWMAPredictor(prior_tokens=700)
        req = Request(rid=0, prompt_len=5, reasoning_len=5, answer_len=5,
                      dataset="new")
        assert predictor.predict_total(req) == 700.0

    def test_cross_dataset_fallback_uses_global_mean(self):
        predictor = BucketedEWMAPredictor()
        seen = Request(rid=0, prompt_len=5, reasoning_len=100, answer_len=5,
                       dataset="a")
        predictor.observe(seen, 100)
        other = Request(rid=1, prompt_len=5, reasoning_len=5, answer_len=5,
                        dataset="b")
        # Dataset "b" has no buckets: global EWMA (one observation) wins.
        assert predictor.predict_total(other) == 100.0

    def test_tracks_median_not_mean_on_skewed_stream(self):
        """Nine short requests and one huge one: the flat EWMA is dragged
        toward the tail, the bucketed estimator stays at the body."""
        flat = ReasoningLengthPredictor()
        bucketed = BucketedEWMAPredictor()
        values = [100] * 9 + [10000]
        for i, value in enumerate(values):
            req = Request(rid=i, prompt_len=5, reasoning_len=value,
                          answer_len=5, dataset="d")
            flat.observe(req, value)
            bucketed.observe(req, value)
        probe = Request(rid=99, prompt_len=5, reasoning_len=5, answer_len=5,
                        dataset="d")
        assert flat.predict_total(probe) > 2000  # tail-dragged
        assert bucketed.predict_total(probe) == pytest.approx(100.0)

    @pytest.mark.parametrize("spec", [GPQA, MATH_500], ids=lambda s: s.name)
    def test_beats_flat_ewma_on_lognormal_abs_error(self, spec):
        """The satellite's target: lower mean |predicted - actual| than the
        flat EWMA on the paper's lognormal length models."""
        flat = ReasoningLengthPredictor()
        bucketed = BucketedEWMAPredictor()
        observe_stream(flat, spec)
        observe_stream(bucketed, spec)
        flat_errors = flat.abs_errors[spec.name]
        bucketed_errors = bucketed.abs_errors[spec.name]
        flat_mean = sum(flat_errors) / len(flat_errors)
        bucketed_mean = sum(bucketed_errors) / len(bucketed_errors)
        assert bucketed_mean < flat_mean

    def test_prequential_scoring_uses_bucketed_estimate(self):
        """The error ledger must score *this* estimator, not the base's."""
        predictor = BucketedEWMAPredictor(prior_tokens=600)
        first = Request(rid=0, prompt_len=5, reasoning_len=50, answer_len=5,
                        dataset="d")
        predictor.observe(first, 50)   # scored against the prior (600)
        second = Request(rid=1, prompt_len=5, reasoning_len=60, answer_len=5,
                         dataset="d")
        predictor.observe(second, 60)  # scored against bucket value (50)
        assert predictor.abs_errors["d"] == [550.0, 10.0]


class TestEndToEnd:
    def run(self, predictor_name):
        config = ClusterConfig(
            n_instances=2,
            instance=InstanceConfig(kv_capacity_tokens=40000),
            extensions=ExtensionPolicyConfig(predictor=predictor_name),
        )
        cluster = Cluster(config, policy="length-predictive")
        rng = random.Random(7)
        t, requests = 0.0, []
        for rid in range(30):
            t += rng.expovariate(2.0)
            requests.append(GPQA.sample_request(rid, t, rng))
        cluster.run_trace(requests)
        return cluster

    def test_length_predictive_runs_with_bucketed_predictor(self):
        cluster = self.run("bucketed-ewma")
        assert isinstance(cluster.policy.predictor, BucketedEWMAPredictor)
        assert len(cluster.completed) == 30
        errors = cluster.policy.predictor_errors()
        assert GPQA.name in errors and errors[GPQA.name]

    def test_bad_predictor_name_surfaces_at_bind(self):
        config = ClusterConfig(
            extensions=ExtensionPolicyConfig(predictor="nope")
        )
        with pytest.raises(ValueError, match="unknown predictor"):
            Cluster(config, policy="length-predictive")

    def test_tiered_express_honours_predictor_knob(self):
        config = ClusterConfig(
            n_instances=4,
            instance=InstanceConfig(kv_capacity_tokens=40000),
            extensions=ExtensionPolicyConfig(predictor="bucketed-ewma"),
        )
        cluster = Cluster(config, policy="tiered-express")
        assert isinstance(cluster.policy.predictor, BucketedEWMAPredictor)


def req(dataset: str, rid: int = 0) -> Request:
    return Request(
        rid=rid, prompt_len=10, reasoning_len=10, answer_len=5,
        dataset=dataset,
    )


class TestColdStartDegenerateHistogram:
    """Regression: observations present but every bucket weight ~zero.

    With an adversarially tiny ``alpha``, ``hist_alpha = alpha / 10``
    underflows to exactly 0.0, so every observation leaves its bucket
    weight at zero.  The old weighted-median walk then compared a zero
    cumulative against a zero half-mass and returned the *lowest*
    bucket's stale value — a degenerate estimate bearing no relation to
    the observed stream.  The fix detects the zero-mass histogram and
    falls back to the flat-EWMA chain, which is well defined whenever
    the dataset has observations at all.
    """

    def test_zero_mass_histogram_falls_back_to_flat_ewma(self):
        predictor = BucketedEWMAPredictor(alpha=5e-324)
        assert predictor.hist_alpha == 0.0  # the underflow premise
        # A large observation first, then a tiny one: the old code
        # returned the tiny one (lowest bucket wins a zero-mass walk).
        predictor.observe(req("cold", rid=0), 6000)
        predictor.observe(req("cold", rid=1), 10)
        estimate = predictor.predict_total(req("cold", rid=2))
        flat = ReasoningLengthPredictor(alpha=5e-324)
        flat.observe(req("cold", rid=0), 6000)
        flat.observe(req("cold", rid=1), 10)
        assert estimate == pytest.approx(flat.predict_total(req("cold")))
        assert estimate > 1000  # nowhere near the degenerate 10

    def test_unseen_dataset_still_uses_fallback_chain(self):
        # The guard must not shadow the existing no-observations path.
        predictor = BucketedEWMAPredictor(alpha=5e-324, prior_tokens=700)
        assert predictor.predict_total(req("never-seen")) == 700.0

    def test_healthy_alpha_unaffected_by_the_guard(self):
        predictor = BucketedEWMAPredictor(alpha=0.25)
        for i, value in enumerate((100, 110, 90, 105, 95)):
            predictor.observe(req("warm", rid=i), value)
        estimate = predictor.predict_total(req("warm"))
        assert 80 <= estimate <= 120  # weighted median of the body
