"""Extension policies built on the :class:`ClusterPolicy` seam.

Four scenarios beyond the paper's comparison set, all motivated by related
work on LLM serving schedulers:

* ``slo-least-load`` — SLO-aware least-loaded placement in the spirit of
  *SLO-Aware Scheduling for Large Language Model Inferences*: route to the
  SLO-clean instance carrying the least load and re-balance answering
  requests the same way at phase boundaries, subject to PASCAL's adaptive
  memory veto.  The load signal is live request count by default, or —
  with ``ExtensionPolicyConfig.least_load_weighted`` — the monitor's
  *pending decode tokens*, which sees request-size heterogeneity that raw
  queue depth ignores.
* ``length-predictive`` — a length-aware PASCAL variant in the spirit of
  *CascadeInfer: Length-Aware Scheduling of LLM Serving*: an online
  per-dataset EWMA predicts each reasoning request's remaining tokens, and
  arrivals are routed by *predicted future* KV footprint instead of the
  current footprint ``m_i``.  The predictor learns only from observed phase
  transitions — it never peeks at a request's scripted lengths.
* ``tiered-express`` — a heterogeneous pool (CascadeInfer-style length
  tiering): :class:`repro.config.PoolSpec` reserves the lowest-iid
  instances as an FCFS "express" tier, and arrivals whose predicted
  reasoning length falls under the tier threshold are routed there, away
  from the long chains of thought that inflate queueing tails.  The
  remaining instances run PASCAL's hierarchical scheduler.
* ``speculative-replace`` — ALISE-style speculative deferral and
  replacement on top of ``length-predictive``: rank-uncertain arrivals
  wait in the cluster's deferral room until in-flight completions tighten
  the predictor, predicted-long arrivals wait out monitor-reported
  pressure, and on a pressured placement target the predicted-longest
  in-flight reasoning request is demoted (PASCAL's own demotion
  mechanics) to make room.  See :class:`SpeculativeReplacePolicy`.

Every predictor records its per-dataset absolute prediction error, surfaced
through :meth:`~repro.core.policy.ClusterPolicy.predictor_errors` into
:class:`~repro.metrics.collector.RunMetrics`, so predictor quality is a
first-class output of every sweep.  Next to it sits the prequential
*ranking* record (:meth:`ReasoningLengthPredictor.rank_report`): every
observed reasoning length paired with the predictor's pre-update score,
feeding the Kendall-tau rank-correlation columns — the metric placement
actually consumes, since routing and replacement compare requests rather
than read token values.

Three predictor variants are registered
(``ExtensionPolicyConfig.predictor``): the flat per-dataset EWMA
(``"ewma"``, an online mean), the per-bucket EWMA (``"bucketed-ewma"``, an
online weighted-median — see :class:`BucketedEWMAPredictor` — which
resists the lognormal tail that inflates the flat EWMA's absolute error),
and online pairwise learning-to-rank (``"pairwise-ltr"`` — see
:class:`PairwiseLTRPredictor` — which learns the *order* of reasoning
lengths directly from completed-request pairs).

Tunables live in :class:`repro.config.ExtensionPolicyConfig`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.config import ExtensionPolicyConfig
from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.pascal import PascalScheduler
from repro.core.placement import least_kv_placement, least_loaded_clean
from repro.core.policies import PascalPolicy
from repro.core.policy import ClusterPolicy
from repro.core.registry import register_policy
from repro.schedulers.base import IntraScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.serving.instance import ServingInstance
from repro.workload.request import ReqState, Request

if TYPE_CHECKING:  # annotation-only: repro.api imports the cluster core
    from repro.cluster.cluster import Cluster
    from repro.api.admission import AdmissionDecision


class ReasoningLengthPredictor:
    """Online EWMA of reasoning lengths, keyed by dataset label.

    ``observe`` feeds one completed reasoning phase; ``predict_total``
    returns the current estimate for a request's dataset, falling back to
    the global estimate (any dataset) and then to the configured prior.

    Each observation also scores the *one-step-ahead (prequential)* error:
    the current estimate immediately before the update, against the
    observed length.  (Policies consult the predictor continuously, so
    there is no single "routing-time" prediction per request to score;
    predict-then-update is the standard online accuracy metric.)  Absolute
    errors in tokens accumulate per dataset in :attr:`abs_errors`, feeding
    the predictor-accuracy columns of the experiment tables.
    """

    def __init__(self, alpha: float = 0.25, prior_tokens: int = 600):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if prior_tokens < 1:
            raise ValueError(f"prior must be >= 1 token, got {prior_tokens}")
        self.alpha = alpha
        self.prior_tokens = float(prior_tokens)
        self._per_dataset: dict[str, float] = {}
        self._global: float | None = None
        self.n_observations = 0
        #: Per-dataset |predicted - actual| reasoning lengths (tokens), in
        #: observation order.
        self.abs_errors: dict[str, list[float]] = {}
        #: Per-dataset (predicted score, observed length) pairs, same
        #: prequential discipline as :attr:`abs_errors` — the raw
        #: material of the Kendall-tau rank-correlation metric.
        self.rank_pairs: dict[str, list[tuple[float, float]]] = {}

    def observe(self, req: Request, reasoning_tokens: int) -> None:
        """Record one observed reasoning length (at its phase transition)."""
        value = float(reasoning_tokens)
        self.abs_errors.setdefault(req.dataset, []).append(
            abs(self.predict_total(req) - value)
        )
        self.rank_pairs.setdefault(req.dataset, []).append(
            (self.rank_of(req), value)
        )
        current = self._per_dataset.get(req.dataset)
        self._per_dataset[req.dataset] = (
            value
            if current is None
            else current + self.alpha * (value - current)
        )
        self._global = (
            value
            if self._global is None
            else self._global + self.alpha * (value - self._global)
        )
        self.n_observations += 1

    def error_report(self) -> dict[str, tuple[float, ...]]:
        """The accumulated per-dataset absolute errors, frozen for metrics."""
        return {
            dataset: tuple(errors)
            for dataset, errors in sorted(self.abs_errors.items())
        }

    def rank_report(self) -> dict[str, tuple[tuple[float, float], ...]]:
        """The accumulated (score, observed) pairs, frozen for metrics."""
        return {
            dataset: tuple(pairs)
            for dataset, pairs in sorted(self.rank_pairs.items())
        }

    def dataset_observations(self, dataset: str) -> int:
        """Observed reasoning lengths so far for one dataset label."""
        return len(self.abs_errors.get(dataset, ()))

    def predict_total(self, req: Request) -> float:
        """Estimated total reasoning tokens for a request like ``req``."""
        estimate = self._per_dataset.get(req.dataset)
        if estimate is None:
            estimate = self._global
        if estimate is None:
            estimate = self.prior_tokens
        return estimate

    def predict_remaining(self, req: Request, owed: int = 0) -> float:
        """Estimated reasoning tokens ``req`` has still to generate, less
        ``owed`` tokens it generated that are not recorded yet."""
        if not req.in_reasoning:
            return 0.0
        return max(
            self.predict_total(req) - (req.generated_tokens + owed), 0.0
        )

    def rank_of(self, req: Request) -> float:
        """Ranking score: higher = predicted to reason longer.

        For the EWMA family the token estimate itself is the score; the
        pairwise learning-to-rank predictor overrides this with its
        learned (unitless) score.  Kendall-tau over (score, observed)
        pairs is invariant to any strictly monotone rescaling, so the two
        kinds of score are directly comparable in the metrics.
        """
        return self.predict_total(req)


class BucketedEWMAPredictor(ReasoningLengthPredictor):
    """Per-bucket EWMA: a weighted-median estimator for skewed lengths.

    The flat EWMA tracks the *mean* of each dataset's reasoning-length
    distribution — and the paper's datasets are lognormal, so the mean
    sits well above the typical request and every tail observation drags
    the estimate further up.  Mean absolute error (the metric the sweeps
    report) is minimized by the *median*, not the mean.

    This variant keeps, per dataset, a set of geometric length buckets
    (one per bit-length, so ~14 buckets cover 1..16k tokens) holding:

    * an EWMA-decayed **weight** — the recency-weighted fraction of
      observations landing in the bucket.  Weights decay at ``alpha / 10``
      (a median needs a longer memory than a mean: at the raw ``alpha``
      the histogram effectively remembers ~4 observations and the
      "median" is noise — the slow decay recovers nearly the full
      oracle-median gain while still tracking workload drift),
    * an EWMA **value** at the full ``alpha`` — the running estimate of
      lengths within the bucket.

    ``predict_total`` returns the value of the weighted-median bucket —
    the bucket where the cumulative weight first reaches half — which
    follows the distribution's body and ignores how heavy the tail is,
    while still adapting if the workload genuinely shifts.  Selected via
    ``ExtensionPolicyConfig.predictor = "bucketed-ewma"``.

    Error accounting is inherited unchanged: every observation scores the
    one-step-ahead (prequential) absolute error of *this* estimator, so
    flat and bucketed variants are directly comparable in the experiment
    tables.
    """

    #: Histogram weights decay this much slower than the value EWMA.
    HIST_ALPHA_FRACTION = 0.1

    def __init__(self, alpha: float = 0.25, prior_tokens: int = 600):
        super().__init__(alpha, prior_tokens)
        self.hist_alpha = alpha * self.HIST_ALPHA_FRACTION
        #: dataset -> bucket -> EWMA-decayed observation weight.
        self._bucket_weights: dict[str, dict[int, float]] = {}
        #: dataset -> bucket -> EWMA of observed lengths in the bucket.
        self._bucket_values: dict[str, dict[int, float]] = {}

    @staticmethod
    def _bucket(tokens: float) -> int:
        """Geometric bucket index (bit length of the token count)."""
        return max(1, int(tokens)).bit_length()

    def observe(self, req: Request, reasoning_tokens: int) -> None:
        # The base class scores the prequential error first — through the
        # *overridden* predict_total, so the error ledger reflects this
        # estimator — then refreshes the dataset/global fallback means.
        super().observe(req, reasoning_tokens)
        value = float(reasoning_tokens)
        bucket = self._bucket(value)
        weights = self._bucket_weights.setdefault(req.dataset, {})
        values = self._bucket_values.setdefault(req.dataset, {})
        for index in weights:
            weights[index] *= 1.0 - self.hist_alpha
        weights[bucket] = weights.get(bucket, 0.0) + self.hist_alpha
        current = values.get(bucket)
        values[bucket] = (
            value
            if current is None
            else current + self.alpha * (value - current)
        )

    def predict_total(self, req: Request) -> float:
        weights = self._bucket_weights.get(req.dataset)
        if not weights:
            # No observations for this dataset yet: flat-EWMA fallback
            # chain (dataset mean -> global mean -> prior).
            return super().predict_total(req)
        total = sum(weights.values())
        if total <= 0.0:
            # Degenerate histogram: every bucket weight decayed (or, with
            # an adversarially tiny alpha, underflowed) to zero, so a
            # "weighted median" of zero mass would just pick the lowest
            # bucket's stale value.  The dataset *has* observations —
            # fall back to the flat-EWMA chain, whose dataset mean is
            # well defined.
            return super().predict_total(req)
        half = 0.5 * total
        acc = 0.0
        for index in sorted(weights):
            acc += weights[index]
            if acc >= half:
                return self._bucket_values[req.dataset][index]
        # Accumulating in sorted-bucket order can round a hair below the
        # half computed from insertion-order summation; the median is the
        # last bucket then.
        return self._bucket_values[req.dataset][max(weights)]


class PairwiseLTRPredictor(ReasoningLengthPredictor):
    """Online pairwise learning-to-rank over completed-request pairs.

    *Ranking Before Serving*'s observation: placement and preemption
    consume only the **order** of reasoning lengths — which request will
    reason longer — never the token values, so learning the order
    directly is an easier problem than value regression.  This predictor
    keeps a sparse linear model over features observable at arrival:

    * a bias,
    * a dataset one-hot (``dataset:<name>``),
    * the log-scaled prompt length,
    * an arrival-tier one-hot — the geometric tier (bit length) of the
      prompt, the only magnitude a request presents at arrival time.

    Training is online pairwise logistic regression: each observed
    completion is paired with the most recent buffered completions, and
    the model does one SGD step per pair on the logistic loss of
    ``P(i reasons longer than j) = sigmoid(w . (x_i - x_j))`` — the
    classic RankNet/Bradley-Terry objective.  ``alpha`` doubles as the
    SGD step size.

    :meth:`rank_of` returns the learned score ``w . x`` (unitless —
    ordering is the contract).  Value queries (:meth:`predict_total`,
    :meth:`predict_remaining`) fall back to the inherited flat-EWMA
    chain, so policies that need a token estimate still get one; the
    inherited :attr:`abs_errors` therefore scores the EWMA values while
    :attr:`rank_pairs` scores this model, which is exactly the
    regression-vs-ranking comparison the experiment tables print.
    """

    #: Completed examples retained for pairing (features, observed value).
    BUFFER_SIZE = 64
    #: New observations are paired against this many recent examples.
    PAIRS_PER_UPDATE = 8
    #: Clamp on score deltas before the sigmoid (overflow guard).
    MAX_LOGIT = 35.0

    def __init__(self, alpha: float = 0.25, prior_tokens: int = 600):
        super().__init__(alpha, prior_tokens)
        self._weights: dict[str, float] = {}
        #: Ring buffer of recent (features, observed length) examples.
        self._examples: list[tuple[dict[str, float], float]] = []
        self._next_slot = 0

    @staticmethod
    def _features(req: Request) -> dict[str, float]:
        prompt = max(1, req.prompt_len)
        return {
            "bias": 1.0,
            f"dataset:{req.dataset}": 1.0,
            "log-prompt": math.log1p(float(prompt)) / 10.0,
            f"tier:{prompt.bit_length()}": 1.0,
        }

    def _score(self, features: dict[str, float]) -> float:
        # Sorted-key accumulation: float addition is order-sensitive and
        # this score feeds placement decisions.
        return sum(
            self._weights.get(name, 0.0) * features[name]
            for name in sorted(features)
        )

    def rank_of(self, req: Request) -> float:
        return self._score(self._features(req))

    def _sgd_pair(
        self,
        features: dict[str, float],
        value: float,
        other_features: dict[str, float],
        other_value: float,
    ) -> None:
        delta = {
            name: features.get(name, 0.0) - other_features.get(name, 0.0)
            for name in sorted(set(features) | set(other_features))
        }
        logit = sum(
            self._weights.get(name, 0.0) * delta[name]
            for name in sorted(delta)
        )
        logit = max(-self.MAX_LOGIT, min(self.MAX_LOGIT, logit))
        predicted = 1.0 / (1.0 + math.exp(-logit))
        target = 1.0 if value > other_value else 0.0
        gradient = predicted - target
        for name in sorted(delta):
            if delta[name] != 0.0:
                self._weights[name] = (
                    self._weights.get(name, 0.0)
                    - self.alpha * gradient * delta[name]
                )

    def observe(self, req: Request, reasoning_tokens: int) -> None:
        features = self._features(req)
        # The base class scores the prequential records first (rank_pairs
        # via the *overridden* rank_of, pre-update) and refreshes the
        # EWMA value fallbacks.
        super().observe(req, reasoning_tokens)
        value = float(reasoning_tokens)
        recent = self._recent_examples()
        for other_features, other_value in recent:
            if other_value == value:
                continue  # no ordering signal in a tie
            self._sgd_pair(features, value, other_features, other_value)
        if len(self._examples) < self.BUFFER_SIZE:
            self._examples.append((features, value))
        else:
            self._examples[self._next_slot] = (features, value)
            self._next_slot = (self._next_slot + 1) % self.BUFFER_SIZE

    def _recent_examples(self) -> list[tuple[dict[str, float], float]]:
        """The newest ``PAIRS_PER_UPDATE`` buffered examples, oldest first."""
        n = len(self._examples)
        if n <= self.PAIRS_PER_UPDATE:
            return list(self._examples)
        if n < self.BUFFER_SIZE:
            return self._examples[n - self.PAIRS_PER_UPDATE:]
        newest = (self._next_slot - 1) % self.BUFFER_SIZE
        return [
            self._examples[(newest - offset) % self.BUFFER_SIZE]
            for offset in range(self.PAIRS_PER_UPDATE - 1, -1, -1)
        ]


#: Predictor registry keyed by ``ExtensionPolicyConfig.predictor``.
PREDICTORS = {
    "ewma": ReasoningLengthPredictor,
    "bucketed-ewma": BucketedEWMAPredictor,
    "pairwise-ltr": PairwiseLTRPredictor,
}


def make_predictor(knobs: ExtensionPolicyConfig) -> ReasoningLengthPredictor:
    """Build the reasoning-length predictor the config selects."""
    try:
        cls = PREDICTORS[knobs.predictor]
    except KeyError:
        raise ValueError(
            f"unknown predictor {knobs.predictor!r}; expected one of "
            f"{', '.join(sorted(PREDICTORS))}"
        ) from None
    return cls(
        alpha=knobs.predictor_alpha, prior_tokens=knobs.predictor_prior_tokens
    )


@register_policy
class SLOAwareLeastLoadPolicy(ClusterPolicy):
    """SLO-aware least-load: route to the SLO-clean instance carrying the
    least load (live requests, or pending decode tokens when weighted);
    re-balance at phase boundaries under the adaptive memory veto."""

    name = "slo-least-load"

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        return RoundRobinScheduler(
            quantum_tokens=self.config.instance.scheduler.token_quantum
        )

    def on_bind(self, cluster) -> None:
        self.knobs: ExtensionPolicyConfig = self.config.extensions
        self.adaptive = AdaptiveMigrationPolicy(
            growth_headroom_tokens=self.config.instance.scheduler.token_quantum
        )

    def _load_key(self, inst: ServingInstance) -> tuple:
        if self.knobs.least_load_weighted:
            # Token-denominated load: one 8k-token chain of thought weighs
            # as much as dozens of short chats, which raw depth misses.
            return (
                self.monitor.pending_decode_tokens(inst),
                inst.total_kv_tokens(),
                inst.iid,
            )
        # The registry holds no finished request (check_invariants), so
        # its length is the live count, read without a catch-up.
        return (len(inst.requests), inst.total_kv_tokens(), inst.iid)

    def select(self, now: float) -> ServingInstance:
        """SLO-clean least-load instance (all instances when none is clean)."""
        clean = least_loaded_clean(
            self.monitor, self.instances, self._load_key, now
        )
        if clean is not None:
            return clean
        return min(self.instances, key=self._load_key)

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        return self.select(now)

    def on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        if not self.knobs.least_load_migration:
            src.scheduler.on_phase_transition_local(req, now)
            return
        target = self.select(now)
        if self.adaptive.should_migrate(req, src, target):
            self.route_transition(req, src, target, now)
        else:
            src.scheduler.on_phase_transition_local(req, now)


@register_policy
class LengthPredictivePolicy(PascalPolicy):
    """Length-predictive PASCAL variant: Algorithm 1's ``m_i`` is replaced
    by the *predicted future* footprint ``m_i + sum(predicted remaining
    reasoning tokens)``, learned online from observed transitions."""

    name = "length-predictive"

    def on_bind(self, cluster) -> None:
        super().on_bind(cluster)
        self.predictor = make_predictor(self.config.extensions)

    def predicted_footprint(self, inst: ServingInstance) -> float:
        """Current KV footprint plus predicted reasoning growth.

        A census read: it catches no instance up, but credits each
        ``RUNNING`` member with the open epoch's owed steps.  Those carry
        no milestone, so phases and the sum are those after a sync."""
        owed = inst.owed_steps()
        predict = self.predictor.predict_remaining
        return inst.total_kv_tokens() + sum(
            predict(r, owed if r.state is ReqState.RUNNING else 0)
            for r in inst.requests
        )

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        def load(inst: ServingInstance) -> tuple:
            return (self.predicted_footprint(inst), inst.iid)

        clean = least_loaded_clean(self.monitor, self.instances, load, now)
        return clean if clean is not None else min(self.instances, key=load)

    def on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        # The end-of-think token just appeared: the one moment the
        # reasoning length becomes observable without an oracle.
        self.predictor.observe(req, req.generated_tokens)
        super().on_phase_transition(req, src, now)

    def predictor_errors(self) -> dict[str, tuple[float, ...]]:
        return self.predictor.error_report()

    def predictor_rank_pairs(
        self,
    ) -> dict[str, tuple[tuple[float, float], ...]]:
        return self.predictor.rank_report()


@register_policy
class TieredExpressPolicy(ClusterPolicy):
    """Heterogeneous pool: FCFS "express" instances serve predicted-short
    requests, PASCAL instances serve the rest (length-aware tiering in the
    spirit of CascadeInfer)."""

    name = "tiered-express"

    def _express_count(self) -> int:
        return self.config.extensions.pool.express_count(
            self.config.n_instances
        )

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        # Called before bind (schedulers are part of instance
        # construction), so tier membership derives from config + iid only.
        if iid < self._express_count():
            return FCFSScheduler()
        sched_cfg = self.config.instance.scheduler
        return PascalScheduler(
            quantum_tokens=sched_cfg.token_quantum,
            demotion_threshold_tokens=sched_cfg.demotion_threshold_tokens,
        )

    def on_bind(self, cluster) -> None:
        knobs: ExtensionPolicyConfig = self.config.extensions
        n_express = self._express_count()
        self.express_pool = cluster.instances[:n_express]
        self.standard_pool = cluster.instances[n_express:]
        self.threshold_tokens = knobs.pool.express_threshold_tokens
        self.predictor = make_predictor(knobs)

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        predicted = self.predictor.predict_total(req)
        if self.express_pool and predicted <= self.threshold_tokens:
            tier, rest = self.express_pool, self.standard_pool
        else:
            tier, rest = self.standard_pool, self.express_pool

        def load(inst: ServingInstance) -> tuple:
            return (inst.total_kv_tokens(), inst.iid)

        clean = least_loaded_clean(self.monitor, tier, load, now)
        if clean is None:
            # The chosen tier is saturated: spill across the whole pool
            # rather than dogpiling a violating tier.  Its clean
            # instances are all outside the tier.
            clean = least_loaded_clean(self.monitor, rest, load, now)
        if clean is not None:
            return clean
        return least_kv_placement(self.instances, req, now)

    def on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        self.predictor.observe(req, req.generated_tokens)
        # The base default keeps the request where it reasoned: express
        # requests are short on both phases, and the standard tier's
        # hierarchical scheduler already prioritizes answering locally.
        super().on_phase_transition(req, src, now)

    def predictor_errors(self) -> dict[str, tuple[float, ...]]:
        return self.predictor.error_report()

    def predictor_rank_pairs(
        self,
    ) -> dict[str, tuple[tuple[float, float], ...]]:
        return self.predictor.rank_report()


class SpeculativeAdmission:
    """Admission gate installed by :class:`SpeculativeReplacePolicy`.

    Duck-typed against :class:`repro.api.admission.AdmissionPolicy` — the
    class cannot be imported at module scope (``repro.api`` imports the
    cluster core which imports this module through the registry), so the
    decision constructors are imported lazily at decide time.
    """

    def __init__(self, policy: "SpeculativeReplacePolicy"):
        self.policy = policy

    def decide(
        self, cluster: "Cluster", req: Request, now: float
    ) -> "AdmissionDecision":
        from repro.api import admission

        verdict = self.policy.speculative_verdict(cluster, req, now)
        if verdict is None:
            return admission.admit()
        return admission.defer(
            self.policy.knobs.speculative_defer_s, reason=verdict
        )


@register_policy
class SpeculativeReplacePolicy(LengthPredictivePolicy):
    """Length-predictive PASCAL plus speculative deferral and replacement.

    ALISE-style speculation on top of :class:`LengthPredictivePolicy`:

    * **Deferral** — arrivals whose rank is still *uncertain* (the
      predictor has seen fewer than ``speculative_min_observations``
      completions of their dataset) are parked in the cluster's waiting
      room (:meth:`~repro.cluster.cluster.Cluster.deferred`) via a
      policy-installed admission gate, and re-placed at re-arrival once
      in-flight completions have tightened the predictor.  Under
      monitor-reported pressure, predicted-long arrivals are deferred
      too.  Each request's deferral budget is
      ``speculative_max_defers``; exhausting it admits unconditionally,
      and the cluster's own livelock backstop converts progress-free
      deferral spirals into rejections.
    * **Replacement** — when the placement target is pressured, the
      predicted-longest in-flight reasoning request is demoted to the
      low-priority queue (exactly PASCAL's demotion mechanics), yielding
      the reasoning band to the arrival.

    With ``speculative_max_defers=0`` and ``speculative_preempt=False``
    no gate is installed and no demotion happens: behaviour is
    byte-identical to ``length-predictive``.
    """

    name = "speculative-replace"

    def on_bind(self, cluster) -> None:
        super().on_bind(cluster)
        self.knobs: ExtensionPolicyConfig = self.config.extensions
        self._defer_counts: dict[int, int] = {}
        if self.knobs.speculative_max_defers > 0 and cluster.admission is None:
            # An explicit session-level gate outranks speculation: callers
            # composing their own admission control keep it.
            cluster.admission = SpeculativeAdmission(self)

    def _under_pressure(self, now: float) -> bool:
        """Every instance's pending-decode backlog is at the threshold."""
        return all(
            self.monitor.pending_decode_tokens(inst)
            >= self.knobs.speculative_pressure_tokens
            for inst in self.instances
        )

    def speculative_verdict(
        self, cluster: "Cluster", req: Request, now: float
    ) -> str | None:
        """Reason to defer ``req``, or ``None`` to admit it now."""
        if (
            self._defer_counts.get(req.rid, 0)
            >= self.knobs.speculative_max_defers
        ):
            self._defer_counts.pop(req.rid, None)
            return None  # budget exhausted: place with what we know
        seen = self.predictor.dataset_observations(req.dataset)
        uncertain = seen < self.knobs.speculative_min_observations
        # active_requests() counts the request under decision; deferring
        # only helps when *other* requests are in flight to teach the
        # predictor before the re-arrival.
        if uncertain and cluster.active_requests() - 1 > 0:
            reason = (
                f"rank uncertain: {seen}/"
                f"{self.knobs.speculative_min_observations} observations "
                f"of {req.dataset!r}"
            )
        elif (
            self._under_pressure(now)
            and self.predictor.predict_total(req)
            >= self.knobs.speculative_long_tokens
        ):
            reason = "predicted-long under pressure"
        else:
            self._defer_counts.pop(req.rid, None)
            return None
        self._defer_counts[req.rid] = self._defer_counts.get(req.rid, 0) + 1
        return reason

    def _demote_predicted_longest(
        self, inst: ServingInstance, now: float
    ) -> None:
        """Demote the predicted-longest reasoning request on ``inst``.

        Uses :meth:`~repro.core.pascal.PascalScheduler.demote`, but
        triggered by *predicted remaining* length instead of observed
        generated length — the replacement half of the
        speculate-and-replace loop.
        """
        candidates = [
            r for r in inst.live_requests() if r.in_reasoning and not r.demoted
        ]
        if not candidates:
            return
        victim = max(
            candidates,
            key=lambda r: (self.predictor.predict_remaining(r), r.rid),
        )
        if (
            self.predictor.predict_remaining(victim)
            < self.knobs.speculative_long_tokens
        ):
            return  # nobody on this instance is predicted-long
        inst.scheduler.demote(victim, inst.requests)
        inst.mark_dirty()

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        inst = super().place_arrival(req, now)
        if (
            self.knobs.speculative_preempt
            and self.monitor.pending_decode_tokens(inst)
            >= self.knobs.speculative_pressure_tokens
        ):
            self._demote_predicted_longest(inst, now)
        return inst
