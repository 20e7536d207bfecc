"""The paper's comparison set as :class:`ClusterPolicy` subclasses.

======================  =============  ==========================  =========
policy                  intra-instance placement                   migration
======================  =============  ==========================  =========
``fcfs``                FCFS           least-KV                     none
``rr``                  RR             least-KV                     none
``oracle``              FCFS           least-KV                     none
``pascal``              hierarchical   Alg. 1 / Alg. 2              adaptive
``pascal-nomigration``  hierarchical   Alg. 1 only                  none
``pascal-nonadaptive``  hierarchical   Alg. 1 / Alg. 2              always
``pascal-ri-only``      hierarchical   Alg. 2 w/o the a_i fallback  adaptive
``phase-partitioned``   RR             split reasoning/answer pools always
======================  =============  ==========================  =========

``pascal-nomigration`` / ``pascal-nonadaptive`` reproduce the Figure 13 and
Figure 15 ablations; ``pascal-ri-only`` isolates Algorithm 2's ``r_i + a_i``
fallback claim (Section IV-B); ``phase-partitioned`` implements the
DistServe-style explicit phase split the paper argues against (Section VII).
"""

from __future__ import annotations

from repro.core.adaptive import AdaptiveMigrationPolicy
from repro.core.pascal import PascalScheduler
from repro.core.placement import (
    AnsweringPlacement,
    ReasoningPlacement,
    least_kv_placement,
)
from repro.core.policy import ClusterPolicy
from repro.core.registry import register_policy
from repro.schedulers.base import IntraScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.serving.instance import ServingInstance
from repro.workload.request import Request


@register_policy
class FCFSPolicy(ClusterPolicy):
    """vLLM-default baseline: FCFS batches, least-KV routing, no migration."""

    name = "fcfs"

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        return FCFSScheduler()

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        return least_kv_placement(self.instances, req, now)


@register_policy
class RoundRobinPolicy(FCFSPolicy):
    """Round-robin baseline: token-quantum time sharing, least-KV routing."""

    name = "rr"

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        return RoundRobinScheduler(
            quantum_tokens=self.config.instance.scheduler.token_quantum
        )


@register_policy
class OraclePolicy(FCFSPolicy):
    """Infinite-memory oracle (Section III-A): FCFS, paired by the harness
    with KV capacity that never blocks or preempts."""

    name = "oracle"


@register_policy
class PascalPolicy(ClusterPolicy):
    """PASCAL: hierarchical two-band scheduling + Algorithms 1/2 + adaptive
    migration (Sections IV-B and IV-C)."""

    name = "pascal"
    #: Migrate at phase boundaries at all (Figure 13 ablation turns it off).
    migration_enabled = True
    #: Honour the adaptive memory veto (Figure 15 ablation turns it off).
    adaptive_enabled = True
    #: Use Algorithm 2's ``r_i + a_i`` fallback (Section IV-B ablation).
    use_fresh_fallback = True

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        sched_cfg = self.config.instance.scheduler
        return PascalScheduler(
            quantum_tokens=sched_cfg.token_quantum,
            demotion_threshold_tokens=sched_cfg.demotion_threshold_tokens,
        )

    def on_bind(self, cluster) -> None:
        self.reasoning_placement = ReasoningPlacement(cluster.monitor)
        self.answering_placement = AnsweringPlacement(
            cluster.monitor, use_fresh_fallback=self.use_fresh_fallback
        )
        self.adaptive = AdaptiveMigrationPolicy(
            growth_headroom_tokens=self.config.instance.scheduler.token_quantum,
            enabled=self.adaptive_enabled,
        )

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        return self.reasoning_placement.select(self.instances, req, now)

    def on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        if not self.migration_enabled:
            src.scheduler.on_phase_transition_local(req, now)
            return
        target = self.answering_placement.select(self.instances, req, now)
        if self.adaptive.should_migrate(req, src, target):
            self.route_transition(req, src, target, now)
        else:
            src.scheduler.on_phase_transition_local(req, now)


@register_policy
class PascalNoMigrationPolicy(PascalPolicy):
    """PASCAL(NoMigration): Algorithm 1 only, requests never move (Fig. 13)."""

    name = "pascal-nomigration"
    migration_enabled = False


@register_policy
class PascalNonAdaptivePolicy(PascalPolicy):
    """PASCAL(NonAdaptive): always follow Algorithm 2's pick (Fig. 15)."""

    name = "pascal-nonadaptive"
    adaptive_enabled = False


@register_policy
class PascalRiOnlyPolicy(PascalPolicy):
    """PASCAL ablation: Algorithm 2 ranks by ``r_i`` alone (Section IV-B)."""

    name = "pascal-ri-only"
    use_fresh_fallback = False


@register_policy
class PhasePartitionedPolicy(ClusterPolicy):
    """DistServe-style explicit phase partitioning (the Section VII
    counterfactual): the first half of the pool serves reasoning, the second
    half answering; every transition crosses the fabric."""

    name = "phase-partitioned"

    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        return RoundRobinScheduler(
            quantum_tokens=self.config.instance.scheduler.token_quantum
        )

    def on_bind(self, cluster) -> None:
        n = len(cluster.instances)
        half = max(1, n // 2)
        self.reasoning_pool = cluster.instances[:half]
        self.answering_pool = (
            cluster.instances[half:] if n > 1 else cluster.instances
        )

    def place_arrival(self, req: Request, now: float) -> ServingInstance:
        return least_kv_placement(self.reasoning_pool, req, now)

    def on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        target = least_kv_placement(self.answering_pool, req, now)
        self.route_transition(req, src, target, now)
