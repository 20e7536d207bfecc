"""Cluster-level scheduling policies as a strategy interface.

A :class:`ClusterPolicy` owns every decision that distinguishes one
scheduling scenario from another:

* which **intra-instance scheduler** each serving instance runs;
* **placement on arrival** — which instance a new request lands on;
* **phase-transition routing** — where a request goes when it emits its
  end-of-think token, including whether its KV cache migrates.

:class:`~repro.cluster.cluster.Cluster` is pure mechanism (engine wiring
and event dispatch); it delegates all three decisions to its policy.  New
scenarios therefore never touch the cluster core: subclass
:class:`ClusterPolicy`, decorate with
:func:`repro.core.registry.register_policy`, and the name becomes available
to ``Cluster(config, policy="your-name")``, the harness, and the CLI.

Policies are constructed per cluster (``create_policy(name, config)``) and
bound once via :meth:`ClusterPolicy.bind`, after the instance pool, monitor
and migration manager exist.

Request *lifecycle* plumbing: the cluster notifies its policy of every
placement decision it delegates (:meth:`ClusterPolicy.place_arrival`,
:meth:`ClusterPolicy.on_phase_transition`) and of arrivals an admission
gate turned away before placement
(:meth:`ClusterPolicy.on_arrival_rejected`); the observable per-request
event stream (admit / phase change / first token / complete / reject) is
surfaced to callers through :class:`repro.api.ServingSession` subscribers,
not through the policy.

:meth:`ClusterPolicy.make_intra_scheduler` receives the instance id, so a
policy can compose a *heterogeneous* pool — e.g. FCFS "express" instances
for short requests next to PASCAL instances (see
:class:`repro.config.PoolSpec` and ``tiered-express``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ClusterConfig
from repro.schedulers.base import IntraScheduler
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.migration import MigrationManager
    from repro.serving.instance import ServingInstance
    from repro.serving.monitor import InstanceMonitor


class ClusterPolicy:
    """Strategy interface for one cluster scheduling scenario.

    Subclasses must set :attr:`name` and implement
    :meth:`make_intra_scheduler` and :meth:`place_arrival`; the default
    :meth:`on_phase_transition` keeps every request on its current instance
    (the no-migration baselines).
    """

    #: Registry key; also what ``RunMetrics.policy`` reports.
    name: str = "base"

    def __init__(self, config: ClusterConfig):
        self.config = config
        self._cluster: "Cluster | None" = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, cluster: "Cluster") -> None:
        """Attach to a cluster after its instances/monitor/fabric exist."""
        if self._cluster is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already bound to a cluster"
            )
        self._cluster = cluster
        self.on_bind(cluster)

    def on_bind(self, cluster: "Cluster") -> None:
        """Subclass hook: build placement helpers, split pools, etc."""

    @property
    def cluster(self) -> "Cluster":
        if self._cluster is None:
            raise RuntimeError(f"policy {self.name!r} is not bound yet")
        return self._cluster

    @property
    def instances(self) -> "list[ServingInstance]":
        return self.cluster.instances

    @property
    def monitor(self) -> "InstanceMonitor":
        return self.cluster.monitor

    @property
    def migrations(self) -> "MigrationManager":
        return self.cluster.migrations

    # ------------------------------------------------------------------
    # decision surface
    # ------------------------------------------------------------------
    def make_intra_scheduler(self, iid: int) -> IntraScheduler:
        """Fresh intra-instance scheduler for instance ``iid``.

        Called once per instance, *before* :meth:`bind` (the schedulers are
        part of instance construction), so implementations must derive any
        per-instance decision from ``self.config`` and ``iid`` alone —
        typically via :class:`repro.config.PoolSpec`.  Homogeneous policies
        simply ignore ``iid``.
        """
        raise NotImplementedError

    def place_arrival(
        self, req: Request, now: float
    ) -> "ServingInstance":
        """Pick the instance a newly arrived request is admitted to."""
        raise NotImplementedError

    def on_phase_transition(
        self, req: Request, src: "ServingInstance", now: float
    ) -> None:
        """``req`` just emitted its end-of-think token on ``src``.

        The default keeps the request where it is; policies that migrate
        override this and typically finish with :meth:`route_transition`.
        """
        src.scheduler.on_phase_transition_local(req, now)

    def on_arrival_rejected(self, req: Request, now: float) -> None:
        """An admission policy rejected ``req`` before placement.

        The cluster never calls :meth:`place_arrival` for a rejected
        request; this notification is the only signal the policy gets.
        The default ignores it — stateful policies (online predictors,
        load estimators) can override to account for turned-away demand.
        """

    def on_request_cancelled(self, req: Request, now: float) -> None:
        """A submitted request was cancelled by its client.

        Fired after the request has been accounted out of the cluster
        (KV freed, plans reformed).  The default ignores it; predictors
        should *not* train on cancelled requests — their observed lengths
        are truncated, not representative.
        """

    def predictor_errors(self) -> "dict[str, tuple[float, ...]]":
        """Per-dataset absolute reasoning-length prediction errors (tokens).

        Policies that run an online length predictor override this so
        :func:`repro.metrics.collector.collect` can report predictor
        accuracy through :class:`~repro.metrics.collector.RunMetrics`.
        Predictor-free policies report nothing.
        """
        return {}

    def predictor_rank_pairs(
        self,
    ) -> "dict[str, tuple[tuple[float, float], ...]]":
        """Per-dataset ``(predicted score, observed length)`` pairs.

        The prequential ranking record next to :meth:`predictor_errors`:
        each observed reasoning length paired with the predictor's score
        immediately before the update.  Feeds the Kendall-tau
        rank-correlation views of
        :class:`~repro.metrics.collector.RunMetrics` — the metric that
        matters for placement, which consumes the *order* of predicted
        lengths, not their values.  Predictor-free policies report
        nothing.
        """
        return {}

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def route_transition(
        self,
        req: Request,
        src: "ServingInstance",
        target: "ServingInstance",
        now: float,
    ) -> None:
        """Send ``req`` to ``target``: local re-enqueue or KV migration."""
        if target.iid == src.iid:
            src.scheduler.on_phase_transition_local(req, now)
        else:
            self.migrations.start(req, src, target, now)
