"""Instance-level placement — Algorithms 1 and 2 (Section IV-B).

*Algorithm 1* routes each newly arrived (reasoning) request: instances
whose answering requests are currently violating their SLO are excluded
(adding a high-priority reasoning request would only intensify their memory
pressure); among the rest, the instance with the smallest total KV
footprint ``m_i`` wins.  If every instance is violating, fall back to the
global minimum-``m_i`` instance to minimize added damage.

*Algorithm 2* picks the destination for a request transitioning into the
answering phase: same SLO filter; among survivors, the instance with the
fewest high-priority reasoning requests ``r_i`` (the answering request will
live off whatever memory the reasoning queue leaves).  When no instance is
SLO-clean, the tie-break becomes ``r_i + a_i``, penalizing instances with
many "fresh" answering requests that would compete for the first quantum.

The baselines (FCFS / RR) use plain least-``m_i`` placement with no SLO
filter and never migrate (Section V-A).

**Evaluation order.**  The SLO filter is not evaluated eagerly:
:func:`least_loaded_clean` sorts the instances by the load key and asks
for ``t_i`` in that order, stopping at the first clean instance.  Every
key ends in the instance id, so keys are unique and that instance is the
one the eager filter-then-``min`` picks; usually it is the least-loaded
one, so a decision reads about one ``t_i`` instead of one per instance.
A ``t_i`` query left out changes no later verdict: the census heap holds
lower bounds, and every entry a query pops is judged exactly (see
:class:`~repro.serving.instance.RequestSet`).  The same helper serves
the SLO filters of the extension policies.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.serving.instance import ServingInstance
from repro.serving.monitor import InstanceMonitor
from repro.workload.request import Request


def least_kv_placement(
    instances: list[ServingInstance], req: Request, now: float
) -> ServingInstance:
    """Baseline router: smallest total KV footprint, no SLO awareness."""
    if not instances:
        raise ValueError("no instances to place onto")
    return min(instances, key=lambda inst: (inst.total_kv_tokens(), inst.iid))


def least_loaded_clean(
    monitor: InstanceMonitor,
    instances: list[ServingInstance],
    key: Callable[[ServingInstance], Any],
    now: float,
) -> ServingInstance | None:
    """The SLO-clean instance with the smallest ``key``, or None when
    every instance violates (the caller's fallback).

    ``key`` must end in the instance id.  Instances are tried in key
    order, so ``t_i`` is read only up to the first clean one.
    """
    for inst in sorted(instances, key=key):
        if monitor.answering_slo_ok(inst, now):
            return inst
    return None


class ReasoningPlacement:
    """Algorithm 1: instance selection for reasoning requests."""

    def __init__(self, monitor: InstanceMonitor):
        self.monitor = monitor

    def select(
        self, instances: list[ServingInstance], req: Request, now: float
    ) -> ServingInstance:
        if not instances:
            raise ValueError("no instances to place onto")
        monitor = self.monitor

        def load(inst: ServingInstance) -> tuple:
            return (monitor.kv_footprint(inst), inst.iid)

        clean = least_loaded_clean(monitor, instances, load, now)
        return clean if clean is not None else min(instances, key=load)


class AnsweringPlacement:
    """Algorithm 2: instance selection for answering requests.

    ``use_fresh_fallback=False`` disables the ``r_i + a_i`` tie-break the
    paper uses when every instance is violating its SLO, falling back to
    plain ``r_i`` — the ablation behind the paper's claim that "considering
    both r_i and a_i achieves better load balancing and SLO attainment
    than using r_i alone under these scenarios" (Section IV-B).
    """

    def __init__(self, monitor: InstanceMonitor, use_fresh_fallback: bool = True):
        self.monitor = monitor
        self.use_fresh_fallback = use_fresh_fallback

    def select(
        self, instances: list[ServingInstance], req: Request, now: float
    ) -> ServingInstance:
        if not instances:
            raise ValueError("no instances to place onto")
        monitor = self.monitor

        def load(inst: ServingInstance) -> tuple:
            return (monitor.reasoning_count(inst), inst.iid)

        clean = least_loaded_clean(monitor, instances, load, now)
        if clean is not None:
            return clean
        if not self.use_fresh_fallback:
            return min(instances, key=load)
        # Lines 4-9: every instance is violating; fold in the fresh
        # answering population a_i, which competes for the first quantum.
        return min(
            instances,
            key=lambda inst: (
                monitor.reasoning_count(inst)
                + monitor.fresh_answering_count(inst),
                inst.iid,
            ),
        )
