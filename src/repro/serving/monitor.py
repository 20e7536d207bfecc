"""Instance monitor (Figure 6): runtime signals for placement decisions.

The monitor reads each instance's phase census, which the instance keeps
up to date as requests arrive, flip phase, get demoted and leave (see
:class:`~repro.serving.instance.RequestSet`), and reports the inputs the
instance-level scheduler's two algorithms consume:

* ``t_i``   — whether *all* answering requests on the instance currently
  meet their SLO.  An answering request misses its SLO when its token pacer
  reports insufficient remaining tokens (generation lagging the user's
  expected pace) or when a phase-transitioned request has waited longer
  than the TTFAT target for its first answering token.  The pacer reads
  the request's answering-token count
  (:attr:`~repro.workload.request.Request.answered_tokens`), never its
  token timestamps.
* ``m_i``   — total KV footprint (GPU + CPU), Algorithm 1's load proxy.
* ``r_i``   — reasoning requests in the high-priority queue, and
* ``a_i``   — answering requests still inside their first quantum,
  Algorithm 2's interference proxies.

``t_i`` and ``r_i`` are incremental; ``a_i`` and the token-weighted
``pending_decode_tokens`` scan the instance's requests.  The SLO filters
ask for ``t_i`` in load order and stop at the first clean instance
(:func:`repro.core.placement.least_loaded_clean`), so a decision usually
reads one ``t_i``, not one per instance; a query left out changes no
later verdict.

Every read is exact at the current instant and writes nothing: an
instance whose decode epoch has steps in the past that it has not
emitted yet is not caught up (no :meth:`ServingInstance.sync`).  Those
steps carry no milestone, so ``r_i`` and ``a_i`` cannot have moved, and
``t_i``, ``m_i`` and the pending decode tokens add the instance's
:meth:`~ServingInstance.owed_steps` to what the members record.
"""

from __future__ import annotations

from repro.core.pascal import ANSWERING_BAND, band_of
from repro.serving.instance import ServingInstance, answering_starving

__all__ = ["InstanceMonitor", "answering_starving"]


class InstanceMonitor:
    """Census provider over a set of serving instances.

    Stateless: each instance judges ``t_i`` against its own SLO (see
    :class:`~repro.serving.instance.RequestSet`)."""

    def answering_slo_ok(self, inst: ServingInstance, now: float) -> bool:
        """``t_i``: True iff every answering request is keeping pace."""
        return inst.requests.answering_slo_ok(now, inst.owed_steps(now))

    def kv_footprint(self, inst: ServingInstance) -> int:
        """``m_i``: total memory occupied by KV cache (GPU + CPU)."""
        return inst.total_kv_tokens()

    def pending_decode_tokens(self, inst: ServingInstance) -> int:
        """Token-weighted load: decode tokens still owed to live requests.

        Queue depth counts a 60-token chat and an 8k-token chain of
        thought as equal load; this signal weighs each request by its
        outstanding decode work instead.  In the simulator the scripted
        remaining lengths are read directly (an idealized signal); a real
        deployment would substitute a length predictor, as
        ``length-predictive`` does for placement.
        """
        return sum(
            r.remaining_tokens for r in inst.requests if not r.finished
        ) - inst.owed_tokens()

    def reasoning_count(self, inst: ServingInstance) -> int:
        """``r_i``: requests currently in the high-priority queue."""
        return inst.requests.reasoning

    def fresh_answering_count(self, inst: ServingInstance) -> int:
        """``a_i``: answering requests not past their first quantum."""
        return sum(
            1
            for r in inst.requests
            if not r.finished
            and band_of(r) == ANSWERING_BAND
            and r.level == 0
        )
