"""Quality-of-Experience metric (Figure 3, after Andes).

QoE compares two cumulative token curves over the answering stream:

* **digested** — when each token actually reaches the user, i.e. the token
  pacer's release schedule ``r_k = max(g_k, r_{k-1} + TPOT)``;
* **expected** — the user's ideal: one token per TPOT target starting from
  an anchor (the first release for the paper's Section V variant, or the
  TTFAT target after reasoning ends for the Figure 5 characterization).

``QoE = area(digested) / area(expected)`` integrated from the anchor to
whichever curve finishes last.  A request perfectly keeping pace scores
1.0; stalls push the digested curve right and shrink its area.  The
evaluation counts an SLO violation when QoE < 0.95.
"""

from __future__ import annotations


def release_schedule(token_times: list[float], tpot_target_s: float) -> list[float]:
    """The token pacer's release time for each generated token.

    The pacer buffers tokens generated in bursts and releases them at the
    user's reading pace (Andes-style, Section II-C)::

        r_0 = g_0
        r_k = max(g_k, r_{k-1} + tpot_target)

    i.e. a token is released as soon as it exists, but never faster than
    the target pace.  This is the digested curve QoE integrates.
    """
    if tpot_target_s <= 0:
        raise ValueError(f"tpot target must be positive, got {tpot_target_s}")
    releases: list[float] = []
    for i, g in enumerate(token_times):
        if i == 0:
            releases.append(g)
        else:
            if g < token_times[i - 1]:
                raise ValueError("token times must be non-decreasing")
            releases.append(max(g, releases[-1] + tpot_target_s))
    return releases


def _step_curve_area(token_times: list[float], horizon: float) -> float:
    """Area under a cumulative step curve from its first step to horizon.

    Token ``k`` (0-based) contributes ``horizon - t_k`` (clamped at 0):
    after time ``t_k`` the curve is at least ``k + 1`` tokens high.
    """
    return sum(max(0.0, horizon - t) for t in token_times)


def qoe_score(
    generation_times: list[float],
    tpot_target_s: float,
    anchor_t: float | None = None,
) -> float:
    """QoE in [0, 1] for one request's answering-token generation times.

    ``anchor_t`` fixes where the expected curve starts.  ``None`` anchors at
    the first actual release (the paper's Section V metric: "QoE solely
    from TPOT starting at the first answering token").  Passing an explicit
    anchor (e.g. ``reasoning_end + TTFAT target``) reproduces the stricter
    Figure 5 variant where late delivery of the first token also hurts.
    """
    if tpot_target_s <= 0:
        raise ValueError(f"tpot target must be positive, got {tpot_target_s}")
    if not generation_times:
        raise ValueError("request generated no answering tokens")
    releases = release_schedule(generation_times, tpot_target_s)
    start = releases[0] if anchor_t is None else anchor_t
    n = len(releases)
    expected = [start + k * tpot_target_s for k in range(n)]
    horizon = max(releases[-1], expected[-1])
    if horizon <= start:
        # Degenerate single-token-at-anchor case: perfect delivery.
        return 1.0
    digested_area = _step_curve_area(releases, horizon)
    expected_area = _step_curve_area(expected, horizon)
    if expected_area <= 0.0:
        return 1.0
    return min(1.0, digested_area / expected_area)


def qoe_for_request(req, tpot_target_s: float) -> float | None:
    """Section V QoE for a finished request (None when not applicable)."""
    if not req.answer_token_times:
        return None
    return qoe_score(req.answer_token_times, tpot_target_s)


def qoe_with_ttfat(
    req,
    tpot_target_s: float,
    ttfat_target_s: float,
) -> float | None:
    """Figure 5 QoE: the expected curve starts TTFAT after reasoning ends."""
    if not req.answer_token_times or req.reasoning_end_t is None:
        return None
    anchor = req.reasoning_end_t + ttfat_target_s
    return qoe_score(req.answer_token_times, tpot_target_s, anchor_t=anchor)
