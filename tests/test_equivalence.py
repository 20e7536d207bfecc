"""Every fast path equals the slow path it replaced.

One hypothesis test runs random workloads, with and without scripted
cancels, for every registered policy on both pool shapes and over the
cluster settings of :func:`tests.equivalence.cluster_knobs`, through
each pair of :data:`tests.equivalence.PAIRS`: a fast mode checked after
every event (conservation and every instance's invariants, census reads
against the synced reads, answer runs against the token log) and the
reference mode it must equal.  Everything a run shows must match: every
request record, the instances' work counters, the lifecycle stream and
the token log.  Two open tie-breaking defects the pairs can draw are
pinned below as strict xfails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import policy_names
from tests.equivalence import (
    EXAMPLES,
    PAIRS,
    POOL_SHAPES,
    assert_agree,
    cluster_knobs,
    run,
    workloads,
)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_modes_agree(pair):
    @settings(max_examples=EXAMPLES[pair], deadline=None)
    @given(
        specs=workloads(),
        policy=st.sampled_from(policy_names()),
        shape=st.sampled_from(sorted(POOL_SHAPES)),
        knobs=cluster_knobs(),
    )
    def agree(specs, policy, shape, knobs):
        assert_agree(pair, policy, shape, specs, **knobs)

    agree()


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="open defect, ROADMAP.md 'Smaller carry-overs': a census read "
    "leaves out a lockstep instance's hidden step at exactly the "
    "dispatching event's time, which single-stepping has dispatched",
)
def test_exact_time_tie_between_lockstep_instances():
    """Two instances started by simultaneous arrivals step in lockstep.
    With epochs, request 0's first answering token comes at 0.095253 s
    instead of 0.093169 s, and both requests migrate."""
    specs = [(0, 1, 3, 1, 0.0), (1, 1, 2, 1, 0.0)]
    epochs, single_step = PAIRS["epoch"]
    assert run("slo-least-load", "homogeneous", specs, epochs) == run(
        "slo-least-load", "homogeneous", specs, single_step
    )


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="open defect, ROADMAP.md 'Smaller carry-overs': a session feed "
    "pulls an arrival after a deferral's re-arrival for the same instant "
    "was scheduled, so the re-arrival dispatches first; the batch preload "
    "dispatches the original arrival first",
)
def test_deferral_rearrival_tie_with_a_fed_arrival():
    """``speculative-replace`` defers request 2 at 0.05 s for 0.05 s, and
    its re-arrival ties with request 4's arrival at 0.1 s.  Preloaded,
    request 4 is dispatched first and both finish at 0.152 s on two
    instances; fed, request 2 goes first and request 4 finishes at
    0.202 s."""
    specs = [
        (0, 1, 0, 1, 0.0),
        (1, 1, 0, 1, 0.0),
        (2, 1, 0, 1, 0.0),
        (3, 1, 0, 1, 0.1),
        (4, 1, 0, 1, 0.1),
    ]
    feed, preload = PAIRS["session"]
    assert run("speculative-replace", "heterogeneous", specs, feed) == run(
        "speculative-replace", "heterogeneous", specs, preload
    )
