"""PAS006 fixture: an unregistered policy (flagged)."""

from repro.core.policy import ClusterPolicy


class GhostPolicy(ClusterPolicy):  # finding: never registered
    """A policy the registry (and every harness sweep) will never see."""

    name = "ghost"

    def make_intra_scheduler(self, iid):
        return None

    def place_arrival(self, req, now):
        return self.instances[0]
