"""PAS006 fixture: registered policies (clean)."""

from repro.core.policy import ClusterPolicy
from repro.core.registry import register_policy


@register_policy
class DecoratedPolicy(ClusterPolicy):
    """Registered via the decorator."""

    name = "fixture-decorated"

    def make_intra_scheduler(self, iid):
        return None

    def place_arrival(self, req, now):
        return self.instances[0]


class CallRegisteredPolicy(ClusterPolicy):
    """Registered via a module-level call."""

    name = "fixture-call-registered"

    def make_intra_scheduler(self, iid):
        return None

    def place_arrival(self, req, now):
        return self.instances[0]


register_policy(CallRegisteredPolicy)
