"""Writing a custom cluster policy against the registry seam.

Every scheduling scenario is a :class:`repro.ClusterPolicy`: it picks the
intra-instance scheduler, places arrivals, and routes phase transitions
(including KV-cache migration).  Registering a subclass makes its name a
first-class policy everywhere — ``Cluster(config, policy="...")``, the
figure harness, and ``python -m repro.harness --list-policies``.

This example builds a deliberately naive "sticky-hash" policy — route
each arrival to `instances[rid % n]`, read no cluster state, never
migrate (a stand-in for any routing idea you want to try) — and races it
against the built-ins on one trace.

Run:  python examples/custom_policy.py
"""

from repro import (
    Cluster,
    ClusterConfig,
    ClusterPolicy,
    InstanceConfig,
    TraceConfig,
    build_trace,
    collect,
    register_policy,
)
from repro.metrics.summary import percentile
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workload.datasets import ARENA_HARD


@register_policy
class StickyHashPolicy(ClusterPolicy):
    """Stateless request-id hashing: no load signal, no migration.

    A useful *lower bound* for placement experiments: any policy that
    reads cluster state should beat it.
    """

    name = "sticky-hash"

    # The instance id lets a policy compose heterogeneous pools (see
    # `tiered-express`); a homogeneous policy just ignores it.
    def make_intra_scheduler(self, iid):
        return RoundRobinScheduler(
            quantum_tokens=self.config.instance.scheduler.token_quantum
        )

    def place_arrival(self, req, now):
        return self.instances[req.rid % len(self.instances)]

    # on_phase_transition default: stay on the current instance.


def main() -> None:
    config = ClusterConfig(
        n_instances=8,
        instance=InstanceConfig(kv_capacity_tokens=24_000),
    )
    header = (
        f"{'policy':18s} {'mean TTFT':>10s} {'p99 TTFT':>10s} "
        f"{'SLO viol':>9s} {'migrations':>10s}"
    )
    print("Arena-Hard, 500 requests at 4.0 req/s\n")
    print(header)
    print("-" * len(header))
    for policy in ("sticky-hash", "rr", "slo-least-load", "pascal"):
        trace = build_trace(
            TraceConfig(
                dataset=ARENA_HARD,
                n_requests=500,
                arrival_rate_per_s=4.0,
                seed=99,
            )
        )
        cluster = Cluster(config, policy=policy)
        cluster.run_trace(trace)
        assert cluster.all_finished()
        metrics = collect(cluster)
        slo = metrics.slo_report(config.slo)
        print(
            f"{policy:18s} {metrics.mean_ttft():9.1f}s "
            f"{percentile(metrics.ttfts(), 99):9.1f}s "
            f"{100 * slo.violation_rate:8.2f}% "
            f"{len(metrics.transfer_latencies_s):10d}"
        )
    print(
        "\nsticky-hash ignores load and loses to every state-aware router;"
        "\nswap in your own placement idea and see where it lands."
    )


if __name__ == "__main__":
    main()
