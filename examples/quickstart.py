"""Quickstart: the NuPS API in five minutes.

This example builds a small simulated cluster, creates a NuPS parameter
server with multi-technique management (a few replicated hot keys, the rest
managed by relocation), and exercises the full public API:

* direct access: ``localize`` / ``pull`` / ``push``,
* the sampling API: ``register_distribution`` / ``prepare_sample`` /
  ``pull_sample`` with a conformity level,
* background housekeeping (replica synchronization), and
* the metrics the simulated cluster records.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import (
    Cluster,
    ClusterConfig,
    ConformityLevel,
    ManagementPlan,
    NuPS,
    ParameterStore,
)
from repro.core.sampling import UniformDistribution


def main() -> None:
    # ------------------------------------------------------------ the model
    # 10,000 parameters of 16 floats each. In a real task these would be
    # embeddings; here they are just random vectors.
    num_keys, value_length = 10_000, 16
    store = ParameterStore(num_keys, value_length, seed=0, init_scale=0.1)

    # ------------------------------------------------------- the cluster
    # 4 simulated nodes with 4 workers each. All costs (network latency,
    # bandwidth, shared-memory access) are simulated; see repro.simulation.
    cluster = Cluster(ClusterConfig(num_nodes=4, workers_per_node=4))

    # ------------------------------------------------- management plan
    # Pretend keys 0..49 are hot spots (e.g. frequent words): NuPS manages
    # them with eager replication; everything else relocates on demand.
    # In real workloads the plan comes from dataset statistics via
    # ManagementPlan.from_access_counts(...).
    plan = ManagementPlan(num_keys, replicated_keys=np.arange(50))
    ps = NuPS(store, cluster, plan=plan, sync_interval=0.002)
    print("parameter server:", ps.describe())

    # ------------------------------------------------------ direct access
    worker = cluster.worker(node_id=0, worker_id=0)
    keys = np.array([3, 17, 4711, 9000])

    # Announce the long-tail keys ahead of time so they relocate to node 0.
    ps.localize(worker, keys)

    values = ps.pull(worker, keys)
    print("pulled values with shape", values.shape)

    # Compute some update and push it back (updates are additive).
    updates = -0.01 * values
    ps.push(worker, keys, updates)

    # --------------------------------------------------------- sampling API
    # Register a uniform negative-sampling distribution over all keys and ask
    # for BOUNDED conformity: NuPS transparently serves it with pooled sample
    # reuse, which cuts the communication per sample by the use frequency.
    distribution = UniformDistribution(0, num_keys)
    dist_id = ps.register_distribution(distribution, ConformityLevel.BOUNDED)

    handle = ps.prepare_sample(worker, dist_id, count=32)
    first = ps.pull_sample(worker, handle, count=8)     # partial pull
    rest = ps.pull_sample(worker, handle)               # the remaining 24
    print("sampled keys:", first.keys.tolist(), "... and", len(rest.keys), "more")

    # Negative-sample updates go back through push_sample.
    ps.push_sample(worker, first.keys, -0.01 * first.values)

    # -------------------------------------------------------- housekeeping
    # The training driver calls housekeeping periodically; it runs the
    # replica synchronization that bounds staleness for the replicated keys.
    ps.housekeeping(now=cluster.time)
    ps.finish_epoch()

    # ------------------------------------------------------------- metrics
    metrics = cluster.metrics
    print()
    print("simulated time so far:      %.6f s" % cluster.time)
    print("parameter accesses total:   %d" % metrics.get("access.total"))
    replica_pulls = sum(value for name, value in metrics.counters().items()
                        if name.startswith("access.pull.replica"))
    print("  served by replicas:       %d" % replica_pulls)
    print("  remote accesses:          %d" % (metrics.get("access.pull.remote")
                                              + metrics.get("access.sample.remote")))
    print("relocations performed:      %d" % metrics.get("relocation.count"))
    print("replica synchronizations:   %d" % metrics.get("replica.syncs"))


if __name__ == "__main__":
    main()
