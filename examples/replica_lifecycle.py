#!/usr/bin/env python
"""Replica lifecycle: log truncation and growing the replica set.

Two production concerns the paper's related-work section (§7, Bayou's
policy families) raises around any anti-entropy system:

1. **Write-log truncation** — logs cannot grow forever. This example
   runs Golding ack-vector truncation: acknowledgement tables gossip
   with the sessions and a write is purged once every replica is known
   to have it. A crashed replica stalls purging (safety), and purging
   resumes after it recovers.
2. **Creating new replicas** — a joining replica picks a *donor* to
   bootstrap from ("how complete their write-logs are", "band width of
   connections"); the bootstrap is a real anti-entropy session.

Run:  python examples/replica_lifecycle.py
"""

from repro import ReplicationSystem, weak_consistency
from repro.demand import ConstantDemand
from repro.replica.creation import MostCompleteLog, NearestDonor
from repro.topology import ring


def log_sizes(system) -> str:
    return " ".join(f"{n}:{len(s.log)}" for n, s in sorted(system.servers.items()))


def main() -> None:
    system = ReplicationSystem(
        topology=ring(6),
        demand=ConstantDemand(5.0),
        config=weak_consistency(log_truncation="acked"),
        seed=13,
    )
    system.start()

    print("== ack-vector log truncation ==")
    for i in range(4):
        system.inject_write(i, key=f"article-{i}")
    system.run_until(6.0)
    print(f"t={system.sim.now:4.1f}  log sizes after propagation: {log_sizes(system)}")
    system.run_until(30.0)
    purged = sum(n.ack_manager.total_purged for n in system.nodes.values())
    print(f"t={system.sim.now:4.1f}  after ack gossip: {log_sizes(system)} "
          f"({purged} entries purged; stores still hold all 4 articles)")

    print("\n== a crashed replica blocks purging ==")
    system.network.links.set_node_down(3)
    for i in range(4, 7):
        system.inject_write(i % 3, key=f"article-{i}")
    system.run_until(55.0)
    print(f"t={system.sim.now:4.1f}  node 3 down, 3 new writes: {log_sizes(system)} "
          "(new entries stuck — node 3 never acknowledged)")
    system.network.links.set_node_up(3)
    system.run_until(90.0)
    print(f"t={system.sim.now:4.1f}  node 3 recovered:          {log_sizes(system)}")

    print("\n== growing the replica set ==")
    grower = ReplicationSystem(
        topology=ring(6),
        demand=ConstantDemand(5.0),
        config=weak_consistency(),
        seed=14,
    )
    grower.start()
    update = grower.inject_write(0, key="catalog")
    grower.run_until_replicated(update.uid, max_time=40.0)
    # Give node 2 extra history so donor completeness differs.
    for i in range(3):
        grower.servers[2].local_write(f"local-{i}", i)
    donor_a = grower.add_replica(100, attach_to=[2, 4], donor_policy=MostCompleteLog())
    donor_b = grower.add_replica(101, attach_to=[2, 4], donor_policy=NearestDonor())
    grower.run_until(grower.sim.now + 5.0)
    print(f"replica 100 chose donor {donor_a} (most complete log)")
    print(f"replica 101 chose donor {donor_b} (nearest)")
    for new in (100, 101):
        server = grower.servers[new]
        print(
            f"replica {new}: bootstrapped {len(server.log)} writes, "
            f"catalog={server.store.value('catalog')!r}"
        )
    update2 = grower.inject_write(100, key="from-newcomer")
    done = grower.run_until_replicated(update2.uid, max_time=60.0)
    print(f"a write at the newcomer replicated to all "
          f"{grower.topology.num_nodes} replicas in {done:.2f} sessions")


if __name__ == "__main__":
    main()
