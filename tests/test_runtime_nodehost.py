"""One replica host for both live transports.

The queue cluster and every TCP node process run the same
:class:`~repro.core.host.ReplicaHost`, and the cluster records a
heal in one place whichever the transport.  These tests pin that
contract: churn heals are timed over both transports, ``stats()`` and
the ``status?`` reply report the same counters, and ``repro chaos``
drives a cluster's control socket end to end.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.cli import main
from repro.core.host import ReplicaHost
from repro.core.variants import fast_consistency
from repro.demand.static import UniformRandomDemand
from repro.errors import ReplicationError
from repro.faults.schedule import FaultSchedule, demand_shock, join, leave, partition
from repro.runtime.cluster import ReplicaCluster
from repro.runtime.live import AsyncioRuntime, AsyncioTransport, new_event_loop
from repro.runtime.nodeproc import boot_live, stamp_applies
from repro.runtime.tcp import FrameDecoder, SyncFrameChannel
from repro.topology.simple import line, ring


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_join_records_a_heal(transport):
    """A churn schedule's ``join`` is a heal on every transport, so the
    post-heal convergence time is measured, not None."""
    schedule = FaultSchedule(events=(leave(1.0, 2), join(3.0, 2)), name="churn")
    with ReplicaCluster(
        ring(4),
        seed=3,
        time_scale=0.02,
        transport=transport,
        faults=schedule,
        standby_hubs=0,
    ) as cluster:
        assert cluster.stats()["post_heal_seconds"] is None
        deadline = time.monotonic() + 20.0
        sequence = 0
        while not (cluster.chaos_status() or {}).get("done"):
            assert time.monotonic() < deadline, cluster.chaos_status()
            cluster.put("k", f"v{sequence}", node=0)
            sequence += 1
            time.sleep(0.01)
        final = cluster.put("k", "final", node=0)
        assert cluster.wait_replicated(final.uid, timeout=20.0)
        stats = cluster.stats()
        assert stats["chaos"]["applied"] == 2
        assert stats["post_heal_seconds"] is not None
        assert stats["post_heal_seconds"] >= 0.0


def test_stats_and_status_report_the_registry_counts():
    with ReplicaCluster(
        line(3), seed=2, time_scale=0.005, control_port=0
    ) as cluster:
        update = cluster.put("k", "v", node=0, wait=True, timeout=20.0)
        assert cluster.read("k", node=2).value == "v"
        cluster.get("k", node=1)
        stats = cluster.stats()
        channel = SyncFrameChannel(
            socket.create_connection(cluster.control_address, timeout=5.0)
        )
        try:
            channel.send(("status?",))
            kind, status = channel.recv(timeout=5.0)
        finally:
            channel.close()
    assert kind == "status"
    assert (stats["puts"], stats["gets"], stats["updates_fully_replicated"]) == (
        1, 2, 1,
    )
    for name in ("nodes", "transport", "time_scale", "puts",
                 "updates_fully_replicated"):
        assert status[name] == stats[name]
    assert set(status) == {
        "nodes", "transport", "time_scale", "puts", "updates_tracked",
        "updates_fully_replicated", "post_heal_seconds", "telemetry", "chaos",
    }
    assert cluster.replication_latency(update.uid) is not None
    counters = {
        entry["name"]: entry["value"]
        for entry in stats["telemetry"]["metrics"]
        if entry["name"] in ("cluster.puts", "cluster.gets",
                             "cluster.updates_replicated")
    }
    assert counters == {
        "cluster.puts": 1, "cluster.gets": 2, "cluster.updates_replicated": 1,
    }


def test_host_refuses_unknown_calls_and_crashed_nodes():
    loop = new_event_loop()
    runtime = AsyncioRuntime(seed=1, time_scale=0.01)
    applied = []

    async def main_():
        runtime.start()
        transport = AsyncioTransport(runtime, line(2))
        host = ReplicaHost(
            runtime, transport, line(2), UniformRandomDemand(seed=1),
            fast_consistency(), [0, 1],
            stamp_applies(lambda node, pairs: applied.append((node, pairs))),
        )
        with pytest.raises(ReplicationError, match="node 0 not started yet"):
            host.call(0, "put", ("k", "v"))
        boot_live(host)
        update, stamp = host.call(0, "put", ("k", "v"))
        [(node, [(uid, applied_at)])] = applied
        assert (node, uid) == (0, update.uid)
        assert stamp <= applied_at
        assert host.call(0, "read", ("k",)).value == "v"
        with pytest.raises(ReplicationError, match="unknown cluster call 'bogus'"):
            host.call(0, "bogus", ())
        transport.links.set_node_down(1)
        with pytest.raises(ReplicationError, match=r"node 1 is down \(injected fault\)"):
            host.call(1, "read", ("k",))
        assert set(host.call(0, "stats", ())) == {
            "sessions", "traffic", "handler_errors", "delivery",
        }
        await transport.stop_pumps()

    try:
        loop.run_until_complete(main_())
    finally:
        loop.close()


def test_hub_forwards_each_fault_event_as_one_frame():
    """The tcp hub sends the event's own action and args to every node
    process, and skips a demand shock no process can absorb."""

    class Writer:
        def __init__(self):
            self.data = b""

        def write(self, data):
            self.data += data

    cluster = ReplicaCluster(line(3), transport="tcp")
    cluster._node_writers = {0: Writer(), 1: Writer()}
    event = partition(1.0, [[0], [1, 2]])
    assert cluster._forward_fault(event)
    assert not cluster._forward_fault(demand_shock(2.0, (1,), 3.0))
    for writer in cluster._node_writers.values():
        assert FrameDecoder().feed(writer.data) == [
            ("fault", "partition", event.args)
        ]


class TestChaosCommand:
    def test_rolling_restart_wait_and_kill_hub_refusal(self, capsys):
        with ReplicaCluster(
            nodes=4, seed=1, time_scale=0.005, control_port=0
        ) as cluster:
            host, port = cluster.control_address
            connect = ["chaos", "--connect", f"{host}:{port}", "--timeout", "10"]
            assert main(connect + ["--faults", "rolling_restart", "--wait"]) == 0
            out = capsys.readouterr().out
            assert "injected 'rolling_restart'" in out
            assert "schedule complete" in out
            assert main(connect + ["--kill-hub"]) == 2
            err = capsys.readouterr().err
            assert err.strip() == (
                "error: cluster refused the hub kill: kill_hub is a tcp-mode fault"
            )
