"""Chaos harness: one FaultSchedule, three execution worlds.

The same declarative schedule must (a) replay in the simulator through
``ReplicationSystem.inject_faults``, (b) replay against a live
queue-mode cluster through ``ReplicaCluster.inject_faults`` — one
``FaultReplayer`` in both — and (c) travel over a control socket into a
process-per-node TCP cluster.  These tests pin the cross-world contract:
identical applied/skipped accounting, clean client errors while a
target is crashed, and convergence after heal.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.errors import ReplicationError
from repro.experiments.scenarios import VARIANTS, build_faults, build_system
from repro.faults import FaultSchedule
from repro.faults.generators import rolling_restart
from repro.faults.schedule import (
    corrupt_frame,
    demand_shock,
    latency_shock,
    node_down,
    node_up,
    packet_duplicate,
    packet_reorder,
)
from repro.runtime.cluster import ReplicaCluster
from repro.runtime.tcp import SyncFrameChannel
from repro.port.trace import Tracer
from repro.topology.brite import internet_like
from repro.topology.simple import line


def _wait_chaos_done(cluster, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = cluster.chaos_status()
        if status is not None and status["done"]:
            return status
        time.sleep(0.02)
    raise AssertionError(f"chaos never finished: {cluster.chaos_status()}")


class TestFaultTraceGuards:
    class BombTracer(Tracer):
        def record(self, time, category, **fields):
            raise AssertionError(
                f"record() called for {category!r} despite being disabled"
            )

    def test_fault_apply_and_skip_records_are_guarded(self):
        # With the fault categories disabled, replaying events must
        # never even *call* record() — the wants() guard keeps fault
        # injection zero-cost when tracing is off.
        system = build_system(topology="line", n=4, variant="weak", seed=3)
        process = system.inject_faults(
            FaultSchedule(events=(node_down(1.0, 0),))
        )
        bomb = self.BombTracer()
        bomb.enable_only(["something-else"])
        system.runtime.sim.trace = bomb
        process._apply(node_down(1.0, 0))
        # An unabsorbable demand shock exercises the skip branch.
        process._apply(demand_shock(1.5, (0,), 2.0))
        assert process.stats == {"node_down": 1}
        assert len(process.skipped) == 1


class TestScheduleParity:
    def test_sim_and_live_apply_identical_schedules(self):
        # The very same schedule object, replayed in virtual time and
        # on the wall clock, must account every event identically.
        topology = line(4)
        schedule = rolling_restart(topology, seed=5)

        system = build_system(topology="line", n=4, variant="weak", seed=5)
        process = system.inject_faults(schedule)
        system.start()
        system.run_until(schedule.duration + 1.0)
        sim_stats = dict(process.stats)

        with ReplicaCluster(topology, seed=5, time_scale=0.01) as cluster:
            replayer = cluster.inject_faults(schedule)
            status = _wait_chaos_done(cluster)
            live_stats = dict(replayer.stats)
        assert sim_stats == live_stats
        assert status["applied"] == len(schedule.events)
        assert status["skipped"] == 0
        assert not process.skipped

    def test_unabsorbable_demand_shock_skipped_in_both_worlds(self):
        # A cluster built without a fault schedule never wrapped its
        # demand model, so an injected shock cannot land — it must be
        # counted as skipped, exactly like the simulator does.
        topology = line(3)
        schedule = FaultSchedule(
            events=(demand_shock(0.1, (0, 1), 3.0),), name="shock-only"
        )
        with ReplicaCluster(topology, seed=2, time_scale=0.01) as cluster:
            replayer = cluster.inject_faults(schedule)
            status = _wait_chaos_done(cluster)
            assert status["skipped"] == 1
            assert status["applied"] == 0
            assert [e.action for e in replayer.skipped] == ["demand_shock"]


class TestCrashDuringClientCalls:
    def test_put_to_crashed_node_raises_cleanly_and_fast(self):
        topology = line(3)
        schedule = FaultSchedule(
            events=(node_down(0.1, 1), node_up(5.0, 1)), name="blip"
        )
        with ReplicaCluster(topology, seed=4, time_scale=0.01) as cluster:
            assert cluster.put("k", "v0", node=1)
            cluster.inject_faults(schedule)
            # Wait for the crash to land, then hammer the dead node:
            # every put must fail with a clean error in bounded time,
            # not hang until the 30 s call timeout.
            deadline = time.monotonic() + 5.0
            refused = False
            while time.monotonic() < deadline and not refused:
                started = time.monotonic()
                try:
                    cluster.put("k", "v1", node=1)
                except ReplicationError as exc:
                    assert "down" in str(exc)
                    assert time.monotonic() - started < 5.0
                    refused = True
                time.sleep(0.01)
            assert refused, "crash never surfaced to the client"
            # Other replicas keep serving throughout.
            update = cluster.put("k", "v2", node=0)
            _wait_chaos_done(cluster)
            # After the scheduled recovery the node serves again.
            assert cluster.wait_replicated(update.uid, timeout=10.0)
            cluster.put("k", "v3", node=1)

    def test_close_fails_pending_calls_instead_of_hanging(self):
        cluster = ReplicaCluster(line(3), seed=1, time_scale=0.01).start()
        # White-box: a call future that never gets a loop-side result
        # (the scenario: close() racing an in-flight client call).
        future = cluster._register_pending()
        cluster.close()
        started = time.monotonic()
        with pytest.raises(ReplicationError):
            future.result(timeout=5.0)
        assert time.monotonic() - started < 2.0

    def test_calls_after_close_raise(self):
        cluster = ReplicaCluster(line(3), seed=1, time_scale=0.01).start()
        cluster.close()
        with pytest.raises(ReplicationError):
            cluster.put("k", "v")
        with pytest.raises(ReplicationError):
            cluster.get("k")


class TestServingThroughChaos:
    """A queue cluster serves puts while a fault schedule replays."""

    #: Loose: a healthy run sits well under 200 ms, so this catches
    #: convergence pathologies, not machine-load jitter.
    P99_SLO_MS = 1500.0

    @pytest.mark.parametrize(
        "name", ["rolling_restart", "flapping_links", "corrupt_storm"]
    )
    def test_every_put_converges_within_the_p99_slo(self, name):
        time_scale = 0.02
        topology = internet_like(8, seed=7)
        schedule = build_faults(name, topology, seed=7)
        with ReplicaCluster(
            topology,
            config=VARIANTS["fast"](),
            seed=7,
            time_scale=time_scale,
            faults=schedule,
        ) as cluster:
            # Serve through the schedule and a post-heal tail; a packet
            # window outlives its event by its duration.
            window_end = schedule.last_packet_window_end() or 0.0
            horizon = (max(schedule.duration, window_end) + 2.0) * time_scale
            uids = []
            started = time.monotonic()
            sequence = 0
            while time.monotonic() - started < horizon:
                node = cluster.node_ids[sequence % len(cluster.node_ids)]
                try:
                    uids.append(cluster.put("content", f"v{sequence}", node=node).uid)
                except ReplicationError:
                    pass  # the target is down: a clean refusal is the contract
                sequence += 1
                time.sleep(0.01)
            chaos = _wait_chaos_done(cluster, timeout=30.0)
            assert chaos["applied"] == chaos["total"]
            assert uids
            for uid in uids:
                assert cluster.wait_replicated(uid, timeout=30.0), uid
            p99 = cluster.replication_latency_quantile(0.99)
            stats = cluster.stats()
        assert stats["handler_errors"] == 0
        assert p99 is not None and 1000 * p99 <= self.P99_SLO_MS
        if name == "corrupt_storm":
            # The storm bites on the live channel and still converges.
            assert stats["traffic"].get("corrupt_frames_dropped", 0) > 0


class TestTcpCluster:
    def test_three_processes_replicate_and_survive_chaos(self):
        topology = line(3)
        schedule = FaultSchedule(
            events=(node_down(0.5, 1), node_up(3.0, 1)), name="blip"
        )
        with ReplicaCluster(
            topology, seed=7, time_scale=0.02, transport="tcp"
        ) as cluster:
            # Plain replication across OS processes.
            update = cluster.put("key", "v1", node=0)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            assert cluster.get("key", node=2) == "v1"
            assert cluster.replication_latency(update.uid) is not None

            # Chaos over the control socket, like `repro chaos` does.
            sock = socket.create_connection(cluster.control_address, timeout=5.0)
            channel = SyncFrameChannel(sock)
            try:
                channel.send(("topology?",))
                kind, remote_topology = channel.recv(timeout=5.0)
                assert kind == "topology"
                assert remote_topology.num_nodes == 3
                channel.send(("chaos", schedule))
                reply = channel.recv(timeout=5.0)
                assert reply[0] == "chaos-ack"
                assert reply[1]["events"] == 2
            finally:
                channel.close()
            _wait_chaos_done(cluster, timeout=30.0)

            # Post-heal convergence: a fresh write still reaches all.
            update = cluster.put("key", "v2", node=2)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            assert cluster.get("key", node=1) == "v2"

            stats = cluster.stats()
            assert stats["transport"] == "tcp"
            assert stats["chaos"]["applied"] == 2


class TestPacketFaultParity:
    def test_all_four_packet_actions_apply_in_sim_and_live(self):
        # ISSUE gate: the same schedule object carrying every packet
        # action accounts identically in virtual time (the simulator's
        # replayer) and on the wall clock (the queue cluster's).
        topology = line(3)
        schedule = FaultSchedule(
            events=(
                latency_shock(0.2, 2.0, 1.0),
                packet_reorder(0.3, 0.5, 0.5, 1.0),
                packet_duplicate(0.4, 0.5, 1.0),
                corrupt_frame(0.5, 0.2, 1.0),
            ),
            name="packet-mix",
        ).validate()

        system = build_system(topology="line", n=3, variant="weak", seed=9)
        process = system.inject_faults(schedule)
        system.start()
        system.run_until(schedule.duration + 1.0)
        sim_stats = dict(process.stats)

        with ReplicaCluster(topology, seed=9, time_scale=0.01) as cluster:
            replayer = cluster.inject_faults(schedule)
            status = _wait_chaos_done(cluster)
            live_stats = dict(replayer.stats)

        expected = {
            "latency_shock": 1,
            "packet_reorder": 1,
            "packet_duplicate": 1,
            "corrupt_frame": 1,
        }
        assert sim_stats == expected
        assert live_stats == expected
        assert status["applied"] == 4
        assert status["skipped"] == 0
        assert not process.skipped

    def test_packet_windows_meter_on_live_transport(self):
        # Probability-1 duplication over a converging put: the queue
        # transport must suppress (and meter) at least one duplicate.
        topology = line(3)
        schedule = FaultSchedule(
            events=(packet_duplicate(0.0, 1.0, 2000.0),), name="dup"
        )
        with ReplicaCluster(topology, seed=6, time_scale=0.01) as cluster:
            cluster.inject_faults(schedule)
            time.sleep(0.05)  # let the t=0 window arm
            update = cluster.put("k", "v", node=0)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            counters = cluster.transport.counters
            assert counters.duplicates_suppressed > 0


class TestReplayerCancelledOnClose:
    def test_close_disarms_pending_fault_timers(self):
        # Regression: a replay cancelled mid-schedule must not leave
        # armed timers behind — close() cancels them, so a later
        # explicit cancel() finds nothing pending.
        topology = line(3)
        schedule = FaultSchedule(
            events=(node_down(500.0, 1), node_up(1000.0, 1)), name="later"
        )
        cluster = ReplicaCluster(topology, seed=3, time_scale=0.01).start()
        replayer = cluster.inject_faults(schedule)
        assert replayer.applied == 0
        cluster.close()
        assert replayer.cancel() == 0
        assert replayer.applied == 0
        assert not replayer.skipped


class TestControlAuth:
    def test_unauthenticated_and_wrong_token_refused(self):
        with ReplicaCluster(
            line(3), seed=2, time_scale=0.01, control_port=0, token="hush"
        ) as cluster:
            sock = socket.create_connection(cluster.control_address, timeout=5.0)
            channel = SyncFrameChannel(sock)
            try:
                # No auth yet: every frame is refused with one error line.
                channel.send(("topology?",))
                reply = channel.recv(timeout=5.0)
                assert reply[0] == "error"
                assert "unauthenticated" in reply[1]
                assert "\n" not in reply[1]
                # A wrong token does not authenticate the connection.
                channel.send(("auth", "wrong"))
                reply = channel.recv(timeout=5.0)
                assert reply[0] == "error"
                # The right token unlocks the same connection.
                channel.send(("auth", "hush"))
                channel.send(("topology?",))
                kind, topology = channel.recv(timeout=5.0)
                assert kind == "topology"
                assert topology.num_nodes == 3
            finally:
                channel.close()

    def test_tokenless_cluster_accepts_plain_clients(self):
        with ReplicaCluster(
            line(3), seed=2, time_scale=0.01, control_port=0
        ) as cluster:
            sock = socket.create_connection(cluster.control_address, timeout=5.0)
            channel = SyncFrameChannel(sock)
            try:
                channel.send(("topology?",))
                kind, _ = channel.recv(timeout=5.0)
                assert kind == "topology"
            finally:
                channel.close()


class TestHubFailover:
    def test_kill_hub_mid_traffic_is_survivable(self):
        # The tentpole's no-SPOF claim: kill the primary hub while a
        # 3-process TCP cluster is replicating; nodes re-register with
        # the standby and a fresh put still converges everywhere.
        topology = line(3)
        with ReplicaCluster(
            topology,
            seed=11,
            time_scale=0.02,
            transport="tcp",
            standby_hubs=1,
            token="hush",
        ) as cluster:
            assert len(cluster.hub_addresses) == 2
            update = cluster.put("k", "v1", node=0)
            assert cluster.wait_replicated(update.uid, timeout=20.0)

            cluster.kill_hub()

            # The control channel flaps while children re-register with
            # the standby; client calls fail fast and cleanly until the
            # failover heals, then traffic flows again.
            deadline = time.monotonic() + 15.0
            update = None
            while update is None:
                try:
                    update = cluster.put("k", "v2", node=1)
                except ReplicationError:
                    assert time.monotonic() < deadline, "failover never healed"
                    time.sleep(0.05)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            assert cluster.get("k", node=2) == "v2"
            stats = cluster.stats()
            assert stats["transport"] == "tcp"
            assert stats["handler_errors"] == 0
            p99 = cluster.replication_latency_quantile(0.99)
            assert p99 is not None and p99 <= 1.5  # the chaos p99 SLO

    def test_kill_hub_refused_without_standby(self):
        with ReplicaCluster(
            line(3), seed=4, time_scale=0.02, transport="tcp", standby_hubs=0
        ) as cluster:
            with pytest.raises(ReplicationError, match="standby"):
                cluster.kill_hub()
