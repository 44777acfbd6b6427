"""The tentpole guarantee of the runtime port: ``ReplicationSystem`` on
:class:`SimRuntime` reproduces pre-refactor event traces bit-identically.

``tests/data/golden_traces.json`` was generated by running the
scenarios in :mod:`trace_goldens` against the *pre-port* code (every
agent still holding a ``Simulator``/``Network`` pair directly) and
fingerprinting the full trace — SHA-256 over every record, executed
event count, final virtual time, traffic counters.  These tests re-run
the identical scenarios through the refactored stack; any behavioural
drift in the port (an extra RNG draw, a reordered schedule call, a
changed trace field) changes a fingerprint and fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from trace_goldens import SCENARIOS, fingerprint

from repro.runtime import Channel, Runtime, SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.simple import ring

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_bit_identical(self, name, goldens):
        assert name in goldens, f"regenerate goldens: scenario {name} missing"
        measured = fingerprint(SCENARIOS[name]())
        assert measured == goldens[name], (
            f"scenario {name!r} diverged from the pre-refactor trace"
        )

    def test_goldens_cover_every_scenario(self, goldens):
        assert set(goldens) == set(SCENARIOS)


class TestPortConformance:
    """The simulator's classes are the port's: a Channel and a Runtime."""

    def test_network_is_a_channel(self):
        sim = Simulator(seed=1)
        net = Network(sim, ring(4))
        assert isinstance(net, Channel)

    def test_simruntime_is_a_runtime(self):
        sim = Simulator(seed=1)
        net = Network(sim, ring(4))
        assert isinstance(SimRuntime(sim, net), Runtime)

    def test_simruntime_delegates(self):
        sim = Simulator(seed=2)
        net = Network(sim, ring(4))
        runtime = SimRuntime(sim, net)
        assert runtime.transport is net
        assert runtime.rng is sim.rng
        assert runtime.trace is sim.trace
        fired = []
        handle = runtime.schedule(1.0, fired.append, "a")
        runtime.schedule(2.0, fired.append, "b")
        assert runtime.cancel(handle) is True
        assert runtime.cancel(handle) is False
        assert runtime.run() == "exhausted"
        assert fired == ["b"]
        assert runtime.now == sim.now == 2.0

    def test_simruntime_pubsub_delegates(self):
        sim = Simulator(seed=3)
        runtime = SimRuntime(sim)
        got = []
        runtime.subscribe("topic", lambda **kw: got.append(kw))
        assert sim.publish("topic", x=1) == 1
        assert runtime.publish("topic", x=2) == 1
        runtime.unsubscribe("topic", None)  # unknown handler: no-op
        assert got == [{"x": 1}, {"x": 2}]

    def test_transport_physical_neighbors(self):
        sim = Simulator(seed=4)
        net = Network(sim, ring(5))
        net.add_overlay_link(0, 2, 0.5)
        assert set(net.physical_neighbors(0)) == {1, 4}
        assert set(net.neighbors(0)) == {1, 2, 4}
