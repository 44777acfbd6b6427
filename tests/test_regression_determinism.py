"""Regression guards: driver determinism and remaining edge cases."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.experiments.figures import figure_cdf, table1_orderings
from repro.sim.engine import Simulator
from repro.sim.network import FixedLatency, Network
from repro.topology.analysis import hop_pair_counts, summarize
from repro.topology.graph import Topology
from repro.topology.simple import grid, line


class TestDriverDeterminism:
    """Identical seeds must give bit-identical experiment results —
    the property every number in EXPERIMENTS.md relies on."""

    def test_figure_cdf_reproducible(self):
        a = figure_cdf(n=20, reps=4, seed=11)
        b = figure_cdf(n=20, reps=4, seed=11)
        assert a.means == b.means
        assert a.curves == b.curves
        assert a.speedup_high_demand == b.speedup_high_demand

    def test_figure_cdf_seed_sensitivity(self):
        a = figure_cdf(n=20, reps=4, seed=11)
        b = figure_cdf(n=20, reps=4, seed=12)
        assert a.means != b.means

    def test_table1_is_pure(self):
        assert table1_orderings().rows() == table1_orderings().rows()


class TestNetworkEdgeCases:
    def test_detach_drops_future_deliveries(self, triangle):
        sim = Simulator(seed=1)
        net = Network(sim, triangle, latency=FixedLatency(0.1))
        got = []
        net.attach(1, lambda s, m: got.append(m))
        net.detach(1)

        class Msg:
            kind = "m"

            def size_bytes(self):
                return 1

        net.send(0, 1, Msg())
        sim.run()
        assert got == []
        assert net.counters.messages_dropped == 1

    def test_drop_reasons_traced(self, triangle):
        sim = Simulator(seed=1)
        net = Network(sim, triangle, latency=FixedLatency(0.1))
        net.links.set_link_down(0, 1)

        class Msg:
            kind = "m"

            def size_bytes(self):
                return 1

        net.send(0, 1, Msg())
        drops = sim.trace.select("net.drop")
        assert drops and drops[0].get("reason") == "link-down"


class TestAnalysisEdgeCases:
    def test_summarize_disconnected_graph(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        info = summarize(topo)
        assert info["connected"] is False
        assert info["diameter"] is None
        assert info["avg_path_length"] is None

    def test_summarize_empty_graph(self):
        info = summarize(Topology())
        assert info["nodes"] == 0
        assert info["diameter"] is None

    def test_hop_pair_counts_on_grid(self):
        topo = grid(3, 3)
        counts = hop_pair_counts(topo)
        assert counts[0] == 9
        assert counts[max(counts)] == 81  # all ordered pairs

    def test_hop_pair_counts_respects_max_hops(self):
        topo = line(6)
        counts = hop_pair_counts(topo, max_hops=2)
        assert max(counts) == 2
        # pairs within 2 hops on a 6-line: 6 self + 10 at dist1 + 8 at dist2
        assert counts[2] == 24
