"""Tests for demand views and the advertisement protocol."""

from __future__ import annotations

import pytest

from repro.demand.advertisement import (
    DemandAdvert,
    DemandAdvertiser,
    bootstrap_tables,
)
from repro.demand.dynamic import ScheduledDemand
from repro.demand.static import ConstantDemand, ExplicitDemand
from repro.demand.views import (
    DemandTable,
    NeighborRanking,
    OracleDemandView,
    SnapshotDemandView,
    TableDemandView,
)
from repro.errors import DemandError
from repro.sim.network import FixedLatency, Network


class TestViews:
    def test_oracle_tracks_current_time(self, sim):
        model = ScheduledDemand(initial={0: 5.0}, changes={0: [(2.0, 9.0)]})
        view = OracleDemandView(model, clock=lambda: sim.now)
        assert view.demand_of(0) == 5.0
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert view.demand_of(0) == 9.0

    def test_snapshot_is_frozen(self):
        model = ScheduledDemand(initial={0: 5.0}, changes={0: [(2.0, 9.0)]})
        view = SnapshotDemandView(model, nodes=[0], at_time=0.0)
        assert view.demand_of(0) == 5.0  # even "after" the change

    def test_snapshot_unknown_node_raises(self):
        view = SnapshotDemandView(ConstantDemand(1.0), nodes=[0])
        with pytest.raises(DemandError):
            view.demand_of(7)

    def test_rank_orders_by_believed_demand(self):
        view = SnapshotDemandView(
            ExplicitDemand({0: 4.0, 1: 6.0, 2: 3.0, 3: 8.0, 4: 7.0}), nodes=range(5)
        )
        ranking = NeighborRanking(view)
        assert ranking.rank([0, 1, 2, 3, 4]) == (3, 4, 1, 0, 2)
        assert ranking.demands == (8.0, 7.0, 6.0, 4.0, 3.0)

    def test_table_view_reads_table(self):
        table = DemandTable(default=0.0)
        table.update(3, 12.0, now=1.0)
        view = TableDemandView(table)
        assert view.demand_of(3) == 12.0
        assert view.demand_of(9) == 0.0  # default for unheard nodes


class TestDemandTable:
    def test_update_and_staleness(self):
        table = DemandTable()
        table.update(1, 5.0, now=2.0)
        assert table.believed(1) == 5.0
        assert table.staleness(1, now=6.0) == 4.0
        assert table.staleness(9, now=6.0) is None
        assert table.known_nodes() == (1,)
        assert len(table) == 1

    def test_update_overwrites(self):
        table = DemandTable()
        table.update(1, 5.0, now=0.0)
        table.update(1, 8.0, now=3.0)
        assert table.believed(1) == 8.0
        assert table.staleness(1, now=3.0) == 0.0


class TestAdvertiser:
    def _setup(self, sim, topo, model, period=1.0, jitter=0.0):
        net = Network(sim, topo, latency=FixedLatency(0.01))
        tables = {}
        advertisers = {}
        for node in topo.nodes:
            tables[node] = DemandTable()
            advertisers[node] = DemandAdvertiser(
                sim, net, node, model, tables[node], period=period, jitter=jitter
            )
            net.attach(
                node,
                lambda src, msg, _n=node: advertisers[_n].on_message(src, msg),
            )
        return net, tables, advertisers

    def test_adverts_fill_neighbor_tables(self, sim, line5):
        model = ExplicitDemand({i: float(i * 10) for i in range(5)})
        net, tables, advertisers = self._setup(sim, line5, model)
        for adv in advertisers.values():
            adv.start()
        sim.run(until=0.5)
        # Node 2 heard from neighbours 1 and 3 but not from 0 or 4.
        assert tables[2].believed(1) == 10.0
        assert tables[2].believed(3) == 30.0
        assert tables[2].staleness(0, sim.now) is None

    def test_adverts_track_demand_changes(self, sim, line5):
        model = ScheduledDemand(initial={1: 2.0}, changes={1: [(2.0, 9.0)]})
        net, tables, advertisers = self._setup(sim, line5, model, period=0.5)
        for adv in advertisers.values():
            adv.start()
        sim.run(until=1.0)
        assert tables[0].believed(1) == 2.0
        sim.run(until=3.0)
        assert tables[0].believed(1) == 9.0

    def test_advert_message_size(self):
        advert = DemandAdvert(sender=0, value=1.0)
        assert advert.size_bytes() == 28

    def test_double_start_rejected(self, sim, line5):
        model = ConstantDemand(1.0)
        _, _, advertisers = self._setup(sim, line5, model)
        advertisers[0].start()
        with pytest.raises(DemandError):
            advertisers[0].start()

    def test_invalid_period_rejected(self, sim, line5):
        net = Network(sim, line5)
        with pytest.raises(DemandError):
            DemandAdvertiser(sim, net, 0, ConstantDemand(1.0), DemandTable(), period=0.0)

    def test_round_counters(self, sim, line5):
        model = ConstantDemand(1.0)
        _, _, advertisers = self._setup(sim, line5, model, period=1.0)
        advertisers[0].start()
        sim.run(until=2.5)
        assert advertisers[0].rounds_sent == 3  # t = 0, 1, 2

    def test_bootstrap_tables_warm_start(self, sim, line5):
        model = ExplicitDemand({i: float(i) for i in range(5)})
        net = Network(sim, line5)
        tables = bootstrap_tables(net, model, at_time=0.0)
        assert tables[2].believed(1) == 1.0
        assert tables[2].believed(3) == 3.0
        # Only neighbours are bootstrapped.
        assert tables[2].staleness(0, 0.0) is None
