"""Tests for the repro.snapshot/1 codec (repro.serve.state).

The load-bearing property is *byte identity*: a churn run killed
mid-stream, snapshotted, restored into a fresh network, and resumed must
produce exactly the stats and final network state of the uninterrupted
run — at every worker count and across mux backends.  The codec earns
that by recording mux requirement floats verbatim (they are a function
of the add/remove history, not the resident entry set) and by bumping
the ledger and topology versions on restore so no version-keyed cache
can serve pre-restore state.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bcp import BCPNetwork
from repro.core.muxkernel import VectorLinkMux
from repro.network import LinkId, Topology, torus
from repro.network.reservations import InsufficientCapacityError, ReservationLedger
from repro.obs.registry import MetricsRegistry
from repro.routing import NoPathError, RouteConstraints, shortest_path
from repro.routing.flatgraph import flat_view
from repro.serve import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    restore_network,
    snapshot_network,
    write_snapshot,
)
from repro.workload import ChurnConfig, ChurnEngine
from tests.mux_oracle import plant_kernel


def churn_config() -> ChurnConfig:
    return ChurnConfig(
        arrival_rate=6.0, holding_time=4.0, duration=20.0,
        epoch_interval=5.0, eval_scenarios=2, pairs=16,
        num_backups=1, mux_degree=2, seed=3,
    )


def fresh_network() -> BCPNetwork:
    return BCPNetwork(torus(4, 4, capacity=160.0))


def kernel_links(network: BCPNetwork) -> int:
    return sum(
        isinstance(state, VectorLinkMux)
        for state in network.mux.link_states().values()
    )


def dumps(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True)


class TestSnapshotRoundTrip:
    def test_restored_network_snapshots_identically(self):
        network = fresh_network()
        engine = ChurnEngine(network, churn_config(), metrics=MetricsRegistry())
        engine.run(until=10.0)
        snapshot = snapshot_network(network)
        restored = fresh_network()
        restore_network(restored, snapshot)
        assert dumps(snapshot_network(restored)) == dumps(snapshot)
        assert restored.audit_invariants() == []
        assert restored.num_connections == network.num_connections

    def test_snapshot_survives_json_round_trip(self, tmp_path):
        network = fresh_network()
        engine = ChurnEngine(network, churn_config(), metrics=MetricsRegistry())
        engine.run(until=10.0)
        path = str(tmp_path / "snap.json")
        written = write_snapshot(network, path)
        loaded = load_snapshot(path)
        assert loaded == written
        restored = fresh_network()
        restore_network(restored, loaded)
        assert dumps(snapshot_network(restored)) == dumps(written)

    def test_killed_and_resumed_run_is_byte_identical(self):
        """Satellite: kill churn mid-stream, restore, resume — the
        resumed run's stats, ledger audit, and spare pools must match the
        uninterrupted run bit for bit."""
        config = churn_config()
        baseline = fresh_network()
        uninterrupted = ChurnEngine(
            baseline, config, metrics=MetricsRegistry()
        ).run()

        network = fresh_network()
        engine = ChurnEngine(network, config, metrics=MetricsRegistry())
        engine.run(until=10.0)
        snapshot = snapshot_network(network)
        restored = fresh_network()
        restore_network(restored, snapshot)
        # The client-side loop state (RNG streams, departures heap)
        # lives in the engine; only the network was killed and restored.
        engine.network = restored
        resumed = engine.run()

        assert resumed.to_dict() == uninterrupted.to_dict()
        assert restored.audit_invariants() == []
        assert dumps(snapshot_network(restored)) == dumps(
            snapshot_network(baseline)
        )

    @pytest.mark.parametrize("snapshot_kernel, restore_kernel",
                             [(True, False), (False, True)])
    def test_snapshots_are_portable_across_mux_backends(
        self, snapshot_kernel, restore_kernel, monkeypatch
    ):
        """A snapshot taken with every link on one backend restores
        byte-identically into a network that puts them on the other
        (the vectorized kernel planted for the test)."""
        def backend(kernel: bool) -> None:
            monkeypatch.undo()
            if kernel:
                plant_kernel(monkeypatch)

        config = churn_config()
        backend(snapshot_kernel)
        network = fresh_network()
        ChurnEngine(network, config, metrics=MetricsRegistry()).run(until=10.0)
        snapshot = snapshot_network(network)
        backend(restore_kernel)
        restored = fresh_network()
        restore_network(restored, snapshot)
        assert bool(kernel_links(network)) == snapshot_kernel
        assert bool(kernel_links(restored)) == restore_kernel
        assert dumps(snapshot_network(restored)) == dumps(snapshot)
        assert restored.audit_invariants() == []


class TestRestoreGuards:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="not a repro.snapshot/1"):
            restore_network(fresh_network(), {"schema": "repro.metrics/1"})

    def test_rejects_non_fresh_network(self):
        network = fresh_network()
        ChurnEngine(
            network, churn_config(), metrics=MetricsRegistry()
        ).run(until=2.0)
        snapshot = snapshot_network(network)
        with pytest.raises(ValueError, match="fresh network"):
            restore_network(network, snapshot)

    def test_rejects_topology_mismatch(self):
        network = fresh_network()
        snapshot = snapshot_network(network)
        other = BCPNetwork(torus(3, 3, capacity=160.0))
        with pytest.raises(ValueError, match="topology mismatch"):
            restore_network(other, snapshot)

    @pytest.mark.parametrize("delta", [-1.0, 1.0])
    def test_rejects_wrong_pool_maximum_and_touches_nothing(self, delta):
        """``set_requirements`` trusts the recorded pool maximum, so a row
        whose ``spare_required`` is not its largest resident requirement
        is refused before the target network is mutated."""
        network = fresh_network()
        ChurnEngine(
            network, churn_config(), metrics=MetricsRegistry()
        ).run(until=10.0)
        snapshot = json.loads(dumps(snapshot_network(network)))
        row = snapshot["mux"][len(snapshot["mux"]) // 2]
        recorded = row["spare_required"]
        assert recorded == max(r for _, r in row["entries"])
        row["spare_required"] = recorded + delta

        target = fresh_network()

        def state() -> tuple:
            return (
                target.ledger.version,
                target.ledger.change_cursor,
                target.registry.next_id,
                target.engine.next_connection_id,
            )

        before = state()
        with pytest.raises(
            ValueError, match=rf"link index {row['link']}: spare_required"
        ):
            restore_network(target, snapshot)
        assert state() == before
        assert target.num_connections == 0
        assert next(target.registry.channels(), None) is None
        assert not target.mux.link_states()
        # The untampered snapshot still restores into the same target.
        row["spare_required"] = recorded
        restore_network(target, snapshot)
        assert dumps(snapshot_network(target)) == dumps(snapshot)

    @staticmethod
    def four_connection_snapshot() -> dict:
        network = fresh_network()
        for src, dst in ((0, 5), (1, 10), (2, 7), (12, 3)):
            network.establish(src, dst)
        return json.loads(dumps(snapshot_network(network)))

    @staticmethod
    def corrupt(snapshot: dict, corruption: str) -> int:
        """Apply one mux-row corruption; returns the row's link index."""
        row = snapshot["mux"][0]
        entries = row["entries"]
        if corruption == "unknown channel":
            entries[0][0] = 999
        elif corruption == "primary channel":
            entries[0][0] = snapshot["connections"][0]["primary"]["id"]
        elif corruption == "backup off the link":
            crossing = {channel_id for channel_id, _ in entries}
            entries[0][0] = next(
                backup["id"]
                for connection in snapshot["connections"]
                for backup in connection["backups"]
                if backup["id"] not in crossing
            )
        elif corruption == "backup listed twice":
            entries.append(list(entries[0]))
        elif corruption == "link out of range":
            row["link"] = len(snapshot["topology"]["links"])
        return row["link"]

    @pytest.mark.parametrize("corruption, message", [
        ("unknown channel", "channel 999 is not in the snapshot"),
        ("primary channel", "is not a backup"),
        ("backup off the link", "does not cross the link"),
        ("backup listed twice", "listed twice"),
        ("link out of range", "no such link"),
    ])
    def test_rejects_a_bad_mux_entry_and_touches_nothing(
        self, corruption, message
    ):
        """Every mux entry is checked against the decoded connections
        before the target network is mutated: a bad one raises
        ``ValueError`` naming its row and leaves no connection, channel
        or pool behind."""
        snapshot = self.four_connection_snapshot()
        index = self.corrupt(snapshot, corruption)
        self.assert_refused_untouched(
            snapshot, rf"link index {index}: .*{message}"
        )

    @pytest.mark.parametrize("corruption, message", [
        ("channel id twice", "lists channel .* twice"),
        ("connection id twice", "lists connection .* twice"),
        ("channel counter behind", "next_channel_id = 0 would reuse an id"),
        ("connection counter behind",
         "next_connection_id = 3 would reuse an id"),
        ("negative pool", "negative restored pool"),
        ("pool over capacity", "requested 1e\\+09 but only 160 available"),
    ])
    def test_rejects_bad_ids_counters_and_pools_and_touches_nothing(
        self, corruption, message
    ):
        """The rest of a snapshot is checked before anything is written
        too: a repeated channel or connection id, an id counter that
        would hand out an id the snapshot holds, and a pool the ledger
        refuses all leave the target network as it was."""
        snapshot = self.four_connection_snapshot()
        connections = snapshot["connections"]
        if corruption == "channel id twice":
            connections[1]["primary"]["id"] = connections[0]["primary"]["id"]
        elif corruption == "connection id twice":
            connections[1]["id"] = connections[0]["id"]
        elif corruption == "channel counter behind":
            snapshot["counters"]["next_channel_id"] = 0
        elif corruption == "connection counter behind":
            snapshot["counters"]["next_connection_id"] = 3
        elif corruption == "negative pool":
            snapshot["ledger"][3][0] = -5.0
        elif corruption == "pool over capacity":
            snapshot["ledger"][3][0] = 1e9
        self.assert_refused_untouched(snapshot, message)

    def test_rejects_a_primary_off_the_topology_and_touches_nothing(self):
        snapshot = self.four_connection_snapshot()
        connection = snapshot["connections"][0]
        assert connection["id"] == 0
        connection["primary"]["nodes"] = [0, 99, 5]
        self.assert_refused_untouched(
            snapshot, r"connection 0: channel \d+ steps over 0->99"
        )

    def test_rejects_pools_the_primaries_do_not_carry(self):
        """A primary moved onto another real route leaves its old links'
        pools holding bandwidth no snapshot connection carries."""
        snapshot = self.four_connection_snapshot()
        primary = snapshot["connections"][0]["primary"]
        assert primary["nodes"] in ([0, 1, 5], [0, 4, 5])
        primary["nodes"] = [0, 4 if primary["nodes"][1] == 1 else 1, 5]
        self.assert_refused_untouched(
            snapshot, r"primary pool of link 0->\d holds .* but the "
            r"snapshot's connections carry 0.0"
        )

    @staticmethod
    def assert_refused_untouched(snapshot: dict, message: str) -> None:
        target = fresh_network()
        version = target.ledger.version
        with pytest.raises(
            (ValueError, InsufficientCapacityError), match=message
        ):
            restore_network(target, snapshot)
        assert target.num_connections == 0
        assert next(target.registry.channels(), None) is None
        assert target.ledger.version == version
        assert target.spare_fraction() == 0.0
        assert not target.mux.link_states()

    def test_load_snapshot_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ValueError, match="not a repro.snapshot/1"):
            load_snapshot(str(path))

    def test_counter_setters_refuse_to_move_backward(self):
        network = fresh_network()
        ChurnEngine(
            network, churn_config(), metrics=MetricsRegistry()
        ).run(until=2.0)
        with pytest.raises(ValueError):
            network.registry.next_id = 0
        with pytest.raises(ValueError):
            network.engine.next_connection_id = 0

    def test_schema_tag_is_versioned(self):
        assert snapshot_network(fresh_network())["schema"] == SNAPSHOT_SCHEMA


class TestStaleCacheRegression:
    """Satellite: a restore must bump the ledger and topology versions so
    capacity-floor searches, flat free mirrors, and spare snapshots
    never serve pre-restore state."""

    def line_ledger(self) -> "tuple[Topology, ReservationLedger]":
        # Duplex links are two directed entries each: the pool list below
        # is positional over links() order (0→1, 1→0, 1→2, 2→1).
        topology = Topology(name="line")
        for node in range(3):
            topology.add_node(node)
        topology.add_duplex_link(0, 1, capacity=10.0)
        topology.add_duplex_link(1, 2, capacity=10.0)
        return topology, ReservationLedger(topology)

    def test_restore_pools_bumps_version_and_refreshes_caches(self):
        _, ledger = self.line_ledger()
        ledger.reserve_primary(LinkId(0, 1), 4.0)
        version = ledger.version
        ledger.restore_pools(
            [(2.0, 1.0), (0.0, 0.0), (3.0, 0.5), (0.0, 0.0)]
        )
        assert ledger.version == version + 1
        assert ledger.primary_reserved(LinkId(0, 1)) == 2.0
        assert ledger.spare_reserved(LinkId(1, 2)) == 0.5
        assert ledger.snapshot_spares()[LinkId(0, 1)] == 1.0

    def test_floor_route_reflects_a_restore(self):
        topology, ledger = self.line_ledger()
        constraints = RouteConstraints(
            link_admissible=ledger.capacity_floor(9.0)
        )
        assert shortest_path(topology, 0, 2, constraints).nodes == (0, 1, 2)
        ledger.restore_pools([(2.0, 0.0)] + [(0.0, 0.0)] * 3)
        # 0→1 now has 8 free: the same search must see the restored pool.
        with pytest.raises(NoPathError):
            shortest_path(topology, 0, 2, constraints)

    def test_restore_pools_validates_then_applies(self):
        _, ledger = self.line_ledger()
        ledger.reserve_primary(LinkId(0, 1), 4.0)
        version = ledger.version
        with pytest.raises(InsufficientCapacityError):
            ledger.restore_pools(
                [(2.0, 1.0), (0.0, 0.0), (11.0, 0.0), (0.0, 0.0)]
            )
        # Nothing applied, version untouched.
        assert ledger.primary_reserved(LinkId(0, 1)) == 4.0
        assert ledger.version == version
        with pytest.raises(ValueError, match="has 1 links"):
            ledger.restore_pools([(1.0, 0.0)])

    def test_restore_leaves_no_warm_view_behind(self):
        network = fresh_network()
        ChurnEngine(
            network, churn_config(), metrics=MetricsRegistry()
        ).run(until=10.0)
        snapshot = snapshot_network(network)
        restored = fresh_network()
        # Warm the target's caches pre-restore, as a long-lived server
        # process would have.
        flat_view(restored.topology)
        ledger_version = restored.ledger.version
        restore_network(restored, snapshot)
        assert restored.ledger.version > ledger_version
        # Post-restore reads reflect the snapshot, not the warm state.
        assert dumps(snapshot_network(restored)) == dumps(snapshot)
