"""Versioned full-network snapshot codec (``repro.snapshot/1``).

Extends :meth:`~repro.network.reservations.ReservationLedger.snapshot_spares`
from a spare-pool copy into a complete, JSON-serialisable snapshot of a
:class:`~repro.core.bcp.BCPNetwork`: reservation pools, live connections
and their channels, the id counters, and the per-link multiplexing state.
A restarted server restores from it and continues **byte-identically** —
no re-admission, no re-routing, no drifted floats.

Why the mux section stores floats verbatim
------------------------------------------

The multiplexing engine maintains per-entry ``requirement`` values and
the per-link pool maximum *incrementally* (``+= bandwidth`` on add,
``-= bandwidth`` on remove).  IEEE arithmetic makes those values a
function of the full add/remove **history**, not of the resident entry
set — ``(x + b) - b != x`` in general.  Recomputing requirements from
the surviving entries after a restore would therefore produce subtly
different floats, different admission decisions, and a diverged run.

The codec instead records, per link, the resident entries **in
insertion order** with their exact requirement floats plus the link's
pool maximum.  Restore hands each row to
:meth:`~repro.core.multiplexing.MultiplexingEngine.restore_link`, which
replays the adds in that order and then transplants the recorded floats
over the freshly computed ones.  The same reasoning covers the ledger:
pools are written back verbatim through
:meth:`~repro.network.reservations.ReservationLedger.restore_pools`,
which also bumps the ledger version and voids its change log, so
compiled plans, flat-view free mirrors and spare snapshots can never
serve pre-restore state.  The topology, and with it the compiled CSR
view and its route cache, does not change: it is frozen, and a restore
writes reservation state only.
"""

from __future__ import annotations

import json

from repro.channels.channel import Channel, ChannelRole
from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import SPARE_MIRROR_EPSILON, BCPNetwork
from repro.core.dconnection import ConnectionState, DConnection
from repro.routing.paths import Path

#: Snapshot schema tag; bump on incompatible layout changes.
SNAPSHOT_SCHEMA = "repro.snapshot/1"


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_channel(channel: Channel) -> dict:
    return {
        "id": channel.channel_id,
        "serial": channel.serial,
        "nodes": list(channel.path.nodes),
        "mux_degree": channel.mux_degree,
    }


def _encode_connection(connection: DConnection) -> dict:
    traffic = connection.traffic
    delay = connection.delay_qos
    ft = connection.ft_qos
    return {
        "id": connection.connection_id,
        "source": connection.source,
        "destination": connection.destination,
        "traffic": {
            "bandwidth": traffic.bandwidth,
            "max_message_size": traffic.max_message_size,
            "max_message_rate": traffic.max_message_rate,
        },
        "delay_qos": {
            "slack_hops": delay.slack_hops,
            "per_channel_baseline": delay.per_channel_baseline,
        },
        "ft_qos": {
            "num_backups": ft.num_backups,
            "mux_degree": ft.mux_degree,
            "required_pr": ft.required_pr,
            "max_backups": ft.max_backups,
        },
        "state": connection.state.name,
        "achieved_pr": connection.achieved_pr,
        "primary": _encode_channel(connection.primary),
        "backups": [_encode_channel(backup) for backup in connection.backups],
    }


def snapshot_network(network: BCPNetwork) -> dict:
    """The complete restorable state of ``network`` as a JSON-ready dict.

    Deterministic: connections in establishment order, links in
    ``topology.links()`` order, mux entries in per-link insertion order,
    every float verbatim.  Two networks with identical histories produce
    byte-identical snapshots — the serve smoke gate relies on that.
    """
    topology = network.topology
    links = list(topology.links())
    link_index = {link: position for position, link in enumerate(links)}
    mux_rows = []
    for link, state in network.mux.link_states().items():
        entries = state.entries()
        if not entries:
            continue  # indistinguishable from an untouched link
        mux_rows.append(
            {
                "link": link_index[link],
                "entries": [
                    [entry.channel_id, entry.requirement] for entry in entries
                ],
                "spare_required": state.spare_required(),
            }
        )
    mux_rows.sort(key=lambda row: row["link"])
    return {
        "schema": SNAPSHOT_SCHEMA,
        "topology": {
            "name": topology.name,
            "links": [
                [link.src, link.dst, topology.capacity(link)] for link in links
            ],
        },
        "ledger": [list(pair) for pair in network.ledger.snapshot_pools()],
        "connections": [
            _encode_connection(connection)
            for connection in network.connections()
        ],
        "counters": {
            "next_channel_id": network.registry.next_id,
            "next_connection_id": network.engine.next_connection_id,
        },
        "mux": mux_rows,
    }


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _decode_channel(
    data: dict,
    connection_id: int,
    role: ChannelRole,
    traffic: TrafficSpec,
) -> Channel:
    return Channel(
        channel_id=data["id"],
        connection_id=connection_id,
        role=role,
        serial=data["serial"],
        path=Path(data["nodes"]),
        traffic=traffic,
        mux_degree=data["mux_degree"],
    )


def _decode_connection(data: dict) -> DConnection:
    traffic = TrafficSpec(**data["traffic"])
    connection_id = data["id"]
    primary = _decode_channel(
        data["primary"], connection_id, ChannelRole.PRIMARY, traffic
    )
    backups = [
        _decode_channel(backup, connection_id, ChannelRole.BACKUP, traffic)
        for backup in data["backups"]
    ]
    return DConnection(
        connection_id=connection_id,
        source=data["source"],
        destination=data["destination"],
        traffic=traffic,
        delay_qos=DelayQoS(**data["delay_qos"]),
        ft_qos=FaultToleranceQoS(**data["ft_qos"]),
        primary=primary,
        backups=backups,
        state=ConnectionState[data["state"]],
        achieved_pr=data["achieved_pr"],
    )


def _check_topology(network: BCPNetwork, snapshot: dict) -> list:
    recorded = snapshot["topology"]["links"]
    links = list(network.topology.links())
    actual = [
        [link.src, link.dst, network.topology.capacity(link)]
        for link in links
    ]
    if actual != recorded:
        raise ValueError(
            f"snapshot topology mismatch: snapshot has {len(recorded)} "
            f"links, network {network.topology.name!r} has {len(actual)} "
            f"(and/or endpoints or capacities differ) — restore needs a "
            f"topology built from the same spec"
        )
    return links


def _check_ids(
    connections: "list[DConnection]", counters: dict
) -> "dict[int, Channel]":
    """Every channel of ``connections`` by id.  Rejects a connection or
    channel id listed twice, and an id counter that would hand out an id
    the snapshot already holds."""
    channels: dict[int, Channel] = {}
    connection_ids = set()
    for connection in connections:
        if connection.connection_id in connection_ids:
            raise ValueError(
                f"snapshot lists connection {connection.connection_id} twice"
            )
        connection_ids.add(connection.connection_id)
        for channel in connection.channels:
            if channel.channel_id in channels:
                raise ValueError(
                    f"snapshot lists channel {channel.channel_id} twice"
                )
            channels[channel.channel_id] = channel
    for key, ids in (("next_channel_id", channels),
                     ("next_connection_id", connection_ids)):
        floor = max(ids) + 1 if ids else 0
        if not counters[key] >= floor:
            raise ValueError(
                f"snapshot counter {key} = {counters[key]!r} would reuse an "
                f"id (the snapshot holds ids below {floor})"
            )
    return channels


def _check_paths(
    network: BCPNetwork, connections: "list[DConnection]", links: list,
    pools: list,
) -> None:
    """Reject a decoded channel whose path steps off the topology, and
    primary pools the decoded primaries do not account for, before
    anything is mutated (one pass over the hops).  ``pools`` is what
    :meth:`~repro.network.reservations.ReservationLedger.check_pools`
    returned, in ``links`` order.  They are compared as
    :meth:`BCPNetwork.audit_invariants` compares them: a pool may hold
    less than the primaries crossing its link carry, never more."""
    has_link = network.topology.has_link
    carried: dict = {}
    for connection in connections:
        for channel in connection.channels:
            nodes = channel.path.nodes
            for src, dst in zip(nodes, nodes[1:]):
                if not has_link(src, dst):
                    raise ValueError(
                        f"snapshot connection {connection.connection_id}: "
                        f"channel {channel.channel_id} steps over {src!r}->"
                        f"{dst!r}, which is not a link of the topology"
                    )
        bandwidth = connection.traffic.bandwidth
        for link in connection.primary.path.links:
            carried[link] = carried.get(link, 0.0) + bandwidth
    for link, (_, primary, _) in zip(links, pools):
        crossing = carried.get(link, 0.0)
        if primary - crossing > SPARE_MIRROR_EPSILON:
            raise ValueError(
                f"snapshot primary pool of link {link} holds "
                f"{primary!r} but the snapshot's connections carry "
                f"{crossing!r} over it"
            )


def _check_mux_rows(
    snapshot: dict, links: list, channels: "dict[int, Channel]"
) -> None:
    """Reject a mux row that :meth:`MultiplexingEngine.restore_link`
    could not replay, before anything is mutated: a link index outside
    the topology, an entry naming a channel the snapshot does not hold,
    a channel that is not a backup or whose path does not cross the
    row's link, a channel listed twice, or a ``spare_required`` that is
    not the row's largest resident requirement (the engine takes the
    recorded pool maximum on trust and does not recompute it until a
    holder leaves; exact ``==``, as every recorded state satisfies it
    bit for bit)."""
    for row in snapshot["mux"]:
        index = row["link"]
        where = f"snapshot mux row for link index {index!r}"
        if (isinstance(index, bool) or not isinstance(index, int)
                or not 0 <= index < len(links)):
            raise ValueError(f"{where}: no such link")
        link = links[index]
        seen = set()
        for channel_id, _ in row["entries"]:
            channel = channels.get(channel_id)
            if channel is None:
                raise ValueError(
                    f"{where}: channel {channel_id!r} is not in the snapshot"
                )
            if channel.role is not ChannelRole.BACKUP:
                raise ValueError(f"{where}: channel {channel_id} is not a backup")
            if link not in channel.path.links:
                raise ValueError(
                    f"{where}: backup {channel_id} does not cross the link"
                )
            if channel_id in seen:
                raise ValueError(f"{where}: backup {channel_id} listed twice")
            seen.add(channel_id)
        largest = max(
            (requirement for _, requirement in row["entries"]), default=0.0
        )
        if row["spare_required"] != largest:
            raise ValueError(
                f"{where}: spare_required {row['spare_required']!r} is not "
                f"its largest resident requirement {largest!r}"
            )


def restore_network(network: BCPNetwork, snapshot: dict) -> None:
    """Restore ``snapshot`` into a freshly built ``network`` in place.

    ``network`` must carry the same topology the snapshot was taken over
    (same links, same order, same capacities — build it from the same
    :class:`~repro.scenario.spec.TopologySpec`) and must not have
    admitted anything yet.  On return the network is observationally
    identical to the snapshotted one: every admission decision, pool
    size, audit result, and recovery evaluation from here on matches the
    uninterrupted original bit for bit.
    """
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"not a {SNAPSHOT_SCHEMA} snapshot: "
            f"schema={snapshot.get('schema')!r}"
        )
    links = _check_topology(network, snapshot)
    if network.num_connections or next(network.registry.channels(), None):
        raise ValueError(
            "restore_network needs a fresh network; this one already "
            f"holds {network.num_connections} connection(s)"
        )

    # 1. Decode and check everything before anything is mutated: the
    # channel and connection ids, the id counters, the reservation pools
    # (the ledger's own check), every channel's hops and the primary
    # pools they account for, and every mux row.
    connections = [
        _decode_connection(data) for data in snapshot["connections"]
    ]
    channels = _check_ids(connections, snapshot["counters"])
    pools = [(pair[0], pair[1]) for pair in snapshot["ledger"]]
    _check_paths(network, connections, links,
                 network.ledger.check_pools(pools))
    _check_mux_rows(snapshot, links, channels)

    # 2. Reservation pools, verbatim (bumps the ledger version).
    network.ledger.restore_pools(pools)

    # 3. Connections and channels.  Channels register in channel-id order:
    # registration originally happened in allocation order, and the
    # registry's id dict and link lists preserve the survivors' relative
    # order across deletions, so this reproduces the live registry's
    # iteration order exactly.
    for connection in connections:
        network._connections[connection.connection_id] = connection
    for channel_id in sorted(channels):
        network.registry.add(channels[channel_id])
    counters = snapshot["counters"]
    network.registry.next_id = counters["next_channel_id"]
    network.engine.next_connection_id = counters["next_connection_id"]

    # 4. Multiplexing state, link by link in recorded insertion order
    # with the recorded floats (see module docstring).
    for row in snapshot["mux"]:
        entries = []
        for channel_id, requirement in row["entries"]:
            backup = channels[channel_id]
            primary = network._connections[backup.connection_id].primary
            entries.append((backup, primary, requirement))
        network.mux.restore_link(
            links[row["link"]], entries, row["spare_required"]
        )


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def write_snapshot(network: BCPNetwork, path: str) -> dict:
    """Snapshot ``network`` to ``path`` (deterministic JSON); returns it."""
    snapshot = snapshot_network(network)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, sort_keys=True)
        handle.write("\n")
    return snapshot


def load_snapshot(path: str) -> dict:
    """Read a snapshot file; raises ``ValueError`` on a wrong schema."""
    with open(path) as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or (
        snapshot.get("schema") != SNAPSHOT_SCHEMA
    ):
        raise ValueError(f"{path}: not a {SNAPSHOT_SCHEMA} snapshot file")
    return snapshot
