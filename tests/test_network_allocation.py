"""Allocation gates for a loaded network: it is freed by reference count,
it stores each channel's components once, as its path's nodes and links,
and each backup's multiplexing facts once, as one row its links share.

``benchmarks/paper/test_allocation.py`` holds the same checks at the
paper's 8x8 scale, with pinned heap and tracked-object budgets.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import all_single_node_failures
from repro.obs import NULL_REGISTRY
from repro.protocol import ProtocolSimulation
from repro.recovery import RecoveryEvaluator

#: What the loaded 4x4 mux=3 network below holds (240 connections),
#: measured on CPython 3.11: 2 767 tracked objects and 0.430 MiB of
#: traced heap.  While every link kept a ``MuxEntry`` per backup and the
#: registry a ``{channel id: Channel}`` dict per link, 3 167 and 0.515 MiB.
#: The budgets allow 10 % over the measurement.
NETWORK_OBJECT_BUDGET = 3_050
NETWORK_MIB_BUDGET = 0.48


def _loaded_torus4() -> BCPNetwork:
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    report = establish_workload(
        network, all_pairs(network.topology),
        FaultToleranceQoS(num_backups=1, mux_degree=3),
    )
    assert report.established == 240
    return network


def test_a_dropped_network_leaves_nothing_to_collect():
    """Build, tear everything down, drop: the topology's flat view, its
    route cache and the ledger all go by reference count."""
    gc.collect()
    gc.disable()
    try:
        network = _loaded_torus4()
        for connection in network.connections():
            network.teardown(connection)
        del network
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, "the network left cyclic garbage"


def test_no_channel_path_builds_its_component_set():
    """Build, the evaluator over every single-node failure, a protocol run
    and teardown read every primary's and backup's components through
    its nodes and links only: the mux engine interns a primary straight
    into a bitmask."""
    network = _loaded_torus4()
    paths = [
        channel.path
        for connection in network.connections()
        for channel in (connection.primary, *connection.backups)
    ]
    assert len(paths) == 480
    RecoveryEvaluator(network).evaluate_many(
        all_single_node_failures(network.topology)
    )
    simulation = ProtocolSimulation(network, seed=0, metrics=NULL_REGISTRY)
    simulation.fail(5, at=1.0)
    simulation.run(until=500.0)
    assert simulation.metrics.recovered_count() > 0
    for connection in network.connections():
        network.teardown(connection)
    assert not hasattr(paths[0], "__dict__")
    built = [path for path in paths
             if path._components is not None or path._transit is not None]
    assert not built, f"{len(built)} of {len(paths)} channel paths"


def test_loaded_network_size():
    _loaded_torus4()  # every module the build reaches is imported
    gc.collect()
    gc.disable()
    try:
        start = len(gc.get_objects())
        tracemalloc.start()
        try:
            network = _loaded_torus4()
            # A collection untracks the tuples and dicts that hold no
            # container, so the count below is the settled one.
            assert gc.collect() == 0
            heap_mib = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        tracked = len(gc.get_objects()) - start
    finally:
        gc.enable()
    assert network.num_connections == 240
    assert tracked <= NETWORK_OBJECT_BUDGET, tracked
    assert heap_mib <= NETWORK_MIB_BUDGET, heap_mib


def test_every_link_of_a_backup_holds_its_one_row():
    network = _loaded_torus4()
    mux = network.mux
    backups = [
        backup
        for connection in network.connections()
        for backup in connection.backups
    ]
    assert len(backups) == 240
    for backup in backups:
        rows = [mux.link_state(link).row(backup.channel_id)
                for link in backup.path.links]
        assert all(row is rows[0] for row in rows), backup
        assert (rows[0].channel_id, rows[0].bandwidth, rows[0].mux_degree) == (
            backup.channel_id, backup.bandwidth, backup.mux_degree
        )
