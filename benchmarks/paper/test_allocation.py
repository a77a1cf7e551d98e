"""Paper-scale allocation checks for the loaded network and the
event-level protocol.

    PYTHONPATH=src python -m pytest benchmarks/paper -q

``tests/test_protocol_allocation.py`` and
``tests/test_network_allocation.py`` hold the tier-1 gates on the 4x4
torus; these are the same counts at the scale the benchmark workloads run
at, where a full collection walks the 4 032 connections of the loaded
network as well as whatever a run kept.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.analysis.delay import required_rcc_frame_messages
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import all_single_link_failures, all_single_node_failures
from repro.obs import NULL_REGISTRY
from repro.protocol import InvariantAuditor, ProtocolConfig, ProtocolSimulation
from repro.protocol.config import RCCParams
from repro.recovery import RecoveryEvaluator
from repro.core.plan import network_plan
from repro.protocol.plan import node_tables

#: Tracked objects the node-19 simulation adds (construction + run, the
#: first seed-0 scenario of ``protocol-recovery``).  Measured 17 733 on
#: CPython 3.11; 18 443 while every unhealthy channel's source re-sent a
#: rejoin probe on a timer (budget 21 500, set at 19 915); 22 365 while
#: each rejoin and probe timer was a ``Timeout`` / ``PeriodicTimer``
#: object around its event handle (20 907 when the first budget was
#: set).  While every RCC link seeded its loss
#: generator up front and the daemons, links and runtime pointed at each
#: other strongly it kept 22 568, and dropping it left 18 333 objects to
#: the collector; the parent of the change that added this check kept
#: 59 500 and left 19 538 of them to the collector after the run itself.
RETAINED_BUDGET = 19_200

#: What one loaded 8x8 mux=3 network holds (all 4 032 pairs, one shared
#: traffic spec), measured on CPython 3.11: 38 575 tracked objects and
#: 7.14 MiB of traced heap.  While every link kept a ``MuxEntry`` per
#: backup and the registry a ``{channel id: Channel}`` dict per link, and
#: channels and connections had no slots, 52 895 objects and 9.52 MiB;
#: while the mux engine keyed each primary by its component frozenset and
#: a path kept a ``__dict__``, 64 992 objects and 12.84 MiB; before each
#: channel's components were stored once, as its path's nodes and links,
#: 81 121 objects and 21.79 MiB, and dropping it left 28 895 objects to
#: the cycle collector.  The budgets allow 10 % over the measurement.
NETWORK_OBJECT_BUDGET = 42_400
NETWORK_MIB_BUDGET = 7.9

#: What the first simulation of that network compiles — the plan and the
#: daemons' index on it — measured on CPython 3.11: 798 tracked objects
#: and 2.64 MiB traced.  The plan copies no per-channel fact: it keeps the
#: network's own channels back to back in one tuple, per node the daemons
#: keep a channel map, an endpoint map and a neighbour index filled on
#: touch.  With one tuple of channels per connection, 4 819 objects and
#: 2.79 MiB.  While a separate protocol plan copied a meta tuple
#: and a path entry per channel, an eager neighbour index and a view
#: template per endpoint, 16 262 objects and 5.14 MiB (budgets 17 000 and
#: 5.8); with a row per (channel, node) pair, a connection index per node
#: and an owned-link frozenset per primary, 63 157 objects and 14.08 MiB.
PLAN_OBJECT_BUDGET = 880
PLAN_MIB_BUDGET = 3.0

#: The same plan with both consumers' indexes filled: the daemons' (as
#: above) and the evaluator's, by all 320 single failures.  Measured
#: 12 655 tracked objects and 4.07 MiB on CPython 3.11.  The budget is
#: what the two separate compiles held together before they were folded
#: into one plan — 16 262 objects and 5.14 MiB for the protocol plan plus
#: about 12 200 and 2.05 MiB for the filled recovery plan — so the fold
#: can never cost more than it replaced.
COMBINED_OBJECT_BUDGET = 28_462
COMBINED_MIB_BUDGET = 7.19


def _loaded_network(rows: int) -> BCPNetwork:
    network = BCPNetwork(torus(rows, rows, capacity=200.0))
    report = establish_workload(
        network, all_pairs(network.topology),
        FaultToleranceQoS(num_backups=1, mux_degree=3),
    )
    assert report.established == rows * rows * (rows * rows - 1)
    return network


def test_loaded_network_size_and_lifetime():
    _loaded_network(4)  # every module the build reaches is imported
    gc.collect()
    gc.disable()
    try:
        start = len(gc.get_objects())
        tracemalloc.start()
        try:
            network = _loaded_network(8)
            # A collection untracks the tuples and dicts that hold no
            # container, so the count below is the settled one.
            assert gc.collect() == 0
            heap_mib = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        tracked = len(gc.get_objects()) - start
        for connection in network.connections():
            network.teardown(connection)
        del network
        unreachable = gc.collect()
    finally:
        gc.enable()
    print(f"loaded 8x8 network: {tracked} tracked objects, "
          f"{heap_mib:.2f} MiB traced")
    assert unreachable == 0, "the dropped network left cyclic garbage"
    assert tracked <= NETWORK_OBJECT_BUDGET, tracked
    assert heap_mib <= NETWORK_MIB_BUDGET, heap_mib


def _compile_for_protocol(network: BCPNetwork) -> None:
    """What the first simulation of a network state compiles: the plan
    and the daemons' index on it."""
    node_tables(network_plan(network), network.topology.nodes())


def _single_failures(network: BCPNetwork) -> list:
    topology = network.topology
    return (all_single_link_failures(topology)
            + all_single_node_failures(topology))


def _allocated(compile_) -> tuple[int, float]:
    """Tracked objects and traced MiB that ``compile_()`` leaves behind."""
    gc.collect()
    gc.disable()
    try:
        start = len(gc.get_objects())
        tracemalloc.start()
        try:
            compile_()
            assert gc.collect() == 0
            heap_mib = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        tracked = len(gc.get_objects()) - start
    finally:
        gc.enable()
    return tracked, heap_mib


def test_protocol_plan_size():
    network = _loaded_network(8)
    _compile_for_protocol(_loaded_network(4))  # every module it reaches
    tracked, heap_mib = _allocated(lambda: _compile_for_protocol(network))
    print(f"8x8 protocol plan: {tracked} tracked objects, "
          f"{heap_mib:.2f} MiB traced")
    assert tracked <= PLAN_OBJECT_BUDGET, tracked
    assert heap_mib <= PLAN_MIB_BUDGET, heap_mib


def test_plan_with_both_indexes_size():
    network = _loaded_network(8)
    scenarios = _single_failures(network)
    warm = _loaded_network(4)  # every module both consumers reach
    _compile_for_protocol(warm)
    RecoveryEvaluator(warm, metrics=NULL_REGISTRY).evaluate_many(
        _single_failures(warm))

    def compile_both() -> None:
        _compile_for_protocol(network)
        RecoveryEvaluator(network, metrics=NULL_REGISTRY).evaluate_many(
            scenarios)

    tracked, heap_mib = _allocated(compile_both)
    print(f"8x8 plan, both indexes filled: {tracked} tracked objects, "
          f"{heap_mib:.2f} MiB traced")
    assert tracked <= COMBINED_OBJECT_BUDGET, tracked
    assert heap_mib <= COMBINED_MIB_BUDGET, heap_mib


def test_node_failure_leaves_nothing_to_collect():
    network = _loaded_network(8)
    # Section 5.2: the frame carries the worst burst, so D_max holds.
    config = ProtocolConfig(rcc=RCCParams(
        max_messages_per_frame=required_rcc_frame_messages(network)
    ))
    _compile_for_protocol(network)  # the plan is the network's, not the run's
    for audited in (False, True):
        gc.collect()
        gc.disable()
        try:
            start = len(gc.get_objects())
            simulation = ProtocolSimulation(
                network, config, seed=0, metrics=NULL_REGISTRY
            )
            auditor = InvariantAuditor(simulation) if audited else None
            if auditor is not None:
                auditor.attach()
            simulation.fail(19, at=1.0)
            simulation.run(until=500.0)
            retained = len(gc.get_objects()) - start
            unreachable = gc.collect()
            drained = simulation.engine.pending == 0
            recoveries = simulation.metrics.recoveries.values()
            recovered = sum(record.recovered for record in recoveries)
            # Dropping the drained run frees it by reference count.
            alive = weakref.ref(simulation)
            del simulation, auditor, recoveries
            freed = alive() is None
            dropped_unreachable = gc.collect()
        finally:
            gc.enable()
        assert drained and recovered > 100
        assert unreachable == 0, "the run left cyclic garbage"
        if not audited:
            assert retained <= RETAINED_BUDGET, retained
        assert freed, "the dropped simulation is held by a cycle"
        assert dropped_unreachable == 0, (
            "the dropped simulation left cyclic garbage"
        )
