"""Tests for repro.faults: scenarios, enumerators, Poisson process."""

from __future__ import annotations

import pytest

from repro.faults import (
    FailureScenario,
    PoissonFailureProcess,
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.network import LinkId, torus


class TestFailureScenario:
    def test_link_scenario_components(self):
        topology = torus(3, 3)
        scenario = FailureScenario.of_links([LinkId(0, 1)])
        assert scenario.components(topology) == frozenset({LinkId(0, 1)})

    def test_node_failure_kills_incident_links(self):
        topology = torus(3, 3)
        scenario = FailureScenario.of_nodes([4])
        components = scenario.components(topology)
        assert 4 in components
        # Degree 4 in both directions: 8 links + the node itself.
        assert len(components) == 9
        assert LinkId(4, 5) in components and LinkId(5, 4) in components

    def test_hits_endpoint(self):
        scenario = FailureScenario.of_nodes([3])
        assert scenario.hits_endpoint(3, 7)
        assert scenario.hits_endpoint(7, 3)
        assert not scenario.hits_endpoint(1, 2)

    def test_link_failure_never_hits_endpoint(self):
        scenario = FailureScenario.of_links([LinkId(3, 7)])
        assert not scenario.hits_endpoint(3, 7)

    def test_size_and_name(self):
        scenario = FailureScenario.of_nodes([1, 2], name="double")
        assert scenario.size == 2
        assert str(scenario) == "double"

    def test_auto_names_are_deterministic(self):
        a = FailureScenario.of_nodes([2, 1])
        b = FailureScenario.of_nodes([1, 2])
        assert a.name == b.name


class TestEnumerators:
    def test_single_link_count(self):
        topology = torus(4, 4)
        scenarios = all_single_link_failures(topology)
        assert len(scenarios) == topology.num_links
        assert all(scenario.size == 1 for scenario in scenarios)

    def test_single_node_count(self):
        assert len(all_single_node_failures(torus(4, 4))) == 16

    def test_double_node_sampling(self):
        scenarios = sample_double_node_failures(torus(8, 8), count=50, seed=1)
        assert len(scenarios) == 50
        assert all(len(s.failed_nodes) == 2 for s in scenarios)
        assert len({s.failed_nodes for s in scenarios}) == 50  # no repeats

    def test_double_node_sampling_reproducible(self):
        a = sample_double_node_failures(torus(8, 8), count=10, seed=7)
        b = sample_double_node_failures(torus(8, 8), count=10, seed=7)
        assert [s.failed_nodes for s in a] == [s.failed_nodes for s in b]

    def test_sampling_falls_back_to_exhaustive(self):
        scenarios = sample_double_node_failures(torus(3, 3), count=10_000)
        assert len(scenarios) == 36


class TestPoissonProcess:
    def test_reproducible(self):
        topology = torus(3, 3)
        a = PoissonFailureProcess(topology, failure_rate=0.1, seed=3).generate(10.0)
        b = PoissonFailureProcess(topology, failure_rate=0.1, seed=3).generate(10.0)
        assert [(e.time, e.component) for e in a] == [
            (e.time, e.component) for e in b
        ]

    def test_events_sorted_and_within_horizon(self):
        events = PoissonFailureProcess(
            torus(3, 3), failure_rate=0.5, seed=0
        ).generate(5.0)
        times = [event.time for event in events]
        assert times == sorted(times)
        assert all(0 <= t < 5.0 for t in times)

    def test_permanent_failures_unique_per_component(self):
        events = PoissonFailureProcess(
            torus(3, 3), failure_rate=10.0, seed=0
        ).generate(100.0)
        components = [event.component for event in events]
        assert len(components) == len(set(components))
        assert all(event.repair_time is None for event in events)

    def test_repairable_failures_can_recur(self):
        events = PoissonFailureProcess(
            torus(3, 3), failure_rate=5.0, repair_rate=50.0, seed=0
        ).generate(20.0)
        components = [event.component for event in events]
        assert len(components) > len(set(components))
        assert all(event.repair_time > event.time for event in events)

    def test_rate_scaling(self):
        # Expected crash count ~ rate * horizon * components; compare rates.
        lo = len(PoissonFailureProcess(
            torus(3, 3), failure_rate=0.01, repair_rate=100.0, seed=0
        ).generate(50.0))
        hi = len(PoissonFailureProcess(
            torus(3, 3), failure_rate=0.1, repair_rate=100.0, seed=0
        ).generate(50.0))
        assert hi > lo

    def test_every_node_and_link_can_crash(self):
        topology = torus(3, 3)
        events = PoissonFailureProcess(
            topology, failure_rate=100.0, seed=0
        ).generate(1.0)
        assert {event.component for event in events} == {
            *topology.nodes(), *topology.links()
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonFailureProcess(torus(3, 3), failure_rate=0.0)
        process = PoissonFailureProcess(torus(3, 3), failure_rate=1.0)
        with pytest.raises(ValueError):
            process.generate(0.0)
