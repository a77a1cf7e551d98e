"""Declarative scenario matrix: specs, expansion, and the cached runner.

The single entry point the ROADMAP names: one ``repro.scenario/1`` spec
describes a cell (topology x workload x protocol ``(K, b, D)`` x seed),
a :class:`ScenarioMatrix` expands axis lists into a lattice, and
:func:`run_cells` executes the lattice through the existing engines with
compiled-topology caching and deterministic sharding over
:mod:`repro.parallel`.
"""

from repro.network.spec import TOPOLOGY_FAMILIES
from repro.scenario.matrix import (
    MATRIX_SCHEMA,
    ScenarioMatrix,
    diff_cells,
    load_cells,
    select_shard,
)
from repro.scenario.runner import (
    RESULT_SCHEMA,
    CellResult,
    TopologyCache,
    build_loaded_network,
    churn_config_from_spec,
    run_cell,
    run_cells,
    slo_results,
)
from repro.scenario.spec import (
    FAILURE_MODELS,
    SCENARIO_SCHEMA,
    SPARE_MODES,
    WORKLOAD_KINDS,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    write_lattice,
)

__all__ = [
    "FAILURE_MODELS",
    "MATRIX_SCHEMA",
    "RESULT_SCHEMA",
    "SCENARIO_SCHEMA",
    "SPARE_MODES",
    "TOPOLOGY_FAMILIES",
    "WORKLOAD_KINDS",
    "CellResult",
    "ProtocolSpec",
    "ScenarioMatrix",
    "ScenarioSpec",
    "TopologyCache",
    "TopologySpec",
    "WorkloadSpec",
    "build_loaded_network",
    "churn_config_from_spec",
    "diff_cells",
    "load_cells",
    "run_cell",
    "run_cells",
    "select_shard",
    "slo_results",
    "write_lattice",
]
