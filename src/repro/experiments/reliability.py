"""Sections 3.1/3.3: the reliability models (Fig. 3) in practice.

Two sweeps:

* **model comparison** — R(one time unit) from the continuous-time Markov
  model of Fig. 3 against the combinatorial ``P_r`` the client interface
  uses, over a range of λ (they agree to first order; the combinatorial
  model is the λ≪1, fast-repair limit the paper argues for);
* **P_r vs configuration** — achieved ``P_r`` of live connections as a
  function of multiplexing degree and backup count on a loaded network,
  showing the fault-tolerance/overhead dial of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.markov import DConnectionMarkovModel
from repro.channels.qos import FaultToleranceQoS
from repro.core.reliability import pr_single_backup
from repro.experiments.setup import load_network
from repro.network.spec import TopologySpec
from repro.parallel import parallel_map
from repro.util.tables import format_table


#: The model comparison: a primary of 9 components (a 4-hop path) and a
#: disjoint backup of 11, over these per-component failure rates.
PRIMARY_COMPONENTS, BACKUP_COMPONENTS = 9, 11
LAMBDAS = (1e-6, 1e-5, 1e-4, 1e-3)
#: The (backups, mux degree) cells of the configuration sweep.
CONFIGURATIONS = ((1, 1), (1, 3), (1, 6), (2, 3), (2, 6))


@dataclass
class ReliabilityResult:
    #: λ -> (markov R(1), combinatorial P_r) for the model comparison.
    model_comparison: dict[float, tuple[float, float]] = field(
        default_factory=dict
    )
    #: (num_backups, mux_degree) -> (min P_r, mean P_r, spare fraction).
    configuration_sweep: dict[tuple[int, int], tuple[float, float, float]] = (
        field(default_factory=dict)
    )

    def format(self) -> str:
        """Render both reliability tables."""
        rows = [
            [f"{lam:g}", f"{markov:.9f}", f"{combinatorial:.9f}",
             f"{abs(markov - combinatorial):.2e}"]
            for lam, (markov, combinatorial) in sorted(
                self.model_comparison.items()
            )
        ]
        part1 = format_table(
            ["lambda", "Markov R(1)", "combinatorial P_r", "|diff|"],
            rows,
            title="Fig. 3 models: Markov vs combinatorial",
        )
        rows2 = [
            [backups, degree, f"{low:.9f}", f"{mean:.9f}", f"{spare:.2%}"]
            for (backups, degree), (low, mean, spare) in sorted(
                self.configuration_sweep.items()
            )
        ]
        part2 = format_table(
            ["backups", "mux", "min P_r", "mean P_r", "spare"],
            rows2,
            title="Achieved P_r vs backup configuration",
        )
        return part1 + "\n\n" + part2


def _configuration_cell(item: tuple) -> "tuple | None":
    """One (backups, mux) cell of the P_r sweep — its own establishment.

    Module-level so :func:`repro.parallel.parallel_map` can ship it to a
    worker process.
    """
    config, backups, degree = item
    qos = FaultToleranceQoS(num_backups=backups, mux_degree=degree)
    network, report = load_network(config, qos)
    if report.established == 0:
        return None
    values = [
        network.connection_reliability(connection)
        for connection in network.connections()
    ]
    return (backups, degree), (
        min(values),
        sum(values) / len(values),
        network.spare_fraction(),
    )


def run_reliability(
    config: TopologySpec, *, workers: "int | None"
) -> ReliabilityResult:
    """Run both reliability sweeps.

    ``workers`` parallelises the configuration sweep (one establishment
    per cell) across processes; cell results are position-independent, so
    any worker count gives the same tables.
    """
    result = ReliabilityResult()

    # Model comparison: one disjointly-routed backup, no multiplexing.
    for lam in LAMBDAS:
        markov = DConnectionMarkovModel(
            primary_rate=PRIMARY_COMPONENTS * lam,
            backup_rate=BACKUP_COMPONENTS * lam,
            shared_rate=0.0,
            repair_rate=0.0,  # combinatorial model resets per unit instead
        )
        combinatorial = pr_single_backup(
            PRIMARY_COMPONENTS, BACKUP_COMPONENTS, lam
        )
        result.model_comparison[lam] = (markov.reliability(1.0), combinatorial)

    # Configuration sweep on a live network — one establishment per cell,
    # fanned out over workers.
    cells = parallel_map(
        _configuration_cell,
        [(config, backups, degree) for backups, degree in CONFIGURATIONS],
        workers=workers,
    )
    for cell in cells:
        if cell is not None:
            key, values = cell
            result.configuration_sweep[key] = values
    return result
