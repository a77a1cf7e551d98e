"""Declarative scenario specs: the single description every surface runs.

A :class:`ScenarioSpec` names one *cell* of the evaluation space — a
topology (a :class:`~repro.network.spec.TopologySpec`: family + size), a
workload profile (steady-state recovery evaluation, churn, or a chaos
campaign), a protocol configuration ``(K, b, D)`` (backups per
connection, multiplexing degree, RCC per-hop delay bound), and a seed.
Chaos campaigns and their replay artifacts, churn runs, the served
network and CI sweeps all consume the same spec instead of hand-wiring
their own combination, so a new scenario family is one JSON value, not
new code.

Specs are pure frozen data with a full-fidelity JSON codec
(``repro.scenario/1``); a JSONL file of specs is a *lattice* the matrix
runner executes cell by cell.  :mod:`repro.scenario.matrix` expands axis
lists into lattices; :mod:`repro.scenario.runner` executes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.chaos.profiles import PROFILES
from repro.network.spec import TopologySpec, from_trimmed_dict, trimmed_dict
from repro.protocol.config import ProtocolConfig, RCCParams, SwitchingScheme
from repro.util.validation import check_non_negative, check_positive

#: Codec schema identifier (bumped on incompatible format changes).
SCENARIO_SCHEMA = "repro.scenario/1"

#: Keys a matrix document may carry purely for human readers; the codec
#: ignores them instead of rejecting the file.
MATRIX_DOC_KEYS = frozenset({"description", "notes"})

#: Workload kinds a spec may name.
WORKLOAD_KINDS = ("eval", "churn", "chaos")

#: Failure models of the ``eval`` workload (the paper's Section 7.2).
FAILURE_MODELS = ("single-link", "single-node", "double-node")

#: Spare-placement modes of the ``eval`` workload: the proposed
#: multiplexed placement, or the Table 3 brute-force uniform placement.
SPARE_MODES = ("multiplexed", "bruteforce")


# ----------------------------------------------------------------------
# protocol (K, b, D)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolSpec:
    """The protocol configuration axis: ``(K, b, D)`` plus the scheme.

    ``num_backups`` is K (backup channels per D-connection),
    ``mux_degree`` is b (the multiplexing degree every link accepts), and
    ``d_max`` is D (the RCC per-hop delivery bound the Γ analysis uses).
    """

    num_backups: int = 1
    mux_degree: int = 3
    d_max: float = 1.0
    scheme: int = 3

    def __post_init__(self) -> None:
        if self.num_backups < 0:
            raise ValueError(
                f"num_backups must be >= 0, got {self.num_backups}"
            )
        if self.mux_degree < 0:
            raise ValueError(
                f"mux_degree must be >= 0, got {self.mux_degree}"
            )
        check_positive(self.d_max, "d_max")
        SwitchingScheme(self.scheme)  # raises on unknown scheme numbers

    def config(self) -> ProtocolConfig:
        """The :class:`ProtocolConfig` this spec pins (rest at defaults)."""
        return ProtocolConfig(
            scheme=SwitchingScheme(self.scheme),
            rcc=RCCParams(max_delay=self.d_max),
        )

    def qos(self) -> FaultToleranceQoS:
        return FaultToleranceQoS(
            num_backups=self.num_backups, mux_degree=self.mux_degree
        )

    @property
    def label(self) -> str:
        text = f"K{self.num_backups}b{self.mux_degree}"
        if self.d_max != 1.0:
            text += f"D{self.d_max:g}"
        return text

    def to_dict(self) -> dict:
        return trimmed_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "ProtocolSpec":
        return from_trimmed_dict(ProtocolSpec, data, "protocol spec")


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """What the cell drives through the network.

    * ``eval`` — establish the all-pairs workload, then replay one of the
      paper's failure models (``failure_model``) through the recovery
      evaluator; ``spare_mode="bruteforce"`` evaluates under Table 3's
      uniform spare placement instead of the proposed multiplexed pools.
    * ``churn`` — a seeded arrival/departure process with epoch-boundary
      invariant audits (see :mod:`repro.workload.churn`).
    * ``chaos`` — a campaign of seeded fault schedules with the protocol
      invariant auditor attached (see :mod:`repro.chaos`); ``profiles``
      empty means all profiles, rotated.
    """

    kind: str = "eval"
    # eval
    failure_model: str = "single-link"
    samples: int = 50
    spare_mode: str = "multiplexed"
    # churn
    arrival_rate: float = 50.0
    holding_time: float = 10.0
    duration: float = 20.0
    epoch_interval: float = 5.0
    eval_scenarios: int = 0
    pairs: int = 64
    bandwidth: float = 1.0
    batch_window: float = 0.05
    # chaos
    campaign_size: int = 8
    connections: int = 6
    profiles: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"known: {', '.join(WORKLOAD_KINDS)}"
            )
        if self.failure_model not in FAILURE_MODELS:
            raise ValueError(
                f"unknown failure model {self.failure_model!r}; "
                f"known: {', '.join(FAILURE_MODELS)}"
            )
        if self.spare_mode not in SPARE_MODES:
            raise ValueError(
                f"unknown spare mode {self.spare_mode!r}; "
                f"known: {', '.join(SPARE_MODES)}"
            )
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.holding_time, "holding_time")
        check_positive(self.duration, "duration")
        check_positive(self.epoch_interval, "epoch_interval")
        check_positive(self.bandwidth, "bandwidth")
        check_non_negative(self.batch_window, "batch_window")
        if self.eval_scenarios < 0:
            raise ValueError(
                f"eval_scenarios must be >= 0, got {self.eval_scenarios}"
            )
        if self.pairs < 0:
            raise ValueError(f"pairs must be >= 0, got {self.pairs}")
        if self.campaign_size < 1:
            raise ValueError(
                f"campaign_size must be >= 1, got {self.campaign_size}"
            )
        if self.connections < 1:
            raise ValueError(
                f"connections must be >= 1, got {self.connections}"
            )
        unknown = [name for name in self.profiles if name not in PROFILES]
        if unknown:
            raise ValueError(
                f"unknown chaos profile(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(PROFILES))}"
            )

    @property
    def label(self) -> str:
        if self.kind == "eval":
            text = f"eval-{self.failure_model}"
            if self.spare_mode == "bruteforce":
                text += "-bf"
            return text
        if self.kind == "chaos" and len(self.profiles) == 1:
            return f"chaos-{self.profiles[0]}"
        return self.kind

    def to_dict(self) -> dict:
        return trimmed_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "WorkloadSpec":
        return from_trimmed_dict(WorkloadSpec, data, "workload spec")


# ----------------------------------------------------------------------
# the cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-pinned scenario cell (the matrix runner's work unit)."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    seed: int = 0
    #: Declarative SLO targets (see :mod:`repro.obs.slo`) evaluated
    #: against the cell's own registry snapshot after the run; the
    #: symbolic ``gamma`` threshold resolves to the cell network's
    #: worst-case analytic recovery bound.
    slos: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "protocol": self.protocol.to_dict(),
            "seed": self.seed,
            **({"slos": list(self.slos)} if self.slos else {}),
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"expected schema {SCENARIO_SCHEMA!r}, got {schema!r}"
            )
        unknown = sorted(
            set(data)
            - {"schema", "name", "topology", "workload", "protocol",
               "seed", "slos"}
        )
        if unknown:
            raise ValueError(
                f"scenario spec: unknown field(s) {', '.join(unknown)}"
            )
        return ScenarioSpec(
            name=data["name"],
            topology=TopologySpec.from_dict(data.get("topology", {})),
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            protocol=ProtocolSpec.from_dict(data.get("protocol", {})),
            seed=data.get("seed", 0),
            slos=tuple(data.get("slos", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        return ScenarioSpec.from_dict(json.loads(text))


def write_lattice(path: str, specs) -> None:
    """Write a spec lattice as ``repro.scenario/1`` JSONL (one per line)."""
    with open(path, "w") as handle:
        for spec in specs:
            handle.write(spec.to_json() + "\n")
