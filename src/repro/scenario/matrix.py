"""Scenario matrices: axis lists expanded into full cell lattices.

A :class:`ScenarioMatrix` holds one list per axis — topologies,
workloads, protocol configurations — and :meth:`~ScenarioMatrix.expand`
takes their cartesian product in a fixed order (topology outermost,
protocol innermost), deriving one deterministic per-cell seed from
``base_seed`` (one parent RNG, one draw per cell, in expansion order).
Expanding the same matrix therefore always yields the same lattice, cell
names and seeds included, no matter where or how many times it runs.

The ``repro.matrix/1`` JSON codec stores the axes, not the product, so a
hundreds-of-cells sweep is a dozen lines of JSON; :func:`load_cells`
accepts either format — a matrix file to expand, or a pre-expanded
``repro.scenario/1`` JSONL lattice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.scenario.spec import (
    MATRIX_DOC_KEYS,
    SCENARIO_SCHEMA,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.util.rng import make_rng

#: Codec schema identifier (bumped on incompatible format changes).
MATRIX_SCHEMA = "repro.matrix/1"


@dataclass(frozen=True)
class ScenarioMatrix:
    """Axis lists whose product is a scenario lattice."""

    name: str
    topologies: tuple = (TopologySpec(),)
    workloads: tuple = (WorkloadSpec(),)
    protocols: tuple = (ProtocolSpec(),)
    base_seed: int = 0
    #: SLO targets stamped onto every expanded cell.
    slos: tuple = ()
    #: Fully-pinned extra cells appended after the product — typically
    #: regression cells promoted from failing seeds, carrying their own
    #: explicit seed so they reproduce regardless of ``base_seed``.
    cells: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("matrix name must be non-empty")
        for axis, values in (
            ("topologies", self.topologies),
            ("workloads", self.workloads),
            ("protocols", self.protocols),
        ):
            if not values:
                raise ValueError(f"matrix axis {axis!r} must be non-empty")

    def expand(self) -> list[ScenarioSpec]:
        """The full cell lattice, in deterministic product order.

        Cell seeds are drawn from one parent RNG seeded with
        ``base_seed``, in expansion order — a pure function of the
        matrix, independent of worker counts or prior expansions.
        Duplicate cell names (duplicate axis values) are an error.
        """
        parent = make_rng(self.base_seed)
        cells: list[ScenarioSpec] = []
        seen: set[str] = set()
        for topology in self.topologies:
            for workload in self.workloads:
                for protocol in self.protocols:
                    name = (
                        f"{self.name}/{topology.label}/"
                        f"{workload.label}/{protocol.label}"
                    )
                    if name in seen:
                        raise ValueError(
                            f"duplicate cell name {name!r}; matrix axes "
                            f"must not repeat values"
                        )
                    seen.add(name)
                    cells.append(
                        ScenarioSpec(
                            name=name,
                            topology=topology,
                            workload=workload,
                            protocol=protocol,
                            seed=parent.getrandbits(48),
                            slos=self.slos,
                        )
                    )
        for pinned in self.cells:
            if pinned.name in seen:
                raise ValueError(
                    f"pinned cell {pinned.name!r} collides with another "
                    f"cell; pinned cells must carry unique names"
                )
            seen.add(pinned.name)
            cells.append(pinned)
        return cells

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": MATRIX_SCHEMA,
            "name": self.name,
            "base_seed": self.base_seed,
            "axes": {
                "topologies": [t.to_dict() for t in self.topologies],
                "workloads": [w.to_dict() for w in self.workloads],
                "protocols": [p.to_dict() for p in self.protocols],
            },
            **({"slos": list(self.slos)} if self.slos else {}),
            **(
                {"cells": [cell.to_dict() for cell in self.cells]}
                if self.cells else {}
            ),
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioMatrix":
        schema = data.get("schema", MATRIX_SCHEMA)
        if schema != MATRIX_SCHEMA:
            raise ValueError(
                f"expected schema {MATRIX_SCHEMA!r}, got {schema!r}"
            )
        unknown = sorted(
            set(data)
            - {"schema", "name", "base_seed", "axes", "slos", "cells"}
            - MATRIX_DOC_KEYS
        )
        if unknown:
            raise ValueError(
                f"matrix: unknown field(s) {', '.join(unknown)}"
            )
        axes = data.get("axes", {})
        unknown_axes = sorted(
            set(axes) - {"topologies", "workloads", "protocols"}
        )
        if unknown_axes:
            raise ValueError(
                f"matrix: unknown axis/axes {', '.join(unknown_axes)}"
            )
        return ScenarioMatrix(
            name=data["name"],
            base_seed=data.get("base_seed", 0),
            topologies=tuple(
                TopologySpec.from_dict(item)
                for item in axes.get("topologies", [{}])
            ),
            workloads=tuple(
                WorkloadSpec.from_dict(item)
                for item in axes.get("workloads", [{}])
            ),
            protocols=tuple(
                ProtocolSpec.from_dict(item)
                for item in axes.get("protocols", [{}])
            ),
            slos=tuple(data.get("slos", ())),
            cells=tuple(
                ScenarioSpec.from_dict(item)
                for item in data.get("cells", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_cells(path: str) -> list[ScenarioSpec]:
    """Load a cell lattice from any spec file format.

    * ``repro.scenario/1`` JSONL — one spec per line (a pre-expanded
      lattice, e.g. ``scenarios/ci_smoke.jsonl``);
    * ``repro.matrix/1`` JSON — a matrix, expanded here;
    * ``repro.scenario/1`` JSON — a single spec (a one-cell lattice).

    Malformed lines/documents raise ``ValueError`` naming the location.
    """
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty spec file")
    if path.endswith(".jsonl"):
        cells = []
        for number, row in enumerate(text.splitlines(), start=1):
            if not row.strip():
                continue
            try:
                cells.append(ScenarioSpec.from_json(row))
            except (ValueError, KeyError, TypeError) as error:
                raise ValueError(
                    f"{path}:{number}: malformed scenario spec: {error}"
                ) from None
        if not cells:
            raise ValueError(f"{path}: no scenario specs found")
        return cells
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON: {error}") from None
    try:
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema == MATRIX_SCHEMA:
            return ScenarioMatrix.from_dict(data).expand()
        if schema == SCENARIO_SCHEMA:
            return [ScenarioSpec.from_dict(data)]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"{path}: {error}") from None
    raise ValueError(
        f"{path}: expected a {MATRIX_SCHEMA!r} or {SCENARIO_SCHEMA!r} "
        f"document"
    )


def select_shard(cells, index: int, count: int) -> list[ScenarioSpec]:
    """Deterministic round-robin shard ``index`` of ``count``.

    Cell ``i`` belongs to shard ``i % count``; the union of all shards,
    re-interleaved, is exactly the input lattice, independent of how many
    runners split it.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return [cell for i, cell in enumerate(cells) if i % count == index]


def diff_cells(old, new) -> tuple[list, list, list]:
    """Compare two lattices by cell name.

    Returns ``(added, removed, changed)``: names only in ``new``, names
    only in ``old``, and names present in both whose pinned payloads
    differ.
    """
    old_by_name = {cell.name: cell for cell in old}
    new_by_name = {cell.name: cell for cell in new}
    added = sorted(set(new_by_name) - set(old_by_name))
    removed = sorted(set(old_by_name) - set(new_by_name))
    changed = sorted(
        name
        for name in set(old_by_name) & set(new_by_name)
        if old_by_name[name] != new_by_name[name]
    )
    return added, removed, changed
