"""The one description of a network: a topology family and its size.

A :class:`TopologySpec` names which generator of
:mod:`repro.network.generators` to call, and with what.  A spec without
a ``capacity`` builds at the generator's default, so the paper's link
capacities (Section 7.1, one per grid family) are written in one place,
the generators.  The experiments, the scenario cells of
:mod:`repro.scenario`, chaos campaigns and their replay artifacts all
describe their network with one.

:func:`trimmed_dict` / :func:`from_trimmed_dict` are the JSON codec this
spec shares with the other specs of a scenario cell.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro.network.generators import (
    check_regular,
    complete_graph,
    hypercube,
    line,
    mesh,
    random_regular,
    ring,
    star,
    torus,
    tree,
)
from repro.network.topology import Topology
from repro.util.validation import check_positive

#: Topology families a spec may name.
TOPOLOGY_FAMILIES = (
    "torus",
    "mesh",
    "ring",
    "line",
    "star",
    "hypercube",
    "complete",
    "tree",
    "random_regular",
)

#: Grid families sized by ``rows x cols``; the rest use ``size`` (and
#: ``degree``/``depth`` where noted).
_GRID_FAMILIES = ("torus", "mesh")


def trimmed_dict(instance) -> dict:
    """``asdict`` minus fields still at their default value.

    Keeps checked-in spec files short and diff-friendly: a cell names only
    what it pins, and the codec fills the rest back in on load.
    """
    data = {}
    for spec_field in fields(instance):
        value = getattr(instance, spec_field.name)
        if spec_field.default is not dataclasses.MISSING:
            if value == spec_field.default:
                continue
        elif spec_field.default_factory is not dataclasses.MISSING:
            if value == spec_field.default_factory():
                continue
        if isinstance(value, tuple):
            value = list(value)
        data[spec_field.name] = value
    return data


def from_trimmed_dict(cls, data: dict, context: str):
    """Strict inverse of :func:`trimmed_dict`: unknown keys are an error."""
    known = {spec_field.name for spec_field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{context}: unknown field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    return cls(**kwargs)


@dataclass(frozen=True)
class TopologySpec:
    """One topology family + size; :meth:`build` instantiates it.

    ``rows``/``cols`` size the grid families (torus, mesh); ``size``
    sizes everything else (node count, or the hypercube dimension);
    ``degree`` is the random-regular degree or tree branching; ``depth``
    is the tree depth; ``seed`` only affects ``random_regular``.
    ``capacity`` ``None`` means the generator's default.
    """

    family: str = "torus"
    rows: int = 8
    cols: int = 8
    size: int = 0
    degree: int = 0
    depth: int = 0
    capacity: "float | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise ValueError(
                f"unknown topology family {self.family!r}; "
                f"known: {', '.join(TOPOLOGY_FAMILIES)}"
            )
        if self.family in _GRID_FAMILIES:
            if self.rows < 1 or self.cols < 1:
                raise ValueError(
                    f"{self.family} needs rows >= 1 and cols >= 1, "
                    f"got {self.rows}x{self.cols}"
                )
        elif self.size < 1:
            raise ValueError(
                f"{self.family} needs size >= 1, got {self.size}"
            )
        if self.family == "random_regular":
            check_regular(self.size, self.degree)
        if self.capacity is not None:
            check_positive(self.capacity, "capacity")

    def build(self) -> Topology:
        """Instantiate the configured topology."""
        family = self.family
        capacity = {} if self.capacity is None else {"capacity": self.capacity}
        if family == "torus":
            return torus(self.rows, self.cols, **capacity)
        if family == "mesh":
            return mesh(self.rows, self.cols, **capacity)
        if family == "ring":
            return ring(self.size, **capacity)
        if family == "line":
            return line(self.size, **capacity)
        if family == "star":
            return star(self.size, **capacity)
        if family == "hypercube":
            return hypercube(self.size, **capacity)
        if family == "complete":
            return complete_graph(self.size, **capacity)
        if family == "tree":
            return tree(self.degree, self.depth, **capacity)
        if family == "random_regular":
            return random_regular(self.size, self.degree, **capacity,
                                  seed=self.seed)
        raise AssertionError(f"unhandled family {family!r}")

    @property
    def cache_key(self) -> tuple:
        """Hashable identity for compiled-topology reuse across cells."""
        return dataclasses.astuple(self)

    @property
    def label(self) -> str:
        if self.family in _GRID_FAMILIES:
            return f"{self.rows}x{self.cols}-{self.family}"
        if self.family == "tree":
            return f"tree-b{self.degree}-d{self.depth}"
        if self.family == "random_regular":
            return f"rr{self.size}-d{self.degree}"
        return f"{self.family}{self.size}"

    def to_dict(self) -> dict:
        return trimmed_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "TopologySpec":
        return from_trimmed_dict(TopologySpec, data, "topology spec")
