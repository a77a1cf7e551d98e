"""Simultaneous-activation probability and the multiplexability test.

Section 3.2 of the paper: two backups ``B_i`` and ``B_j`` may share spare
resources on a link iff the probability ``S(B_i, B_j)`` that both are
activated (near-)simultaneously — bounded by the probability that both
primaries ``M_i``, ``M_j`` fail in the same time unit — is below the
multiplexing threshold ``ν``.  With per-component failure probability λ:

    S = 1 - [ (1-λ)^c(M_i) + (1-λ)^c(M_j) - (1-λ)^(c(M_i)+c(M_j)-sc) ]

where ``c(M)`` counts the components of a primary path and ``sc`` counts
the components shared by both.  For small λ, ``S ≈ sc·λ``, so the paper's
``mux=α`` configurations (ν = α·λ) reduce to the integer test
``sc(M_i, M_j) < α``.  Both the exact and the integer form are
implemented; they agree for realistic λ (tested property).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.routing.paths import Path, shared_component_count
from repro.util.validation import check_probability

#: Default per-component failure probability per time unit.  The paper
#: quotes component MTBFs around 1000 hours against repair times of
#: seconds-to-minutes; any small λ gives the same integer behaviour.
DEFAULT_FAILURE_PROBABILITY = 1e-6


def simultaneous_activation_probability(
    components_i: int, components_j: int, shared: int, failure_probability: float
) -> float:
    """Exact ``S(B_i, B_j)`` from the paper's closed form.

    Parameters are the component counts ``c(M_i)``, ``c(M_j)`` of the two
    primaries, their shared count ``sc``, and the per-component failure
    probability λ.
    """
    if shared < 0 or shared > min(components_i, components_j):
        raise ValueError(
            f"shared count {shared} inconsistent with component counts "
            f"{components_i}, {components_j}"
        )
    check_probability(failure_probability, "failure_probability")
    survive = 1.0 - failure_probability
    return 1.0 - (
        survive**components_i
        + survive**components_j
        - survive ** (components_i + components_j - shared)
    )


class ComponentSpace:
    """Interner from components (nodes/links) to bit positions.

    The multiplexing engine's hot loop compares primary paths pairwise
    (``sc(M_i, M_j)``).  Interning every component to a bit and every
    primary to an integer mask turns each comparison into
    ``(mask_a & mask_b).bit_count()`` — one machine-word-ish operation
    instead of a hashed frozenset intersection.

    :meth:`intern` reads components (a path's nodes, then its links) and
    memoises nothing: the engine works out a primary's mask once per
    admission and hands that one int to every link the backup crosses,
    and the compiled plan interns each backup once.  A bit's position is
    the order its component was first seen; masks are only ``&``-ed and
    popcounted, which no relabelling of bits changes.
    """

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        self._bits: dict[object, int] = {}

    def __len__(self) -> int:
        return len(self._bits)

    def intern(self, components: Iterable) -> int:
        """The integer bitset of ``components``, interning new ones."""
        bits = self._bits
        mask = 0
        for component in components:
            bit = bits.get(component)
            if bit is None:
                bit = 1 << len(bits)
                bits[component] = bit
            mask |= bit
        return mask

    def path_mask(self, path: Path) -> int:
        """The integer bitset of every node and link of ``path``."""
        return self.intern(path.nodes) | self.intern(path.links)

    def known(self, components: Iterable) -> int:
        """The bits of those ``components`` some interned set contains.

        Interns nothing, so one-off query sets (a failure scenario's
        components) never pile up in the space.
        """
        bits = self._bits
        mask = 0
        for component in components:
            mask |= bits.get(component, 0)
        return mask


@dataclass(frozen=True)
class OverlapPolicy:
    """How primary-path overlap is measured and compared against ν.

    Attributes
    ----------
    failure_probability:
        λ, the per-component failure probability per time unit.
    count_endpoints:
        Whether endpoint nodes count as components of a primary path.  The
        paper's formula counts every node; excluding endpoints is a
        documented variant (endpoint failures make a connection
        unrecoverable regardless, so some deployments ignore them).
    exact:
        ``True`` compares the exact ``S`` against ``α·λ``;
        ``False`` (default) uses the integer shortcut ``sc < α``, which the
        paper itself derives and which makes results λ-independent.  The
        two agree except exactly at the boundary ``sc == α``, where
        ``S = sc·λ - D·λ² + O(λ³)`` with
        ``D = C(c_i,2) + C(c_j,2) - C(c_i+c_j-sc,2)`` and the sign of D
        (hence the exact verdict) depends on the primaries' lengths.
    """

    failure_probability: float = DEFAULT_FAILURE_PROBABILITY
    count_endpoints: bool = True
    exact: bool = False

    def __post_init__(self) -> None:
        check_probability(self.failure_probability, "failure_probability")

    # ------------------------------------------------------------------
    def component_count(self, primary_path: Path) -> int:
        """``c(M)`` under this policy."""
        return primary_path.component_count(self.count_endpoints)

    def shared_count(self, primary_i: Path, primary_j: Path) -> int:
        """``sc(M_i, M_j)`` under this policy."""
        return shared_component_count(primary_i, primary_j, self.count_endpoints)

    # ------------------------------------------------------------------
    def nu(self, mux_degree: int) -> float:
        """The threshold ν = α·λ for an integer mux degree α."""
        if mux_degree < 0:
            raise ValueError(f"mux_degree must be >= 0, got {mux_degree}")
        return mux_degree * self.failure_probability

    def multiplexable_counts(
        self, components_i: int, components_j: int, shared: int, mux_degree: int
    ) -> bool:
        """Multiplexability test from pre-computed counts.

        The hot path of the multiplexing engine: an entry's component
        count is its mask's popcount, so only ``shared`` varies per pair.
        """
        if mux_degree <= 0:
            return False
        if not self.exact:
            return shared < mux_degree
        s = simultaneous_activation_probability(
            components_i, components_j, shared, self.failure_probability
        )
        return s < self.nu(mux_degree)

    def multiplexable(self, primary_i: Path, primary_j: Path, mux_degree: int) -> bool:
        """Whether backups of these primaries may share spare resources
        under threshold ν = ``mux_degree``·λ."""
        return self.multiplexable_counts(
            self.component_count(primary_i),
            self.component_count(primary_j),
            self.shared_count(primary_i, primary_j),
            mux_degree,
        )
