"""Continuous-time Markov reliability models (Section 3.1, Fig. 3).

A D-connection with one backup is modelled with four states:

* 0 — both channels healthy (initial state),
* 1 — primary failed, backup carrying traffic, repair under way,
* 2 — backup failed, primary carrying traffic, repair under way,
* 3 — service lost (absorbing).

Transition rates: the shared part of the two routes fails at λ₃ and kills
both channels at once (0 → 3); the primary-only part fails at λ₁ − λ₃
(0 → 1), the backup-only part at λ₂ − λ₃ (0 → 2); from a degraded state
the surviving channel's failure absorbs (rates λ₂ and λ₁), and repair at
rate μ restores state 0.  ``R(t) = 1 − P(state 3 at t)``; the paper
evaluates it "with the [TRI82] technique", here ``exp(Qt)`` is computed
by uniformisation with scaling and squaring (:func:`_transition_matrix`),
in float arithmetic over 4x4 lists of rows.
"""

from __future__ import annotations

import math
from operator import mul

from repro.util.validation import (
    check_non_negative_finite,
    check_positive_finite,
)

#: Terms of the uniformised series.  Its argument is below 1, so the
#: first omitted term is under 1/20! ≈ 4e-19: less than half an ulp of 1.
_SERIES_TERMS = 19


def _fold(values) -> float:
    """The left-to-right float sum.  Not ``sum``: from Python 3.12 it
    compensates rounding, so its last bit would depend on the
    interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _identity(size: int) -> list:
    return [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]


def _product(a: list, b: list) -> list:
    """The matrix product ``a @ b``, each entry folded over the inner
    index."""
    columns = list(zip(*b))
    return [[_fold(map(mul, row, column)) for column in columns] for row in a]


def _normalised(matrix: list) -> list:
    """Each row divided by its sum."""
    rows = []
    for row in matrix:
        total = _fold(row)
        rows.append([value / total for value in row])
    return rows


def _transition_matrix(generator: list, t: float) -> list:
    """``exp(Q t)`` for a CTMC generator ``Q`` and a finite ``t >= 0``.

    With Λ the largest exit rate, ``P = I + Q/Λ`` is a stochastic matrix
    and ``exp(Q δ) = e^{−Λδ} Σ_k (Λδ)^k / k! · P^k``.  ``δ = t / 2^s``
    is chosen so that ``Λδ < 1``, the series is summed, and the result is
    squared ``s`` times.  Every operand is non-negative, so nothing
    cancels.  Each row is rescaled to sum to one after the series (in
    place of the ``e^{−Λδ}`` factor) and after every squaring (so that
    rounding does not compound as ``2^s``): every entry lies in
    ``[0, 1]`` whatever ``t`` is.  ``Λ t`` is split by ``frexp`` because
    the product itself can overflow.
    """
    size = len(generator)
    rate = -min(generator[i][i] for i in range(size))
    rate_mantissa, rate_exponent = math.frexp(rate)
    t_mantissa, t_exponent = math.frexp(t)
    squarings = max(0, rate_exponent + t_exponent)
    x = math.ldexp(
        rate_mantissa * t_mantissa, rate_exponent + t_exponent - squarings
    )
    step = [
        [unit + value / rate for unit, value in zip(units, row)]
        for units, row in zip(_identity(size), generator)
    ]
    total = term = _identity(size)
    for k in range(1, _SERIES_TERMS + 1):
        scale = x / k
        term = [[value * scale for value in row] for row in _product(term, step)]
        total = [
            [a + b for a, b in zip(total_row, term_row)]
            for total_row, term_row in zip(total, term)
        ]
    total = _normalised(total)
    for _ in range(squarings):
        total = _normalised(_product(total, total))
    return total


class DConnectionMarkovModel:
    """The Fig. 3(a) model for a single-backup D-connection."""

    def __init__(
        self,
        primary_rate: float,
        backup_rate: float,
        shared_rate: float = 0.0,
        repair_rate: float = 0.0,
    ) -> None:
        check_positive_finite(primary_rate, "primary_rate")
        check_positive_finite(backup_rate, "backup_rate")
        check_non_negative_finite(shared_rate, "shared_rate")
        check_non_negative_finite(repair_rate, "repair_rate")
        if shared_rate > min(primary_rate, backup_rate):
            raise ValueError(
                "shared_rate cannot exceed either channel's total rate "
                f"({shared_rate} > min({primary_rate}, {backup_rate}))"
            )
        self.primary_rate = primary_rate
        self.backup_rate = backup_rate
        self.shared_rate = shared_rate
        self.repair_rate = repair_rate
        self._generator = self._build_generator()

    def _build_generator(self) -> "list[list[float]]":
        lam1, lam2 = self.primary_rate, self.backup_rate
        lam3, mu = self.shared_rate, self.repair_rate
        q = [[0.0] * 4 for _ in range(4)]
        q[0][1] = lam1 - lam3
        q[0][2] = lam2 - lam3
        q[0][3] = lam3
        q[1][0] = mu
        q[1][3] = lam2
        q[2][0] = mu
        q[2][3] = lam1
        for state, row in enumerate(q):
            row[state] = -_fold(row)
        return q

    @property
    def generator(self) -> "list[list[float]]":
        """The 4x4 CTMC generator matrix Q (rows sum to zero), as rows."""
        return [row[:] for row in self._generator]

    def state_probabilities(self, t: float) -> "list[float]":
        """Distribution over states at time ``t``, starting in state 0."""
        check_non_negative_finite(t, "t")
        return _transition_matrix(self._generator, t)[0]

    def reliability(self, t: float) -> float:
        """``R(t) = 1 − P(absorbed by t)`` (footnote 3 of the paper)."""
        return 1.0 - self.state_probabilities(t)[3]
