"""``repro.analysis.markov`` on lists against the numpy uniformisation it
replaced (``tests/markov_oracle.py``).

The two run the same algorithm; only the inner products may fold in a
different order (BLAS), so the model comparison that ``repro
reliability`` prints must agree bit for bit, and a seeded grid with
repair is held to a stated bound in units of ``ulp(1) = 2**-52``: the
largest gap measured on it was 1.25 ulp(1) on an entry of ``exp(Qt)``
and 1 ulp(1) on ``R(t)``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.markov import DConnectionMarkovModel, _transition_matrix
from repro.experiments.reliability import (
    BACKUP_COMPONENTS,
    LAMBDAS,
    PRIMARY_COMPONENTS,
)
from tests import markov_oracle

ULP_ONE = 2.0 ** -52
#: The bound the seeded grid is held to (measured: 1.25 and 1).
BOUND = 4 * ULP_ONE


@pytest.mark.parametrize("lam", LAMBDAS)
def test_model_comparison_is_bit_identical(lam):
    rates = (PRIMARY_COMPONENTS * lam, BACKUP_COMPONENTS * lam, 0.0, 0.0)
    model = DConnectionMarkovModel(*rates)
    assert model.generator == markov_oracle.generator(*rates).tolist()
    ours = model.reliability(1.0)
    assert ours.hex() == markov_oracle.reliability(*rates, 1.0).hex()


def test_seeded_grid_with_repair_is_within_the_bound():
    rng = random.Random(0)
    worst_entry = worst_reliability = 0.0
    for _ in range(500):
        lam1 = 10 ** rng.uniform(-6, 0)
        lam2 = 10 ** rng.uniform(-6, 0)
        shared = rng.choice((0.0, rng.random())) * min(lam1, lam2)
        repair = 10 ** rng.uniform(-3, 3)
        t = 10 ** rng.uniform(-3, 3)
        model = DConnectionMarkovModel(lam1, lam2, shared, repair)
        generator = markov_oracle.generator(lam1, lam2, shared, repair)
        assert model.generator == generator.tolist()
        ours = _transition_matrix(model.generator, t)
        reference = markov_oracle.transition_matrix(generator, t).tolist()
        worst_entry = max(worst_entry, *(
            abs(a - b)
            for row, reference_row in zip(ours, reference)
            for a, b in zip(row, reference_row)
        ))
        worst_reliability = max(worst_reliability, abs(
            model.reliability(t)
            - markov_oracle.reliability(lam1, lam2, shared, repair, t)
        ))
    assert worst_entry <= BOUND
    assert worst_reliability <= BOUND
