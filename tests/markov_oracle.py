"""Reference oracle for :mod:`repro.analysis.markov`: the numpy
uniformisation the list arithmetic replaced, as it stood.

``transition_matrix`` is the same algorithm on ``numpy`` arrays (a
``@`` product that BLAS may fold in its own order), so
``tests/test_markov_oracle.py`` holds the product to it bit for bit
where the paper's model comparison reads it and to a stated ulp bound
elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.markov import _SERIES_TERMS


def generator(primary_rate, backup_rate, shared_rate, repair_rate):
    """The Fig. 3(a) generator as a 4x4 array."""
    lam1, lam2, lam3, mu = primary_rate, backup_rate, shared_rate, repair_rate
    q = np.zeros((4, 4))
    q[0, 1] = lam1 - lam3
    q[0, 2] = lam2 - lam3
    q[0, 3] = lam3
    q[1, 0] = mu
    q[1, 3] = lam2
    q[2, 0] = mu
    q[2, 3] = lam1
    for state in range(4):
        q[state, state] = -q[state].sum()
    return q


def transition_matrix(generator: np.ndarray, t: float) -> np.ndarray:
    """``exp(Q t)`` by uniformisation with scaling and squaring."""
    size = len(generator)
    rate = -generator.diagonal().min()
    rate_mantissa, rate_exponent = math.frexp(rate)
    t_mantissa, t_exponent = math.frexp(t)
    squarings = max(0, rate_exponent + t_exponent)
    x = math.ldexp(
        rate_mantissa * t_mantissa, rate_exponent + t_exponent - squarings
    )
    step = np.eye(size) + generator / rate
    total = term = np.eye(size)
    for k in range(1, _SERIES_TERMS + 1):
        term = term @ step * (x / k)
        total = total + term
    total /= total.sum(axis=1, keepdims=True)
    for _ in range(squarings):
        total = total @ total
        total /= total.sum(axis=1, keepdims=True)
    return total


def reliability(primary_rate, backup_rate, shared_rate, repair_rate, t):
    """``R(t)`` of the numpy model."""
    q = generator(primary_rate, backup_rate, shared_rate, repair_rate)
    return float(1.0 - transition_matrix(q, t)[0][3])
