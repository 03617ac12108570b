"""Imbalance measures.

The paper's analysis is driven by the quadratic potential

    Phi(L) = sum_i (l_i - mean(L))^2,

the same function used by Cybenko '89, Ghosh–Muthukrishnan '94 and
Muthukrishnan–Ghosh–Schultz '98.  Two companions appear in the related
work and in the experiments:

- the *discrepancy* ``K = max_i l_i - min_i l_i`` (Rabani–Sinclair–Wanka),
- the l2 *error norm* ``||L - balanced||_2 = sqrt(Phi)`` (Cybenko).

Lemma 10 of the paper is the identity
``sum_i sum_j (l_i - l_j)^2 = 2 n Phi(L)``; :func:`pairwise_square_sum`
computes the left-hand side in O(n) (not O(n^2)) via the same algebraic
expansion, and the test suite checks the identity against the naive
quadratic evaluation.

All functions accept integer or float vectors and never mutate input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "average_load",
    "potential",
    "potential_drop",
    "discrepancy",
    "error_vector",
    "l2_error",
    "pairwise_square_sum",
    "pairwise_square_sum_naive",
    "square_sum",
]


def _as_vector(loads: np.ndarray) -> np.ndarray:
    arr = np.asarray(loads)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"loads must be a non-empty 1-D vector, got shape {arr.shape}")
    return arr


#: OpenBLAS ``ddot`` splits a vector longer than this across its threads,
#: so a longer dot product's bits depend on the thread count.
DOT_CHUNK = 10_000


def square_sum(v: np.ndarray) -> float:
    """``v @ v`` for a float64 vector, with bits independent of the BLAS
    thread count: one ``ddot`` per fixed chunk of :data:`DOT_CHUNK`,
    summed in order (a vector of at most one chunk is exactly ``v @ v``).
    """
    if v.size <= DOT_CHUNK:
        return float(v.dot(v))
    total = 0.0
    for i in range(0, v.size, DOT_CHUNK):
        chunk = v[i : i + DOT_CHUNK]
        total += float(chunk.dot(chunk))
    return total


def average_load(loads: np.ndarray) -> float:
    """Mean load ``l-bar`` — invariant under every balancing step."""
    return float(_as_vector(loads).mean(dtype=np.float64))


def potential(loads: np.ndarray) -> float:
    """Quadratic potential ``Phi(L) = sum_i (l_i - mean)^2``.

    Computed in float64 regardless of input dtype so that integer load
    vectors from the discrete algorithms don't overflow.
    """
    arr = _as_vector(loads).astype(np.float64, copy=False)
    return square_sum(arr - arr.mean())


def potential_drop(before: np.ndarray, after: np.ndarray) -> float:
    """``Phi(before) - Phi(after)`` — positive when the step made progress."""
    return potential(before) - potential(after)


def discrepancy(loads: np.ndarray) -> float:
    """Discrepancy ``max_i l_i - min_i l_i`` (RSW's convergence measure)."""
    arr = _as_vector(loads)
    return float(arr.max() - arr.min())


def error_vector(loads: np.ndarray) -> np.ndarray:
    """Cybenko's error ``e = L - (mean, ..., mean)`` as float64."""
    arr = _as_vector(loads).astype(np.float64, copy=False)
    return arr - arr.mean()


def l2_error(loads: np.ndarray) -> float:
    """``||e||_2 = sqrt(Phi)``."""
    return float(np.linalg.norm(error_vector(loads)))


def pairwise_square_sum(loads: np.ndarray) -> float:
    """``sum_i sum_j (l_i - l_j)^2`` in O(n), via Lemma 10's identity.

    Expanding the square gives
    ``sum_ij (l_i - l_j)^2 = 2 n sum_i l_i^2 - 2 (sum_i l_i)^2
    = 2 n Phi(L)``; we evaluate the final form.  Use
    :func:`pairwise_square_sum_naive` to check the identity directly.
    """
    arr = _as_vector(loads)
    return 2.0 * arr.size * potential(arr)


def pairwise_square_sum_naive(loads: np.ndarray) -> float:
    """The O(n^2) literal evaluation of ``sum_i sum_j (l_i - l_j)^2``.

    Exists as the oracle for Lemma 10's identity test; do not use in hot
    paths.
    """
    arr = _as_vector(loads).astype(np.float64, copy=False)
    diff = arr[:, None] - arr[None, :]
    return float(np.sum(diff * diff))
