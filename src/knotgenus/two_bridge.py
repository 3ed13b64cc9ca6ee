"""The K(m,n) family of 2-bridge knots and its associated exact data.

For m, n >= 0 the knot K(m,n) is the 2-bridge knot of the all-positive
continued fraction [2m+3, 1, 2n+4, 1, 1, 2], with defining fraction
(20mn + 56m + 40n + 107) / (10n + 28).  This module builds the continued
fraction, the defining fraction, the 4x4 Seifert matrix of its genus-2
Seifert surface, the positive-definite Goeritz lattice Q(m,n) of rank
2m+2n+8, and the linear plumbing weight sequence realizing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import GramLattice, IntMatrix, as_matrix, as_vector


@dataclass(frozen=True)
class KnotParams:
    """The parameters m, n >= 0 of K(m,n), exact ints by the rule of
    `matrices.as_vector` (a bool converts, a float raises TypeError)."""

    m: int
    n: int

    def __post_init__(self):
        m, n = as_vector((self.m, self.n))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.n < 0:
            raise ValueError("n must be >= 0")


def continued_fraction(k: KnotParams) -> list[int]:
    """All-positive continued fraction expansion defining K(m,n)."""
    return [2 * k.m + 3, 1, 2 * k.n + 4, 1, 1, 2]


def knot_fraction(k: KnotParams) -> Fraction:
    """Closed form (20mn + 56m + 40n + 107) / (10n + 28), reduced."""
    m, n = k.m, k.n
    return Fraction(20 * m * n + 56 * m + 40 * n + 107, 10 * n + 28)


def seifert_matrix(k: KnotParams) -> IntMatrix:
    """Seifert matrix of the genus-2 surface of K(m,n) in the standard basis."""
    m, n = k.m, k.n
    return as_matrix(
        [
            [-m - 2, 1, 0, 0],
            [0, -n - 3, 1, 0],
            [0, 0, -1, 0],
            [0, 0, -1, 1],
        ]
    )


def qmn_gram(k: KnotParams) -> GramLattice:
    """Goeritz lattice Q(m,n): tridiagonal of rank 2m+2n+8.

    Diagonal 3 at positions 2m+3, 2m+2n+7 and 2m+2n+8 (1-based), 2
    elsewhere; -1 on the first off-diagonals.
    """
    return path_gram(plumbing_weights(k))


def plumbing_weights(k: KnotParams) -> tuple[int, ...]:
    """Vertex weights of the linear plumbing realizing Q(m,n).

    Chain of 2m+2 vertices of weight 2, one of weight 3, 2n+3 of weight 2,
    then two of weight 3.
    """
    m, n = k.m, k.n
    return tuple([2] * (2 * m + 2) + [3] + [2] * (2 * n + 3) + [3, 3])


def path_gram(weights) -> GramLattice:
    """Gram lattice of a path graph with the given vertex weights (exact
    ints, TypeError otherwise): weight i on the diagonal and -1 between
    neighbours, built as its sparse rows in O(rank)."""
    weights = as_vector(weights)
    last = len(weights) - 1
    return GramLattice._of_rows(
        tuple(
            ((i - 1, -1),) * (i > 0) + ((i, w),) + ((i + 1, -1),) * (i < last)
            for i, w in enumerate(weights)
        )
    )


def crossing_count(k: KnotParams) -> int:
    """Crossing number of the standard alternating diagram: sum of the CF
    coefficients, 2m+2n+12."""
    return sum(continued_fraction(k))
