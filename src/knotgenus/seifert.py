"""Invariants computed exactly from Seifert matrices.

The Alexander polynomial det(M - t M^T) has degree <= n, so it is
interpolated exactly from the n + 1 Bareiss determinants `matrices.det`
gives at t = 0..n, and returned as its canonical representative up to
units; a time budget is read before each determinant.  The signature of a
symmetric S comes from one symmetric Bareiss pass, by Sylvester's law of
inertia and Jacobi's rule (see `signature`): O(n^3) work, against the
O(n^4) of the n + 1 determinants.  The determinant is one Bareiss
determinant.  No floating point.  Each signature and Alexander polynomial
logs one INFO record on the "knotgenus.seifert" logger with the matrix size
and the time.
"""

from __future__ import annotations

import logging
import time

from .lattice import check_deadline, search_deadline
from .matrices import IntMatrix, as_matrix, congruence_pivots, det, is_symmetric, symmetrize

log = logging.getLogger(__name__)


class LaurentPolynomial:
    """Integer Laurent polynomial in t, an immutable {exponent: coeff} map.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    It prints as sorted "exponent:coefficient" pairs, e.g. "-1:1 0:-1 1:1"
    for t - 1 + t^-1, and as "0:0" when zero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict):
        self._coeffs = {int(e): int(c) for e, c in coeffs.items() if c}

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __str__(self):
        if not self._coeffs:
            return "0:0"
        return " ".join(f"{e}:{self._coeffs[e]}" for e in sorted(self._coeffs))

    def __repr__(self):
        return f"LaurentPolynomial({str(self)!r})"


def _det_polynomial(a: IntMatrix, b: IntMatrix, deadline: float | None = None) -> list[int]:
    """Ascending integer coefficients of det(a + t b), n + 1 of them.
    Raises SearchBudgetExceeded when the deadline (see
    `lattice.search_deadline`) is past before one of the determinants."""
    n = len(a)
    # det(a + t b) has degree <= n: sample it at t = 0..n ...
    coeffs = []
    for t in range(n + 1):
        check_deadline(deadline)
        coeffs.append(det(tuple(tuple(a[i][j] + t * b[i][j] for j in range(n)) for i in range(n))))
    # ... and interpolate in Newton form.  On the nodes 0..n the divided
    # differences of an integer polynomial are integers, so each division
    # by k is exact.
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) // k
    # Horner on c_0 + (t - 0)(c_1 + (t - 1)(c_2 + ...)), ascending powers
    poly = [coeffs[n]]
    for k in range(n - 1, -1, -1):
        poly = [0] + poly
        for e in range(len(poly) - 1):
            poly[e] -= k * poly[e + 1]
        poly[0] += coeffs[k]
    return poly


def signature(mat) -> int:
    """Signature of a symmetric integer matrix: #positive - #negative
    eigenvalues, with zero eigenvalues contributing 0.

    The symmetric Bareiss pass (`matrices.congruence_pivots`) turns S into
    an integrally congruent matrix whose leading principal minors
    d_1..d_r are nonzero and whose remaining block is zero.  By Sylvester's
    law of inertia the two have one signature, and that matrix is
    congruent over Q to diag(d_1/d_0, ..., d_r/d_(r-1), 0, ..., 0) with
    d_0 = 1.  So by Jacobi's rule each consecutive pair of 1, d_1, ..., d_r
    with the same sign counts +1 and each with different signs -1, and the
    n - r zero eigenvalues count 0.
    """
    mat = as_matrix(mat)
    if not is_symmetric(mat):
        raise ValueError("signature requires a symmetric matrix")
    start = time.perf_counter()
    sigma = 0
    prev = 1
    for pivot in congruence_pivots(mat):
        sigma += 1 if (pivot > 0) == (prev > 0) else -1
        prev = pivot
    log.info("signature: size %d, %.3f s", len(mat), time.perf_counter() - start)
    return sigma


def knot_determinant(mat) -> int:
    """|det(M + M^T)| of a Seifert matrix M."""
    return abs(det(symmetrize(as_matrix(mat))))


def alexander(mat, cap_seconds: float | None = None) -> LaurentPolynomial:
    """Alexander polynomial det(M - t M^T), as its canonical representative
    up to the units +-t^k.

    With c the coefficients from the lowest to the highest nonzero power:
    if c is a palindrome of odd length, the representative is the one
    symmetric in t, 1/t (exponents -len(c)//2 .. len(c)//2), else the one
    with lowest exponent 0; either way its lowest coefficient is positive.
    A palindrome has c[0] == c[-1], so the symmetric one also has a
    positive top coefficient.  For the Seifert matrix of a knot the result
    is symmetric with Delta(1) = +-1.  Returns the zero polynomial if the
    determinant vanishes identically (never the case for knot Seifert
    matrices).

    cap_seconds (> 0, or None for no budget) bounds the time: it is read
    before each of the n + 1 determinants, and SearchBudgetExceeded is
    raised when it has run out.  A bad value raises ValueError.
    """
    deadline = search_deadline(cap_seconds)
    mat = as_matrix(mat)
    start = time.perf_counter()
    n = len(mat)
    poly = _det_polynomial(
        mat, tuple(tuple(-mat[j][i] for j in range(n)) for i in range(n)), deadline
    )
    log.info("alexander: size %d, %.3f s", n, time.perf_counter() - start)
    nonzero = [e for e, x in enumerate(poly) if x]
    if not nonzero:
        return LaurentPolynomial({})
    c = poly[nonzero[0] : nonzero[-1] + 1]
    shift = len(c) // 2 if len(c) % 2 and c == c[::-1] else 0
    sign = 1 if c[0] > 0 else -1
    return LaurentPolynomial({e - shift: sign * x for e, x in enumerate(c)})


def alexander_trivial_2x2(form) -> bool:
    """True iff a genus-1 knot Seifert form has trivial Alexander polynomial.

    For a 2x2 form S with |S01 - S10| = 1 one computes
    det(S - t S^T) = (1-t)^2 (S00 S11 - S01 S10) + t, so triviality is
    equivalent to S00*S11 = S01*S10.
    """
    form = as_matrix(form)
    if len(form) != 2:
        raise ValueError("not a genus-1 knot form")
    if abs(form[0][1] - form[1][0]) != 1:
        raise ValueError("not a genus-1 knot form")
    return form[0][0] * form[1][1] == form[0][1] * form[1][0]
