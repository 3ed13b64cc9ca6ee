"""Invariants computed exactly from Seifert matrices.

The Alexander polynomial P(t) = det(M - t M^T) comes from floor(n/2) + 1
Bareiss determinants by the Cayley substitution t = (1 + s)/(1 - s) (see
`alexander`), and is returned as its canonical representative up to units.
The signature of a symmetric S comes from one symmetric Bareiss pass, by
Sylvester's law of inertia and Jacobi's rule (see `signature`), and the
determinant is one Bareiss determinant: O(n^3) work each, against the
O(n^4) of the determinants of P.  Each takes a time budget, which the
kernel `matrices._bareiss_pivots` reads between its pivots.  No floating
point.  Each signature and Alexander polynomial logs one INFO record on
the "knotgenus.seifert" logger with the matrix size and the time.

A genus-1 reduction certificate of M is a pair of homology classes (a, b)
with intersection a(M - M^T)b = +-1 whose restricted 2x2 Seifert form has
trivial Alexander polynomial; it shows the topological slice genus of the
knot is at most 1.  `verify_certificate` is its one check, numpy-free.
"""

from __future__ import annotations

import logging
import operator
import time
from dataclasses import dataclass

from .matrices import (
    IntMatrix,
    _bareiss_pivots,
    as_matrix,
    as_vector,
    det,
    is_symmetric,
    mat_vec,
    search_deadline,
    symmetrize,
)

log = logging.getLogger(__name__)


class LaurentPolynomial:
    """Integer Laurent polynomial in t, an immutable {exponent: coeff} map.

    Exponents and coefficients convert by the rule of `matrices.as_vector`,
    so a float raises TypeError.  Zero coefficients are never stored; the
    zero polynomial is the empty map.
    It prints as sorted "exponent:coefficient" pairs, e.g. "-1:1 0:-1 1:1"
    for t - 1 + t^-1, and as "0:0" when zero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict):
        pairs = zip(as_vector(coeffs), as_vector(coeffs.values()))
        self._coeffs = {e: c for e, c in pairs if c}

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


def _alexander_coefficients(mat: IntMatrix, deadline: float | None) -> list[int]:
    """Ascending integer coefficients of P(t) = det(M - t M^T), n + 1 of
    them, from floor(n/2) + 1 determinants (the derivation is in
    `alexander`).  Raises SearchBudgetExceeded when the deadline is past
    between two pivots of one of them."""
    n = len(mat)
    h, odd = divmod(n, 2)
    # D(s) = det(A - s B), A = M - M^T, B = M + M^T, is s^odd E(s^2):
    # sample E at the nodes s^2 for s = 0..h (n even) or 1..h + 1 (n odd)
    rows = [
        ([x - y for x, y in zip(row, col)], [x + y for x, y in zip(row, col)])
        for row, col in zip(mat, zip(*mat))
    ]
    nodes, values = [], []
    for s in range(odd, h + 1 + odd):
        d = det([[a - s * b for a, b in zip(ra, rb)] for ra, rb in rows], deadline)
        nodes.append(s * s)
        values.append(d // s if odd else d)
    # Newton divided differences of E, each an exact integer division
    for k in range(1, h + 1):
        for i in range(h, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) // (nodes[i] - nodes[i - k])
    # Horner on c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)), ascending powers
    e = [values[h]]
    for k in range(h - 1, -1, -1):
        e = [0] + e
        for j in range(len(e) - 1):
            e[j] -= nodes[k] * e[j + 1]
        e[0] += values[k]
    # D_k, the coefficient of s^k, is e_j at k = 2 j + odd.  Horner for
    # 2^n P(t) = sum_k D_k (t - 1)^k (t + 1)^(n - k): q = D_n, then
    # q = q (t - 1) + D_k (t + 1)^(n - k) for k = n - 1..0
    dk = [0] * (n + 1)
    dk[odd::2] = e
    q = [dk[n]]
    plus = [1]
    for k in range(n - 1, -1, -1):
        q = [b - a for a, b in zip(q + [0], [0] + q)]
        plus = [a + b for a, b in zip(plus + [0], [0] + plus)]
        q = [a + dk[k] * b for a, b in zip(q, plus)]
    # P has integer coefficients, so the shift divides by 2^n exactly
    return [c >> n for c in q]


def signature(mat, cap_seconds: float | None = None) -> int:
    """Signature of a symmetric integer matrix: #positive - #negative
    eigenvalues, with zero eigenvalues contributing 0.

    The symmetric Bareiss pass (the "symmetric" mode of
    `matrices._bareiss_pivots`) turns S into an integrally congruent
    matrix whose leading principal minors d_1..d_r are nonzero and whose
    remaining block is zero.  By Sylvester's law of inertia the two have
    one signature, and that matrix is congruent over Q to
    diag(d_1/d_0, ..., d_r/d_(r-1), 0, ..., 0) with d_0 = 1.  So by
    Jacobi's rule each consecutive pair of 1, d_1, ..., d_r with the same
    sign counts +1 and each with different signs -1, and the n - r zero
    eigenvalues count 0.

    cap_seconds (> 0, or None for no budget) bounds the time: it is read
    after each pivot, and SearchBudgetExceeded is raised when it has run
    out.  A bad value raises ValueError.
    """
    deadline = search_deadline(cap_seconds)
    mat = as_matrix(mat)
    if not is_symmetric(mat):
        raise ValueError("signature requires a symmetric matrix")
    start = time.perf_counter()
    sigma = 0
    prev = 1
    for pivot in _bareiss_pivots(mat, "symmetric", deadline):
        sigma += 1 if (pivot > 0) == (prev > 0) else -1
        prev = pivot
    log.info("signature: size %d, %.3f s", len(mat), time.perf_counter() - start)
    return sigma


def knot_determinant(mat, cap_seconds: float | None = None) -> int:
    """|det(M + M^T)| of a Seifert matrix M, from one Bareiss pass with row
    swaps.  cap_seconds bounds it as it bounds `signature`."""
    deadline = search_deadline(cap_seconds)
    return abs(det(symmetrize(as_matrix(mat)), deadline))


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

    P(t) = det(M - t M^T) has degree <= n.  With A = M - M^T and
    B = M + M^T, D(s) = det(A - s B) = det((1 - s) M - (1 + s) M^T)
    = (1 - s)^n P((1 + s)/(1 - s)).  The transpose of A - s B is
    -(A + s B), so D(-s) = (-1)^n D(s): D is even or odd with n, and
    D(s) = s^(n mod 2) E(s^2) with E of degree <= h = floor(n/2).  So
    h + 1 determinants give E: D at s = 0..h (n even), or D(s) / s at
    s = 1..h + 1 (n odd), exact since E has integer coefficients.  E is
    interpolated in Newton form at the integer nodes s^2; each divided
    difference of an integer polynomial at integer nodes is a complete
    homogeneous symmetric sum of the nodes, an integer, so each division is
    exact.  Inverting the substitution, 2^n P(t) = sum_k D_k (t - 1)^k
    (t + 1)^(n - k) with D_k the coefficients of D, summed by Horner in
    (t - 1)/(t + 1), and the division by 2^n is exact because P has integer
    coefficients.  D vanishes identically exactly when P does.

    cap_seconds (> 0, or None for no budget) bounds the time: it is read
    after each pivot of the floor(n/2) + 1 determinants, and
    SearchBudgetExceeded is raised when it has run out.  A bad value raises
    ValueError.
    """
    deadline = search_deadline(cap_seconds)
    mat = as_matrix(mat)
    start = time.perf_counter()
    n = len(mat)
    poly = _alexander_coefficients(mat, deadline)
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


@dataclass(frozen=True)
class CurveCertificate:
    a: tuple[int, ...]
    b: tuple[int, ...]
    restricted_form: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", as_vector(self.b))
        object.__setattr__(self, "restricted_form", as_matrix(self.restricted_form))


def restricted_form(mat, a, b) -> IntMatrix:
    """Seifert form restricted to span(a, b): [[aMa, aMb], [bMa, bMb]], from
    Ma and Mb.  The entries of mat, a and b are exact ints (TypeError
    otherwise, by the rule of `matrices.as_vector`), and a and b have the
    size of mat (ValueError otherwise)."""
    mat, a, b = as_matrix(mat), as_vector(a), as_vector(b)
    if len(a) != len(mat) or len(b) != len(mat):
        raise ValueError("certificate vectors must have the size of the matrix")
    ma, mb = mat_vec(mat, a), mat_vec(mat, b)
    return (
        (sum(map(operator.mul, a, ma)), sum(map(operator.mul, a, mb))),
        (sum(map(operator.mul, b, ma)), sum(map(operator.mul, b, mb))),
    )


def verify_certificate(mat, cert: CurveCertificate) -> bool:
    """Whether cert is a genus-1 certificate of the Seifert matrix: a and b
    have its size, the restricted form of (a, b) is the stated one, and it
    certifies.

    The form decides it: the intersection a(M - M^T)b is
    form[0][1] - form[1][0], and once it is +-1 the pair is not
    proportional (proportional classes intersect in 0) and the form meets
    both preconditions of alexander_trivial_2x2.
    """
    mat = as_matrix(mat)
    if len(cert.a) != len(mat) or len(cert.b) != len(mat):
        return False
    form = restricted_form(mat, cert.a, cert.b)
    if form != cert.restricted_form:
        return False
    return abs(form[0][1] - form[1][0]) == 1 and alexander_trivial_2x2(form)
