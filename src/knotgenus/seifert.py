"""Invariants computed exactly from Seifert matrices.

Signature via symmetric congruence diagonalization over the rationals,
determinant via the Bareiss kernel of `matrices.det`, Alexander polynomial
as det(M - t M^T) normalized up to units: that polynomial has degree <= n,
so it is interpolated exactly from n + 1 Bareiss determinants at t = 0..n.
No floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_arith import LaurentPolynomial, laurent_normalize
from .matrices import IntMatrix, as_matrix, det, is_symmetric, symmetrize


def signature(mat) -> int:
    """Signature of a symmetric integer matrix: #positive - #negative
    eigenvalues, with zero eigenvalues contributing 0.

    Computed by congruence diagonalization over exact rationals.
    """
    mat = as_matrix(mat)
    if not is_symmetric(mat):
        raise ValueError("signature requires a symmetric matrix")
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    sig = 0
    for k in range(n):
        if a[k][k] == 0:
            # try to swap in a nonzero diagonal entry
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    a[k], a[j] = a[j], a[k]
                    for row in a:
                        row[k], row[j] = row[j], row[k]
                    break
            else:
                # no nonzero pivot on the diagonal: add another row/column
                # to create one (a[k][k] becomes 2*a[k][j] != 0), or the
                # row is zero and contributes a zero eigenvalue
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        for c in range(n):
                            a[k][c] += a[j][c]
                        for r in range(n):
                            a[r][k] += a[r][j]
                        break
                else:
                    continue
        pivot = a[k][k]
        sig += 1 if pivot > 0 else -1
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
    return sig


def knot_determinant(mat) -> int:
    """|det(M + M^T)| of a Seifert matrix M."""
    return abs(det(symmetrize(as_matrix(mat))))


def alexander(mat) -> LaurentPolynomial:
    """Alexander polynomial det(M - t M^T), normalized up to units.

    For the Seifert matrix of a knot the result is symmetric in t, 1/t with
    Delta(1) = +-1.  Returns the zero polynomial if the determinant vanishes
    identically (never the case for knot Seifert matrices).
    """
    mat = as_matrix(mat)
    n = len(mat)
    # det(M - t M^T) has degree <= n: sample it at t = 0..n ...
    coeffs = [
        det(tuple(tuple(mat[i][j] - t * mat[j][i] for j in range(n)) for i in range(n)))
        for t in range(n + 1)
    ]
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
    d = LaurentPolynomial(dict(enumerate(poly)))
    if d.is_zero():
        return d
    return laurent_normalize(d)


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
