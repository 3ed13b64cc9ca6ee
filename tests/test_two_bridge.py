from fractions import Fraction

import pytest

from knotgenus.matrices import det
from knotgenus.two_bridge import (
    KnotParams,
    continued_fraction,
    crossing_count,
    knot_fraction,
    plumbing_weights,
    qmn_gram,
    seifert_matrix,
)


def cf_value(coeffs):
    """a0 + 1/(a1 + 1/(...)) of a nonempty continued fraction."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def euclid_cf(f):
    """The Euclidean expansion of f: all positive past a0, and its last
    coefficient >= 2 unless f is an integer."""
    p, q = f.numerator, f.denominator
    coeffs = []
    while q:
        coeffs.append(p // q)
        p, q = q, p % q
    return coeffs


def test_knot_fraction_closed_form():
    assert knot_fraction(KnotParams(0, 0)) == Fraction(107, 28)
    assert knot_fraction(KnotParams(1, 0)) == Fraction(163, 28)
    assert knot_fraction(KnotParams(0, 1)) == Fraction(147, 38)


def test_knot_fraction_matches_cf():
    for m in range(11):
        for n in range(11):
            k = KnotParams(m, n)
            assert cf_value(continued_fraction(k)) == knot_fraction(k)


def test_cf_round_trip():
    for m in range(11):
        for n in range(11):
            k = KnotParams(m, n)
            assert euclid_cf(knot_fraction(k)) == continued_fraction(k) == [
                2 * m + 3,
                1,
                2 * n + 4,
                1,
                1,
                2,
            ]


def test_seifert_matrix_examples():
    assert seifert_matrix(KnotParams(0, 0)) == (
        (-2, 1, 0, 0),
        (0, -3, 1, 0),
        (0, 0, -1, 0),
        (0, 0, -1, 1),
    )
    assert seifert_matrix(KnotParams(1, 2)) == (
        (-3, 1, 0, 0),
        (0, -5, 1, 0),
        (0, 0, -1, 0),
        (0, 0, -1, 1),
    )


def antisymmetrize(m):
    """m - m^T."""
    n = len(m)
    return tuple(tuple(m[i][j] - m[j][i] for j in range(n)) for i in range(n))


def test_seifert_antisymmetrization_unimodular():
    for m in range(6):
        for n in range(6):
            assert det(antisymmetrize(seifert_matrix(KnotParams(m, n)))) == 1


def test_qmn_gram_examples():
    g = qmn_gram(KnotParams(0, 0))
    assert g.rank == 8
    assert tuple(g.gram[i][i] for i in range(8)) == (2, 2, 3, 2, 2, 2, 3, 3)
    assert all(g.gram[i][i + 1] == -1 for i in range(7))
    g = qmn_gram(KnotParams(1, 0))
    assert g.rank == 10
    assert tuple(g.gram[i][i] for i in range(10)) == (2, 2, 2, 2, 3, 2, 2, 2, 3, 3)
    for m in range(5):
        for n in range(5):
            gram = qmn_gram(KnotParams(m, n)).gram
            r = 2 * m + 2 * n + 8
            threes = {2 * m + 3, 2 * m + 2 * n + 7, 2 * m + 2 * n + 8}
            assert len(gram) == r
            for i in range(r):
                for j in range(r):
                    if i == j:
                        expected = 3 if i + 1 in threes else 2
                    elif abs(i - j) == 1:
                        expected = -1
                    else:
                        expected = 0
                    assert gram[i][j] == expected


def test_qmn_gram_determinant_is_knot_determinant():
    assert det(qmn_gram(KnotParams(0, 0)).gram) == 107
    for m in range(6):
        for n in range(6):
            k = KnotParams(m, n)
            assert abs(det(qmn_gram(k).gram)) == knot_fraction(k).numerator


def test_qmn_gram_positive_definite():
    from knotgenus.matrices import leading_principal_minors

    for m in range(11):
        for n in range(11):
            g = qmn_gram(KnotParams(m, n))
            minors = leading_principal_minors(g.gram)
            assert len(minors) == g.rank and min(minors) > 0


def test_plumbing_weights():
    assert plumbing_weights(KnotParams(0, 0)) == (2, 2, 3, 2, 2, 2, 3, 3)
    assert plumbing_weights(KnotParams(1, 1)) == (2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 3, 3)


def test_crossing_count():
    assert crossing_count(KnotParams(0, 0)) == 12
    assert crossing_count(KnotParams(1, 0)) == 14
    assert crossing_count(KnotParams(0, 1)) == 14
    for m in range(8):
        for n in range(8):
            k = KnotParams(m, n)
            assert crossing_count(k) == 2 * m + 2 * n + 12
            assert qmn_gram(k).rank == crossing_count(k) - 4


def test_params_validation():
    with pytest.raises(ValueError):
        KnotParams(-1, 0)
    with pytest.raises(ValueError):
        KnotParams(0, -2)
