import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from knotgenus.exact_arith import LaurentPolynomial, equal_up_to_units, laurent_normalize
from knotgenus.matrices import symmetrize
from knotgenus.seifert import (
    alexander,
    alexander_trivial_2x2,
    knot_determinant,
    signature,
)
from knotgenus.two_bridge import KnotParams, knot_fraction, seifert_matrix

L = LaurentPolynomial


def sympy_signature(mat):
    """Independent oracle: count real eigenvalue signs from the exact
    characteristic polynomial via Sturm-based root counting.

    Sturm sequences count distinct roots, so each square-free factor is
    counted and weighted by its multiplicity.
    """
    lam = sympy.symbols("lam")
    p = sympy.Poly(sympy.Matrix(mat).charpoly(lam), lam)
    zeros = 0
    coeffs = p.all_coeffs()
    while coeffs and coeffs[-1] == 0:
        zeros += 1
        coeffs.pop()
    q = sympy.Poly(coeffs, lam)
    if q.eval(0) == 0:
        raise AssertionError("zero roots not fully stripped")
    sig = 0
    for factor, multiplicity in q.sqf_list()[1]:
        pos = factor.count_roots(0, sympy.oo)
        neg = factor.degree() - pos
        sig += multiplicity * (pos - neg)
    return sig


def test_signature_identity():
    assert signature([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_signature_hyperbolic_plane():
    assert signature([[0, 1], [1, 0]]) == 0


def test_signature_zero_block():
    assert signature([[0, 0], [0, 0]]) == 0
    assert signature([[0, 0, 0], [0, -1, 0], [0, 0, 5]]) == 0


def test_signature_requires_symmetric():
    with pytest.raises(ValueError):
        signature([[0, 1], [0, 0]])


def test_family_signature_is_minus_two():
    for m in range(6):
        for n in range(6):
            assert signature(symmetrize(seifert_matrix(KnotParams(m, n)))) == -2


def _random_symmetric(rng, size, entry):
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            mat[i][j] = mat[j][i] = entry()
    return mat


def test_signature_against_sympy_oracle():
    rng = random.Random(23)
    for _ in range(200):
        mat = _random_symmetric(rng, rng.randint(1, 8), lambda: rng.randint(-5, 5))
        assert signature(mat) == sympy_signature(mat)


def _special_symmetric_cases(rng):
    for size in (1, 2, 5, 8):
        yield [[0] * size for _ in range(size)]
    for _ in range(30):
        # singular: row and column `size - 1` copy row and column i
        size = rng.randint(2, 8)
        base = _random_symmetric(rng, size - 1, lambda: rng.randint(-4, 4))
        i = rng.randrange(size - 1)
        src = list(range(size - 1)) + [i]
        yield [[base[src[r]][src[c]] for c in range(size)] for r in range(size)]
    for _ in range(30):
        # zero diagonal: hyperbolic blocks [[0, h], [h, 0]] on the pairs, and
        # sparse entries elsewhere; odd sizes leave a last zero diagonal entry
        size = rng.randint(2, 8)
        mat = _random_symmetric(rng, size, lambda: rng.choice((0, 0, 0, -1, 1, 2)))
        for i in range(size):
            mat[i][i] = 0
        for i in range(0, size - 1, 2):
            mat[i][i + 1] = mat[i + 1][i] = rng.choice((-3, -1, 1, 2))
        yield mat
    for _ in range(30):
        # entries beyond int64, near +-2^70
        size = rng.randint(1, 6)
        yield _random_symmetric(
            rng, size, lambda: rng.choice((-1, 1)) * (2**70 + rng.randint(-(2**20), 2**20))
        )


def test_signature_against_sympy_oracle_special_shapes():
    assert sympy_signature([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) == 1  # repeated eigenvalue
    rng = random.Random(29)
    for mat in _special_symmetric_cases(rng):
        assert signature(mat) == sympy_signature(mat)


def test_knot_determinant_examples():
    assert knot_determinant(seifert_matrix(KnotParams(0, 0))) == 107
    assert knot_determinant(seifert_matrix(KnotParams(1, 0))) == 163
    assert knot_determinant([[0, 1], [0, 0]]) == 1


def test_knot_determinant_matches_fraction_numerator():
    for m in range(6):
        for n in range(6):
            k = KnotParams(m, n)
            assert knot_determinant(seifert_matrix(k)) == knot_fraction(k).numerator


def test_alexander_trivial_family_form():
    for n in range(6):
        assert alexander([[0, 1], [0, -n - 3]]) == L.one()


def test_alexander_small_example():
    assert alexander([[-1, 1], [0, -1]]) == L({1: 1, 0: -1, -1: 1})


def test_alexander_of_k00_frozen():
    # expected value computed with an independent symbolic determinant
    assert alexander(seifert_matrix(KnotParams(0, 0))) == L(
        {2: 6, 1: -27, 0: 41, -1: -27, -2: 6}
    )


def test_alexander_family_shape():
    for m in range(4):
        for n in range(4):
            p = alexander(seifert_matrix(KnotParams(m, n)))
            assert p.max_exp() - p.min_exp() == 4
            assert p.is_symmetric()
            assert abs(p.evaluate(1)) == 1


def test_alexander_against_sympy_oracle():
    t = sympy.symbols("t")
    rng = random.Random(31)
    for _ in range(40):
        size = rng.randint(1, 8)
        mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        sm = sympy.Matrix(mat)
        # sympy's polynomial-domain determinant: exact, and fast enough at 8x8
        dm = DomainMatrix.from_Matrix(sm - t * sm.T)
        d = dm.domain.to_sympy(dm.det())
        coeffs = {}
        for (exp,), coeff in sympy.Poly(d, t).all_terms():
            coeffs[exp] = int(coeff)
        expected = L(coeffs)
        got = alexander(mat)
        if expected.is_zero():
            assert got.is_zero()
        else:
            assert equal_up_to_units(got, expected)


def test_alexander_multiplicative_on_block_sum():
    # the block sum is a Seifert matrix of the connected sum of four K(m,n)
    params = [KnotParams(0, 0), KnotParams(1, 2), KnotParams(3, 0), KnotParams(2, 5)]
    blocks = [seifert_matrix(k) for k in params]
    size = 4 * len(blocks)
    total = [[0] * size for _ in range(size)]
    for b, block in enumerate(blocks):
        for i in range(4):
            for j in range(4):
                total[4 * b + i][4 * b + j] = block[i][j]
    product = L.one()
    for block in blocks:
        product = product * alexander(block)
    got = alexander(total)
    assert got == laurent_normalize(product)
    assert got.max_exp() - got.min_exp() == 16


def _random_unimodular(rng, size):
    m = sympy.eye(size)
    for _ in range(6):
        i, j = rng.sample(range(size), 2)
        m = m.elementary_row_op("n->n+km", row=i, k=rng.randint(-1, 1), row2=j)
    assert abs(m.det()) == 1
    return [[int(x) for x in row] for row in m.tolist()]


def test_alexander_invariant_under_unimodular_congruence():
    rng = random.Random(37)
    for _ in range(30):
        size = rng.randint(2, 4)
        mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        p = _random_unimodular(rng, size)
        ps = sympy.Matrix(p)
        conj = (ps.T * sympy.Matrix(mat) * ps).tolist()
        a1, a2 = alexander(mat), alexander(conj)
        if max(abs(int(x)) for row in p for x in row) > 3:
            continue
        if a1.is_zero() or a2.is_zero():
            assert a1.is_zero() == a2.is_zero()
        else:
            assert equal_up_to_units(a1, a2)


def test_alexander_at_minus_one_is_determinant():
    for m in range(6):
        for n in range(6):
            mat = seifert_matrix(KnotParams(m, n))
            assert abs(alexander(mat).evaluate(-1)) == knot_determinant(mat)


def test_alexander_trivial_2x2_examples():
    assert alexander_trivial_2x2([[0, 1], [0, -5]])
    assert alexander_trivial_2x2([[-1, 1], [0, 0]])
    assert not alexander_trivial_2x2([[-1, 1], [0, -1]])


def test_alexander_trivial_2x2_precondition():
    with pytest.raises(ValueError, match="not a genus-1 knot form"):
        alexander_trivial_2x2([[0, 2], [0, 1]])


def test_alexander_trivial_2x2_exhaustive_equivalence():
    one = L.one()
    span = range(-6, 7)
    for s11 in span:
        for s22 in span:
            for s12 in span:
                for s21 in (s12 - 1, s12 + 1):
                    if not (-6 <= s21 <= 6):
                        continue
                    form = [[s11, s12], [s21, s22]]
                    expected = equal_up_to_units(alexander(form), one)
                    assert alexander_trivial_2x2(form) == expected
