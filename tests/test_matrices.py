import random

import pytest
import sympy

from knotgenus.matrices import GramLattice, det, leading_principal_minors


def _random_matrix(rng, size, kind):
    """Random integer matrix of one of four kinds: plain, zero top-left
    entry, zero leading 2x2 minor, or singular (a row repeated)."""
    mat = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    if kind == "zero_corner":
        mat[0][0] = 0
    elif kind == "zero_minor" and size >= 2:
        c = rng.randint(-2, 2)
        mat[1][0], mat[1][1] = c * mat[0][0], c * mat[0][1]
    elif kind == "singular" and size >= 2:
        i, j = rng.sample(range(size), 2)
        mat[i] = list(mat[j])
    return mat


def _symmetrized(mat, shift):
    n = len(mat)
    return [[mat[i][j] + mat[j][i] + (shift if i == j else 0) for j in range(n)] for i in range(n)]


def _sympy_first_nonpositive_minor(mat):
    sm = sympy.Matrix(mat)
    for k in range(1, len(mat) + 1):
        minor = int(sm[:k, :k].det())
        if minor <= 0:
            return k, minor
    return None


def test_det_small_examples():
    assert det(()) == 1
    assert det(((0, 1), (1, 0))) == -1  # needs a row swap
    assert det(((0, 2, 1), (0, 3, 4), (5, 6, 7))) == 25
    assert det(((0, 1, 2), (0, 3, 4), (0, 5, 6))) == 0  # zero first column
    assert det(((1, 2), (2, 4))) == 0


def test_det_against_sympy_oracle():
    rng = random.Random(41)
    kinds = ("plain", "zero_corner", "zero_minor", "singular")
    singular = 0
    for trial in range(240):
        size = rng.randint(1, 8)
        mat = _random_matrix(rng, size, kinds[trial % 4])
        expected = int(sympy.Matrix(mat).det())
        singular += expected == 0
        assert det(tuple(map(tuple, mat))) == expected
    assert singular >= 30


def test_first_nonpositive_minor_against_sympy_oracle():
    rng = random.Random(43)
    kinds = ("plain", "zero_corner", "zero_minor", "singular")
    outcomes = set()
    for trial in range(240):
        size = rng.randint(1, 8)
        mat = _random_matrix(rng, size, kinds[trial % 4])
        # a diagonal shift makes some of the symmetric matrices definite
        gram = _symmetrized(mat, rng.choice((0, 0, 10, 30)))
        if kinds[trial % 4] == "zero_corner":
            gram[0][0] = 0
        expected = _sympy_first_nonpositive_minor(gram)
        if expected is None:
            GramLattice(gram)
            outcomes.add("definite")
        else:
            k, minor = expected
            with pytest.raises(ValueError, match=f"leading principal minor {k} is {minor}$"):
                GramLattice(gram)
            outcomes.add("zero minor" if minor == 0 else "negative minor")
    assert outcomes == {"definite", "zero minor", "negative minor"}


def test_leading_principal_minors_stop_at_first_nonpositive():
    assert leading_principal_minors(((2, -1, 0), (-1, 2, -1), (0, -1, 2))) == [2, 3, 4]
    assert leading_principal_minors(((1, 2, 0), (2, 1, 0), (0, 0, 5))) == [1, -3]
    assert leading_principal_minors(((0, 1), (1, 1))) == [0]
