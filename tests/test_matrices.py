import inspect
import logging
import random
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy

from knotgenus.curve_search import (
    CurveCertificate,
    default_search_bound,
    find_genus1_certificate,
    verify_certificate,
)
from knotgenus.lattice import Embedding, verify_embedding
from knotgenus.matrices import (
    GramLattice,
    SearchBudgetExceeded,
    _bareiss_pivots,
    as_matrix,
    as_vector,
    det,
    leading_principal_minors,
    search_deadline,
)
from knotgenus.pipeline import genus_bounds, reports_to_csv
from knotgenus.seifert import LaurentPolynomial, alexander, signature
from knotgenus.two_bridge import KnotParams, path_gram, seifert_matrix


def dense_bareiss_pivots(m, pivoting):
    """Reference: the dense Bareiss loop, which rescales every row below the
    pivot at every step, zero entries included, so every stored entry is a
    true one.  Its pivot choices are the kernel's."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n):
        if pivoting == "rows" and a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
        elif pivoting == "symmetric" and a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if i is None:
                pairs = [(i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0]
                if not pairs:
                    return
                i, j = pairs[0]
                for c in range(k, n):
                    a[i][c] += a[j][c]
                for r in range(k, n):
                    a[r][i] += a[r][j]
            a[k], a[i] = a[i], a[k]
            for row in a[k:]:
                row[k], row[i] = row[i], row[k]
        row_k = a[k]
        pivot = row_k[k]
        yield sign * pivot
        if pivot == 0:
            return
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot


def reference_minors(m):
    minors = []
    for minor in dense_bareiss_pivots(m, "none"):
        minors.append(minor)
        if minor <= 0:
            break
    return minors


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


# Row 3 is 0 in column 1 after step 0, so it stays exact at p_0 = 2.
# Row 2 is 0 in columns 0-2, so at step 2 a swap moves row 3 into the pivot
# position, where it is materialized with the scale p_1 / p_0 = 4 / 2.
SKIPPED_ROW_SWAPPED_IN = ((2, 2, 0, 0), (1, 3, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0))


def test_skipped_row_swapped_into_the_pivot_position():
    assert list(dense_bareiss_pivots(SKIPPED_ROW_SWAPPED_IN, "rows")) == [2, 4, -4, -4]
    assert list(_bareiss_pivots(SKIPPED_ROW_SWAPPED_IN, "rows")) == [2, 4, -4, -4]
    assert det(SKIPPED_ROW_SWAPPED_IN) == int(sympy.Matrix(SKIPPED_ROW_SWAPPED_IN).det()) == -4


def test_zero_skipping_kernel_matches_dense_reference():
    # sparse and dense, symmetric and not, with and without swaps
    rng = random.Random(47)
    swapped = 0
    for trial in range(4000):
        size = rng.randint(1, 8)
        density = (0.15, 0.4, 0.7, 1.0)[trial % 4]
        mat = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(size)]
            for _ in range(size)
        ]
        if trial % 8 >= 4:
            mat = [[mat[i][j] + mat[j][i] for j in range(size)] for i in range(size)]
        mat = tuple(map(tuple, mat))
        for pivoting in ("none", "rows"):
            expected = list(dense_bareiss_pivots(mat, pivoting))
            assert list(_bareiss_pivots(mat, pivoting)) == expected
        swapped += expected != list(dense_bareiss_pivots(mat, "none"))
        assert det(mat) == expected[-1]
        assert leading_principal_minors(mat) == reference_minors(mat)
    assert swapped >= 500


def _random_symmetric_kernel_case(rng, trial):
    """A symmetric matrix of size 1-8 of one of four kinds: dense, sparse,
    zero diagonal (the 2x2 step), or a sum of fewer than size terms
    +-v v^T (a zero block part-way)."""
    size = rng.randint(1, 8)
    kind = trial % 4
    mat = [[0] * size for _ in range(size)]
    if kind == 3:
        for _ in range(rng.randint(0, size - 1)):
            v = [rng.randint(-2, 2) for _ in range(size)]
            sign = rng.choice((-1, 1))
            for i in range(size):
                for j in range(size):
                    mat[i][j] += sign * v[i] * v[j]
        return tuple(map(tuple, mat))
    for i in range(size):
        for j in range(i + 1):
            if kind == 1:
                x = rng.choice((0, 0, 0, 0, 1, -1, 2))
            elif kind == 2:
                x = 0 if i == j else rng.choice((0, 0, 1, -1, 3))
            else:
                x = rng.randint(-4, 4)
            mat[i][j] = mat[j][i] = x
    return tuple(map(tuple, mat))


def test_symmetric_mode_matches_dense_reference():
    # the 2x2 step and the zero-block stop, on rows kept at their own scale
    rng = random.Random(59)
    two_by_two = zero_block = 0
    for trial in range(3000):
        mat = _random_symmetric_kernel_case(rng, trial)
        expected = list(dense_bareiss_pivots(mat, "symmetric"))
        assert list(_bareiss_pivots(mat, "symmetric")) == expected
        assert 0 not in expected
        two_by_two += any(mat[i][j] for i in range(len(mat)) for j in range(i)) and not any(
            mat[i][i] for i in range(len(mat))
        )
        zero_block += len(expected) < len(mat)
    assert two_by_two >= 300 and zero_block >= 500


def test_symmetric_mode_counts_the_rank_and_ends_at_the_determinant():
    # for nonsingular S the last pivot is det(P^T S P) = det(S), which
    # checks the congruence steps without counting signs
    rng = random.Random(61)
    nonsingular = 0
    for trial in range(400):
        mat = _random_symmetric_kernel_case(rng, trial)
        if trial % 5 == 4:
            mat = tuple(tuple(x * (2**70 + 1) for x in row) for row in mat)
        pivots = list(_bareiss_pivots(mat, "symmetric"))
        sm = sympy.Matrix(mat)
        assert len(pivots) == sm.rank()
        if len(pivots) == len(mat):
            assert pivots[-1] == det(mat) == int(sm.det())
            nonsingular += 1
    assert nonsingular >= 150


def test_symmetric_mode_on_hyperbolic_planes():
    # H(h) = [[0, h], [h, 0]] has a zero diagonal, so each plane needs the
    # 2x2 step, at depths 0, 2 and 4: d_(2m+1) = 2 h_(m+1) d_(2m), and
    # d_(2m+2) = -h_(m+1)^2 d_(2m)
    hs = (3, -1, 2**40)
    n = 2 * len(hs)
    mat = [[0] * n for _ in range(n)]
    for b, h in enumerate(hs):
        mat[2 * b][2 * b + 1] = mat[2 * b + 1][2 * b] = h
    mat = tuple(map(tuple, mat))
    d, expected = 1, []
    for h in hs:
        expected += [2 * h * d, -h * h * d]
        d *= -h * h
    assert list(_bareiss_pivots(mat, "symmetric")) == expected
    assert expected == list(dense_bareiss_pivots(mat, "symmetric"))
    assert expected[-1] == det(mat)
    assert list(_bareiss_pivots(((0, 0), (0, 0)), "symmetric")) == []
    assert list(_bareiss_pivots((), "symmetric")) == []


def _row_updates(mat):
    """Executions of the kernel's row-update line, the one that picks the
    divisor of a row about to be updated, while the leading minors of mat
    are computed."""
    lines, start = inspect.getsourcelines(_bareiss_pivots)
    [offset] = [i for i, line in enumerate(lines) if "d = at[i]" in line]
    target = start + offset
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == target:
            count += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is _bareiss_pivots.__code__ else None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        minors = leading_principal_minors(mat)
    finally:
        sys.settrace(old)
    assert minors == reference_minors(mat)
    return count


def test_row_updates_are_linear_in_the_rank_on_a_path_gram():
    # on a path Gram matrix only row k+1 is nonzero in pivot column k; the
    # dense loop updates all n(n-1)/2 rows below the pivots
    rng = random.Random(53)
    for n in (8, 16, 32, 64, 128):
        gram = path_gram([rng.choice((2, 3)) for _ in range(n)]).gram
        assert _row_updates(gram) == n - 1
    dense = tuple(tuple(7 * (i == j) + 1 for j in range(16)) for i in range(16))
    assert _row_updates(dense) == 16 * 15 // 2


def test_positive_definiteness_check_logs_one_info_record(caplog):
    with caplog.at_level(logging.INFO, logger="knotgenus.matrices"):
        path_gram([2, 3, 2])
        with pytest.raises(ValueError, match="not positive definite"):
            GramLattice(((1, 2), (2, 1)))
    records = [r for r in caplog.records if r.name == "knotgenus.matrices"]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    messages = [r.getMessage() for r in records]
    assert messages[0].startswith("positive-definiteness check: rank 3, positive definite, ")
    assert messages[1].startswith("positive-definiteness check: rank 2, not positive definite, ")
    assert all(m.endswith(" s") for m in messages)


def dominant_gram(rng, n):
    """A seeded n x n symmetric Gram matrix, positive definite by
    Gershgorin: off-diagonal entries in -3..3, diagonal 3n + 1."""
    a = [[3 * n + 1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i] = rng.randint(-3, 3)
    return tuple(map(tuple, a))


@pytest.mark.parametrize("pivoting", ["rows", "none", "symmetric"])
def test_kernel_reads_the_deadline_after_each_pivot(pivoting):
    # a spent deadline lets the first pivot out and stops the step after it
    gram = dominant_gram(random.Random(59), 8)
    pivots = _bareiss_pivots(gram, pivoting, search_deadline(1e-9))
    assert next(pivots) == gram[0][0]
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        next(pivots)
    far = search_deadline(60)
    assert list(_bareiss_pivots(gram, pivoting, far)) == list(_bareiss_pivots(gram, pivoting))


def test_positive_definiteness_check_time_budget():
    dense40 = dominant_gram(random.Random(61), 40)
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        GramLattice(dense40, cap_seconds=1e-9)
    # a bad budget is refused before the check: the Gram matrix here is
    # not positive definite, and the budget's error is the one raised
    for cap in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="time budget must be > 0"):
            GramLattice(((1, 2), (2, 1)), cap_seconds=cap)
    assert GramLattice(dense40, cap_seconds=60) == GramLattice(dense40)


def test_every_constructor_refuses_entries_that_are_not_integers():
    # int() would turn each of these into an integer input that passes:
    # GramLattice([[2]]), signature([[0]]), an embedding of [[1]] and the
    # certificate of K(0,0)
    for bad in (2.5, Fraction(5, 2), "2"):
        with pytest.raises(TypeError):
            as_vector([1, bad])
        with pytest.raises(TypeError):
            GramLattice([[bad]])
    with pytest.raises(TypeError):
        signature([[0.5]])
    with pytest.raises(TypeError):
        alexander([[0.5]])
    with pytest.raises(TypeError):
        verify_embedding(GramLattice([[1]]), Embedding([[1.5, 0.9]], 2))
    with pytest.raises(TypeError):
        Embedding([(True, 0), [0.0, 2]], 2)
    k = KnotParams(0, 0)
    mat = seifert_matrix(k)
    cert = find_genus1_certificate(mat, default_search_bound(k))
    assert cert.a == (0, 0, 1, 0) and verify_certificate(mat, cert)
    with pytest.raises(TypeError):
        verify_certificate(mat, replace(cert, a=(0.5, 0.5, 1.5, 0.5)))
    with pytest.raises(TypeError):
        CurveCertificate(cert.a, cert.b, [[-1.0, 4], [5, -20]])
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPolynomial({0.0: 1})
    with pytest.raises(TypeError):
        KnotParams(2.0, 0)
    with pytest.raises(TypeError):
        KnotParams(0, "1")


def test_bools_and_numpy_integers_become_exact_ints():
    def exact(values):
        return all(type(x) is int for x in values)

    g = GramLattice(np.array([[2, -1], [-1, 2]], dtype=np.int64))
    assert g.gram == ((2, -1), (-1, 2)) and all(exact(row) for row in g.gram)
    assert as_matrix([[True, False], [np.int16(3), np.int64(-4)]]) == ((1, 0), (3, -4))
    cert = CurveCertificate(np.array([0, 0, 1, 0]), (np.int64(-1), -1, -4, -2), ((-1, 4), (5, -20)))
    assert cert.a == (0, 0, 1, 0) and exact(cert.a) and exact(cert.b)
    poly = LaurentPolynomial({np.int64(-1): True, 0: np.int64(-1), 1: 1})
    assert str(poly) == "-1:1 0:-1 1:1" and exact(poly.coeffs) and exact(poly.coeffs.values())
    k = KnotParams(True, np.int64(0))
    assert k == KnotParams(1, 0) and exact((k.m, k.n))
    # the CSV row reads the params as ints, not as True
    assert reports_to_csv([genus_bounds(k)]).splitlines()[1].startswith("1,0,163/28,")
