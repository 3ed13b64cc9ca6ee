import inspect
import logging
import random
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy

from knotgenus.curve_search import find_genus1_certificate
from knotgenus.lattice import Embedding, find_embedding, min_embedding_dim, verify_embedding
from knotgenus.matrices import (
    GramLattice,
    SearchBudgetExceeded,
    _bareiss_pivots,
    as_matrix,
    as_vector,
    det,
    format_matrix_text,
    leading_principal_minors,
    parse_matrix_text,
    search_deadline,
)
from knotgenus.pipeline import (
    default_search_bound,
    full_report,
    genus_bounds,
    obstruction_dim,
    reports_to_csv,
    verify_theorem,
)
from knotgenus.seifert import (
    CurveCertificate,
    LaurentPolynomial,
    alexander,
    restricted_form,
    signature,
    verify_certificate,
)
from knotgenus.two_bridge import KnotParams, path_gram, plumbing_weights, seifert_matrix


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


def envelope(mat):
    """The last column where each row of mat is nonzero: the envelope the
    kernel takes."""
    return [max((j for j, x in enumerate(row) if x), default=0) for row in mat]


def sparse_rows(mat):
    """Fresh working rows of mat for the kernel, as GramLattice makes them:
    dicts of the nonzero entries, reading 0 elsewhere; and their envelope."""
    rows = [defaultdict(int, {j: x for j, x in enumerate(row) if x}) for row in mat]
    return rows, envelope(mat)


def _kernel_line_counts(mat, ends=None):
    """The leading minors of mat, and how often two lines of the kernel ran
    while they were computed: the row update, the line that picks the
    divisor of a row about to be updated, and the entry update.  With
    ends, mat is given as working rows."""
    lines, start = inspect.getsourcelines(_bareiss_pivots)
    [row_line] = [start + i for i, line in enumerate(lines) if "d = at[i]" in line]
    [entry_line] = [start + i for i, line in enumerate(lines) if "row_i[j] = " in line]
    counts = Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno] += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is _bareiss_pivots.__code__ else None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        minors = leading_principal_minors(mat, None, ends)
    finally:
        sys.settrace(old)
    return minors, counts[row_line], counts[entry_line]


def test_row_updates_are_linear_in_the_rank_on_a_path_gram():
    # on a path Gram matrix only row k+1 is nonzero in pivot column k, so
    # the dense loop, which skips a row that is 0 in the pivot column,
    # updates one row per step; within the envelope (what GramLattice
    # passes, on dict rows) that update also stops at column k+2.
    # On a dense matrix the dense loop updates all n(n-1)/2 rows below the
    # pivots, each to the last column
    rng = random.Random(53)
    for n in (8, 16, 32, 64, 128):
        g = path_gram([rng.choice((2, 3)) for _ in range(n)])
        minors, rows, _ = _kernel_line_counts(g.gram)
        assert minors == reference_minors(g.gram)
        assert rows == n - 1
        minors, rows, entries = _kernel_line_counts(*sparse_rows(g.gram))
        assert minors == reference_minors(g.gram)
        assert rows == n - 1
        assert entries == 2 * n - 3
    dense = tuple(tuple(7 * (i == j) + 1 for j in range(16)) for i in range(16))
    minors, rows, entries = _kernel_line_counts(dense)
    assert minors == reference_minors(dense)
    assert rows == 16 * 15 // 2
    assert entries == sum(k * k for k in range(16))


def _symmetric_of_shape(rng, n, shape):
    """A seeded symmetric n x n matrix with entries in -3..3 off the
    diagonal, its nonzeros inside the given shape: a band of width 1-3,
    diagonal blocks of size 1-4, an arrow (a full first or last row and
    column over the diagonal), or dense.  The diagonal is dominant (so the
    matrix is positive definite), small (often indefinite), or makes the
    leading 2x2 minor 0."""
    blocks = []
    while sum(blocks) < n:
        blocks.append(rng.randint(1, 4))
    block = [b for b, size in enumerate(blocks) for _ in range(size)][:n]
    width = rng.randint(1, 3)
    tip = rng.choice((0, n - 1))
    inside = {
        "band": lambda i, j: i - j <= width,
        "blocks": lambda i, j: block[i] == block[j],
        "arrow": lambda i, j: tip in (i, j),
        "dense": lambda i, j: True,
    }[shape]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if inside(i, j):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
    diagonal = rng.choice(("dominant", "small", "zero minor"))
    for i in range(n):
        a[i][i] = 3 * n + 1 if diagonal == "dominant" else rng.randint(-2, 4)
    if diagonal == "zero minor" and n >= 2 and a[0][1]:
        a[0][0], a[1][1] = a[0][1], a[0][1]
    return tuple(map(tuple, a))


def test_the_envelope_gives_the_minors_of_the_full_pass():
    # every pivot, up to the first zero one, and the leading minors up to
    # the first nonpositive one, on dict working rows with their envelope,
    # and on the dense rows without it
    rng = random.Random(83)
    outcomes = Counter()
    for trial in range(1200):
        shape = ("band", "blocks", "arrow", "dense")[trial % 4]
        mat = _symmetric_of_shape(rng, rng.randint(1, 10), shape)
        pivots = list(dense_bareiss_pivots(mat, "none"))
        assert list(_bareiss_pivots(mat, "none")) == pivots
        minors = leading_principal_minors(mat)
        assert minors == reference_minors(mat)
        rows, ends = sparse_rows(mat)
        assert list(_bareiss_pivots(rows, "none", None, ends)) == pivots
        rows, ends = sparse_rows(mat)
        assert leading_principal_minors(rows, None, ends) == minors
        last = minors[-1]
        outcomes[shape, "definite" if last > 0 else "zero minor" if last == 0 else "negative"] += 1
    # each shape is seen definite, indefinite and stopped at a zero minor
    assert {key for key, count in outcomes.items() if count >= 20} == {
        (shape, outcome)
        for shape in ("band", "blocks", "arrow", "dense")
        for outcome in ("definite", "zero minor", "negative")
    }


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


def test_a_huge_failing_minor_is_named_by_its_size():
    # str() refuses an int of more than 4,300 digits: such a minor is named
    # by its size, and one above -10^30 is shown as it is
    huge = 10**2200
    with pytest.raises(ValueError) as refused:
        GramLattice([[huge, 0], [0, -huge]])
    assert str(refused.value) == (
        "Gram matrix is not positive definite: leading principal minor 2 is "
        f"negative, of {(huge * huge).bit_length()} bits"
    )
    with pytest.raises(ValueError) as refused:
        GramLattice(((1, 2), (2, 1)))
    assert str(refused.value) == (
        "Gram matrix is not positive definite: leading principal minor 2 is -3"
    )
    for minor, shown in ((0, "0"), (1 - 10**30, "-" + "9" * 30), (-(10**30), "negative, of 100 bits")):
        with pytest.raises(ValueError) as refused:
            GramLattice([[minor]])
        assert str(refused.value).endswith(f"leading principal minor 1 is {shown}")


def _dense_path(weights):
    n = len(weights)
    return tuple(
        tuple(weights[i] if i == j else -(abs(i - j) == 1) for j in range(n)) for i in range(n)
    )


def test_path_lattice_equals_the_lattice_of_its_dense_matrix(caplog):
    # path_gram builds the sparse rows directly, GramLattice derives them
    # from the dense matrix; path_gram builds the dense one only when read
    rng = random.Random(89)
    cases = [[rng.randint(2, 4) for _ in range(n)] for n in range(13)]
    cases += [plumbing_weights(KnotParams(m, n)) for m, n in ((0, 0), (3, 7), (40, 40))]
    for weights in cases:
        dense = _dense_path(weights)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="knotgenus.matrices"):
            from_path, from_dense = path_gram(weights), GramLattice(dense)
        # the time is the message's last field
        checks = [r.getMessage().rsplit(", ", 1)[0] for r in caplog.records]
        n = len(weights)
        assert checks == [f"positive-definiteness check: rank {n}, positive definite"] * 2
        assert "gram" not in vars(from_path)
        assert from_path == from_dense and hash(from_path) == hash(from_dense)
        assert from_path.rank == from_dense.rank == n
        assert from_path.gram == from_dense.gram == dense
        assert all(type(x) is int for row in from_path.gram for x in row)
        assert det(from_path.gram) == det(from_dense.gram) == det(dense)
    assert path_gram([2, 3]) != path_gram([3, 2])
    for weights in ([1, 1], [2, -1], [0]):
        with pytest.raises(ValueError) as from_path:
            path_gram(weights)
        with pytest.raises(ValueError) as from_dense:
            GramLattice(_dense_path(weights))
        assert str(from_path.value) == str(from_dense.value)
    with pytest.raises(TypeError):
        path_gram([2, 2.0])


def test_both_entries_share_one_builder():
    # _of_rows checks symmetry as GramLattice(gram) does, with its message:
    # an entry with no mirror, and a mirror of another value
    for rows in (
        (((0, 2), (1, -1)), ((1, 2),)),
        (((0, 2), (1, -1)), ((0, 1), (1, 2))),
    ):
        with pytest.raises(ValueError, match="^Gram matrix must be symmetric$"):
            GramLattice._of_rows(rows)
    rows = path_gram([2, 3, 2]).rows
    assert GramLattice._of_rows(row for row in rows).rows == rows
    # no lattice keeps a dense matrix: both entries build gram on first read
    for lattice in (GramLattice._of_rows(rows), GramLattice(_dense_path([2, 3, 2]))):
        assert "gram" not in vars(lattice)
        assert lattice.gram == _dense_path([2, 3, 2])
        assert "gram" in vars(lattice)


def test_gram_lattice_errors_come_in_a_fixed_order():
    # a non-integer entry, then a shape that is not square, then asymmetry,
    # then the minors: each input has the errors after the one it raises
    # (the last matrix is not positive definite either)
    with pytest.raises(TypeError):
        GramLattice([[2, -1, 0], [-1, 2.0]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        GramLattice([[2, 1], [0, 2], [0, 0]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        GramLattice([[2, 1], [0]])
    with pytest.raises(ValueError, match="^Gram matrix must be symmetric$"):
        GramLattice([[1, 2], [3, 1]])


def test_gram_lattice_holds_one_dense_row_at_a_time():
    # the dense Q(250,0), rank 508, is 2.1 MB of row tuples; a build that
    # copied it, transposed it or eliminated list copies of its rows peaked
    # at 4.3 MB, the sparse build at 0.25 MB
    dense = path_gram(plumbing_weights(KnotParams(250, 0))).gram
    tracemalloc.start()
    try:
        lattice = GramLattice(dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lattice.rank == 508
    assert peak < 1_000_000


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
    assert cert.a == (-1, -1, 0, -2) and verify_certificate(mat, cert)
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


# each refusal of parse_matrix_text: the text and the exact message
BAD_MATRIX_TEXTS = {
    "size-not-an-integer": ("two\n1 0\n0 1\n", "line 1: expected matrix size, got 'two'"),
    "size-zero": ("# no rows\n0\n", "line 2: matrix size must be positive"),
    "size-negative": ("-2\n1 0\n0 1\n", "line 1: matrix size must be positive"),
    "wrong-entry-count": ("2\n1 0\n0 1 0\n", "line 3: expected 2 entries, got 3"),
    "empty-file": ("# only a comment\n\n", "empty matrix file"),
    "wrong-row-count": ("3\n1 0 0\n0 1 0\n", "expected 3 rows, got 2"),
}


@pytest.mark.parametrize("text, message", BAD_MATRIX_TEXTS.values(), ids=BAD_MATRIX_TEXTS.keys())
def test_parse_matrix_text_refusals(text, message):
    with pytest.raises(ValueError) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == message


def test_format_matrix_text_round_trips():
    rng = random.Random(113)
    for size in range(1, 9):
        for _ in range(5):
            m = tuple(tuple(rng.randint(-50, 50) for _ in range(size)) for _ in range(size))
            assert parse_matrix_text(format_matrix_text(m)) == m
    # lists, bools and numpy integers are written as the ints they stand for
    assert format_matrix_text([[True]]) == "1\n1\n"
    assert parse_matrix_text(format_matrix_text([[True]])) == ((1,),)
    assert format_matrix_text(np.array([[2, -1], [-1, 2]])) == "2\n2 -1\n-1 2\n"


def test_format_matrix_text_refuses_what_the_reader_refuses():
    # each of these used to be written as text that parse_matrix_text refuses
    with pytest.raises(ValueError, match="^matrix size must be positive$"):
        format_matrix_text(())
    for rows in ([[1, 2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            format_matrix_text(rows)
    with pytest.raises(TypeError):
        format_matrix_text([[1.5]])


def test_as_matrix_refuses_a_matrix_that_is_not_square():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]], [[]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            as_matrix(rows)


A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))

# each size argument, given 2.0: before the rule, each of these either kept
# the float (Embedding, a node budget, restricted_form, obstruction_dim),
# answered (find_embedding below the rank returned None, verify_theorem with
# one row ran it), or failed deep inside with a bare TypeError (range(), the
# process pool)
SIZE_ARGUMENTS = {
    "Embedding.ambient_dim": lambda: Embedding([[1, 0]], 2.0),
    "find_embedding.ambient_dim": lambda: find_embedding(GramLattice(A3), 2.0),
    "min_embedding_dim.cap": lambda: min_embedding_dim(GramLattice([[2]]), cap=2.0),
    "find_genus1_certificate.bound": lambda: find_genus1_certificate(A3, 2.0),
    "full_report.curve_bound": lambda: full_report(KnotParams(0, 0), curve_bound=2.0),
    "verify_theorem.m_max": lambda: verify_theorem(2.0, 0),
    "verify_theorem.n_max": lambda: verify_theorem(0, 2.0),
    "verify_theorem.curve_bound": lambda: verify_theorem(0, 0, curve_bound=2.0),
    "find_embedding.max_nodes": lambda: find_embedding(GramLattice(A3), 3, max_nodes=2.0),
    "min_embedding_dim.max_nodes": lambda: min_embedding_dim(GramLattice(A3), max_nodes=2.0),
    "verify_theorem.jobs": lambda: verify_theorem(0, 0, jobs=2.0),
    "restricted_form.a": lambda: restricted_form(A3, (0.5, 0, 1), (1, 0, 0)),
    "restricted_form.b": lambda: restricted_form(A3, (1, 0, 0), (0, 1.0, 0)),
    "obstruction_dim.rank": lambda: obstruction_dim(10.0, -2),
    "obstruction_dim.sigma": lambda: obstruction_dim(10, -2.0),
}


@pytest.mark.parametrize("call", SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS.keys())
def test_size_arguments_must_be_exact_ints(call, caplog):
    # refused where they enter, by operator.index, before any search runs
    with caplog.at_level(logging.INFO):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()
    assert not [r for r in caplog.records if "search" in r.getMessage()]


def test_size_arguments_refuse_strings():
    # before the rule, each of these ended in "'<' not supported"
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        verify_theorem(1, 1, jobs="2")
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        find_embedding(GramLattice(A3), 3, max_nodes="5")


def test_size_arguments_accept_bools_and_numpy_integers():
    assert Embedding([[1, 0]], np.int64(2)).ambient_dim == 2
    assert type(Embedding([[1]], True).ambient_dim) is int
    assert min_embedding_dim(GramLattice(A3), cap=np.int16(3)) == 3
    assert find_embedding(GramLattice(A3), np.int64(3)).ambient_dim == 3
    assert verify_theorem(np.int64(0), True, curve_bound=np.int8(1))[-1].params == KnotParams(0, 1)


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
