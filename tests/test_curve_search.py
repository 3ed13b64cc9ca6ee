import logging
import random
from itertools import product
from math import gcd, isqrt

import pytest

import numpy as np

from knotgenus import curve_search
from knotgenus.curve_search import (
    MAX_BOX_ENTRIES,
    CurveCertificate,
    _bmb_table,
    _box,
    _boxes,
    _check_box_entries,
    _search,
    _stored_entries,
    _wrap64,
    find_genus1_certificate,
)
from knotgenus.lattice import SearchBudgetExceeded
from knotgenus.matrices import as_matrix, det
from knotgenus.pipeline import default_search_bound
from knotgenus.seifert import (
    CurveCertificate,
    alexander_trivial_2x2,
    restricted_form,
    verify_certificate,
)
from knotgenus.two_bridge import KnotParams, seifert_matrix


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def bilinear(a, m, b):
    """a^T m b."""
    return sum(ai * dot(row, b) for ai, row in zip(a, m))


def antisymmetrize(m):
    """m - m^T."""
    n = len(m)
    return tuple(tuple(m[i][j] - m[j][i] for j in range(n)) for i in range(n))


def naive_double_loop(mat, bound):
    """Unpruned reference enumerator over the same normalized space."""
    anti = antisymmetrize(mat)
    dim = len(mat)
    rng = range(-bound, bound + 1)
    for a in product(rng, repeat=dim):
        nz = next((x for x in a if x != 0), None)
        if nz is None or nz < 0:
            continue
        g = 0
        for x in a:
            g = gcd(g, abs(x))
        if g != 1:
            continue
        for b in product(rng, repeat=dim):
            if abs(bilinear(a, anti, b)) != 1:
                continue
            form = restricted_form(mat, a, b)
            if form[0][0] * form[1][1] == form[0][1] * form[1][0]:
                return CurveCertificate(a, b, form)
    return None


def full_box_search(mat, bound):
    """The earlier int64 search: one product over the whole box per a, then
    the Alexander test on the gathered hit columns.  Returns the certificate,
    the a-vectors scanned, the pairs with intersection +-1 and the pairs
    that went to verify_certificate.  It builds its own box and a-vectors,
    independent of the search's cache."""
    dim = len(mat)
    m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64)
    bvecs = _box(bound, dim)
    positive = bvecs[len(bvecs) // 2 + 1 :]
    avecs = positive[np.gcd.reduce(np.abs(positive), axis=1) == 1]
    inter = (m - m.T) @ bvecs.T  # column j holds (M - M^T) b_j
    hits = checked = 0
    for scanned, a in enumerate(avecs, 1):
        cols = np.flatnonzero(np.abs(a @ inter) == 1)  # intersection +-1
        if not len(cols):
            continue
        hits += len(cols)
        cand = bvecs[cols]
        g = np.einsum("ij,ij->i", cand @ m, cand)  # b M b
        x = cand @ (m.T @ a)  # a M b
        y = cand @ (m @ a)  # b M a
        ok = np.flatnonzero((a @ m @ a) * g == x * y)
        at = tuple(int(v) for v in a)
        for j in ok:
            checked += 1
            b = tuple(int(v) for v in cand[j])
            cert = CurveCertificate(at, b, restricted_form(mat, at, b))
            if verify_certificate(mat, cert):
                return cert, scanned, hits, checked
    return None, len(avecs), hits, checked


def test_restricted_form_family_examples():
    m = seifert_matrix(KnotParams(2, 5))
    assert restricted_form(m, (1, 0, 0, 2), (0, 1, 0, 0)) == ((0, 1), (0, -8))
    m = seifert_matrix(KnotParams(0, 0))
    assert restricted_form(m, (1, 0, 0, 1), (1, 1, 0, 2)) == ((-1, 1), (0, 0))
    m = seifert_matrix(KnotParams(3, 6))
    assert restricted_form(m, (1, 0, 0, 0), (0, 1, 0, 3)) == ((-5, 1), (0, 0))


def test_verify_certificate_examples():
    m = seifert_matrix(KnotParams(0, 0))
    good = CurveCertificate(
        (1, 0, 0, 1), (1, 1, 0, 2), restricted_form(m, (1, 0, 0, 1), (1, 1, 0, 2))
    )
    assert verify_certificate(m, good)
    bad = CurveCertificate(
        (1, 0, 0, 0), (0, 1, 0, 0), restricted_form(m, (1, 0, 0, 0), (0, 1, 0, 0))
    )
    assert not verify_certificate(m, bad)
    same = CurveCertificate(
        (1, 0, 0, 1), (1, 0, 0, 1), restricted_form(m, (1, 0, 0, 1), (1, 0, 0, 1))
    )
    assert not verify_certificate(m, same)


def test_verify_certificate_rejects_wrong_form():
    m = seifert_matrix(KnotParams(0, 0))
    cert = CurveCertificate((1, 0, 0, 1), (1, 1, 0, 2), ((0, 1), (0, 0)))
    assert not verify_certificate(m, cert)


def _proportional(a, b) -> bool:
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i))


def reference_verify_certificate(mat, cert) -> bool:
    """Every check spelled out: the intersection through M - M^T, the
    proportionality test and the guarded Alexander test."""
    a, b = cert.a, cert.b
    if len(a) != len(mat) or len(b) != len(mat):
        return False
    form = restricted_form(mat, a, b)
    if form != cert.restricted_form:
        return False
    if abs(bilinear(a, antisymmetrize(mat), b)) != 1:
        return False
    if _proportional(a, b):
        return False
    try:
        return alexander_trivial_2x2(form)
    except ValueError:
        return False


def test_verify_certificate_matches_reference():
    # around every grid certificate: itself, shears b + k a (same intersection),
    # proportional and zero pairs, random pairs, altered forms, wrong lengths
    rng = random.Random(89)
    accepted = 0
    for m, n in product(range(11), repeat=2):
        k = KnotParams(m, n)
        mat = seifert_matrix(k)
        cert = find_genus1_certificate(mat, default_search_bound(k))
        a, b = cert.a, cert.b
        pairs = [(a, b), (a, tuple(3 * x for x in a)), ((0,) * 4, b), (b, b)]
        for _ in range(8):
            s = rng.randint(-3, 3)
            pairs.append((a, tuple(y + s * x for x, y in zip(a, b))))
            pairs.append(tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in "ab"))
        cases = [CurveCertificate(p, q, restricted_form(mat, p, q)) for p, q in pairs]
        for i, j in product(range(2), repeat=2):
            for step in (1, -1):
                form = [list(row) for row in cert.restricted_form]
                form[i][j] += step
                cases.append(CurveCertificate(a, b, form))
        cases.append(CurveCertificate(a[:3], b, cert.restricted_form))
        cases.append(CurveCertificate(a, b + (0,), cert.restricted_form))
        for c in cases:
            ok = verify_certificate(mat, c)
            assert ok == reference_verify_certificate(mat, c), (m, n, c)
            accepted += ok
    assert accepted > 121


def test_find_certificate_k00():
    m = seifert_matrix(KnotParams(0, 0))
    cert = find_genus1_certificate(m, 3)
    assert cert is not None
    assert verify_certificate(m, cert)
    # the known explicit pair is admitted by the validity predicate
    known = CurveCertificate(
        (1, 0, 0, 1), (1, 1, 0, 2), restricted_form(m, (1, 0, 0, 1), (1, 1, 0, 2))
    )
    assert verify_certificate(m, known)
    # frozen regression: lexicographically first certificate in the box
    assert cert.a == (0, 0, 1, 0)
    assert cert.b == (-1, -1, -3, -2)


def test_find_certificate_k20():
    m = seifert_matrix(KnotParams(2, 0))
    cert = find_genus1_certificate(m, 3)
    assert cert is not None
    assert verify_certificate(m, cert)
    known = CurveCertificate(
        (1, 0, 0, 2), (0, 1, 0, 0), restricted_form(m, (1, 0, 0, 2), (0, 1, 0, 0))
    )
    assert verify_certificate(m, known)


def test_find_certificate_k11_bound1_regression():
    # verdict frozen from the brute-force enumerator: present
    m = seifert_matrix(KnotParams(1, 1))
    cert = find_genus1_certificate(m, 1)
    assert cert is not None
    assert cert.a == (0, 0, 1, 1)
    assert cert.b == (-1, -1, 1, -1)


def test_bound_validation():
    with pytest.raises(ValueError):
        find_genus1_certificate(seifert_matrix(KnotParams(0, 0)), 0)


def test_box_guard():
    # every default bound for m, n <= 286 fits; K(287, 287) needs bound 19
    for m in range(287):
        bound = default_search_bound(KnotParams(m, m))
        assert (2 * bound + 1) ** 4 * 4 <= MAX_BOX_ENTRIES
    with pytest.raises(ValueError, match="box too large"):
        find_genus1_certificate(seifert_matrix(KnotParams(287, 287)), 19)
    with pytest.raises(ValueError, match="box too large"):
        find_genus1_certificate([[0] * 8 for _ in range(8)], 3)


def test_search_logs_one_info_record(caplog):
    with caplog.at_level(logging.INFO, logger="knotgenus.curve_search"):
        assert find_genus1_certificate(seifert_matrix(KnotParams(0, 0)), 4) is not None
        assert find_genus1_certificate([[1, 0], [0, 1]], 1) is None
    records = [r for r in caplog.records if r.name == "knotgenus.curve_search"]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    # a = (0, 0, 1, 0) is the sixth normalized a-vector, and the first pair
    # that passes both int64 filters is the certificate; [-1, 1]^2 holds
    # four, and a symmetric matrix intersects every pair in 0
    assert (
        "dim 4, bound 4, found, 6 a-vectors, "
        "5400 pairs with intersection +-1, 1 verified, " in records[0].getMessage()
    )
    assert (
        "dim 2, bound 1, absent, 4 a-vectors, "
        "0 pairs with intersection +-1, 0 verified, " in records[1].getMessage()
    )


def test_default_search_bound():
    assert default_search_bound(KnotParams(0, 0)) == 4
    assert default_search_bound(KnotParams(23, 0)) == 6
    assert default_search_bound(KnotParams(0, 22)) == 6


def test_the_exact_check_is_verify_certificate(monkeypatch):
    # the search's exact check is the module's verify_certificate, on the
    # certificate it returns; a check that rejects every pair leaves none
    calls = []

    def recording(mat, cert):
        calls.append(cert)
        return verify_certificate(mat, cert)

    mat = seifert_matrix(KnotParams(0, 0))
    monkeypatch.setattr(curve_search, "verify_certificate", recording)
    cert = find_genus1_certificate(mat, 4)
    assert calls[-1] is cert and cert.a == (0, 0, 1, 0)
    monkeypatch.setattr(curve_search, "verify_certificate", lambda mat, cert: False)
    assert find_genus1_certificate(mat, 4) is None


def _random_seifert_like(rng, size=4):
    """Integer matrix whose antisymmetrization is the standard symplectic
    form, i.e. unimodular."""
    mat = [[0] * size for _ in range(size)]
    for i in range(0, size, 2):
        mat[i][i + 1] = 1
    # symmetric perturbation: leaves the antisymmetrization fixed
    for i in range(size):
        mat[i][i] += rng.randint(-2, 2)
        for j in range(i):
            s = rng.randint(-2, 2)
            mat[i][j] += s
            mat[j][i] += s
    assert det(antisymmetrize(mat)) == 1
    return mat


def test_search_matches_naive_double_loop():
    rng = random.Random(41)
    for _ in range(20):
        mat = _random_seifert_like(rng)
        fast = find_genus1_certificate(mat, 2)
        slow = naive_double_loop(mat, 2)
        if slow is None:
            assert fast is None
        else:
            assert fast == slow
    # odd dimensions: dim 1 splits into an empty and a one-coordinate half,
    # and intersects every pair in 0
    assert find_genus1_certificate([[1]], 2) is None
    assert find_genus1_certificate([[0]], 2) is None
    # dim 0: the empty box scans no a-vector
    assert find_genus1_certificate([], 3) is None
    # small entries in dim 5 leave a certificate, large ones often none
    verdicts = []
    for dim, r in [(1, 2), (1, 9), (5, 2), (5, 2), (5, 9), (5, 9), (5, 9)]:
        mat = [[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)]
        cert = find_genus1_certificate(mat, 1)
        assert cert == naive_double_loop(mat, 1), mat
        verdicts.append(cert is not None)
    assert verdicts[:2] == [False, False] and set(verdicts[2:]) == {False, True}


def _wide_entry_matrices(rng):
    """Seeded dim 2-4 matrices with entries beyond int64, and a bound for each.

    Half are congruent mod 2^64 to a small matrix, so the int64 filters pass
    pairs that are not certificates.  The others add k u v^T, |k| between
    2^63 and 3^50, to a small matrix with a certificate (a, b), where u and v
    are orthogonal to a and b: (a, b) stays a certificate, and its check sums
    products of entries above 2^63 that cancel only exactly.
    """
    cases = []
    for i in range(24):
        if i % 2 == 0:
            dim = 2 + i // 2 % 3
            mat = [
                [rng.randint(-3, 3) + (rng.randint(-2, 2) << 64) for _ in range(dim)]
                for _ in range(dim)
            ]
        else:
            dim = 3 + i // 2 % 2
            cert = None
            while cert is None:
                mat = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
                cert = naive_double_loop(mat, 2 if dim < 4 else 1)
            kernel = [
                w
                for w in product(range(-2, 3), repeat=dim)
                if any(w) and dot(w, cert.a) == 0 == dot(w, cert.b)
            ]
            u, v = rng.choice(kernel), rng.choice(kernel)
            k = rng.choice([-1, 1]) * rng.randint(2**63, 3**50)
            mat = [[mat[r][c] + k * u[r] * v[c] for c in range(dim)] for r in range(dim)]
        cases.append((mat, 2 if dim < 4 else 1))
    return cases


def test_wrap64_is_the_int64_residue():
    for x in (0, 1, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 3**50, -(3**50), 5 << 64):
        w = _wrap64(x)
        assert -(2**63) <= w < 2**63 and (w - x) % 2**64 == 0


def _odd_dim_cases():
    """Seeded odd-dimensional matrices, where the half box ends inside the
    middle row of hi, with a bound for each."""
    rng = random.Random(53)
    return [
        (as_matrix([[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)]), bound)
        for dim, bound, r, _ in product((1, 3, 5), (1, 2), (2, 9), range(4))
    ]


def _split_box_cases():
    """(matrix, bound) cases for the comparison with full_box_search."""
    cases = _wide_entry_matrices(random.Random(47))
    cases += [(seifert_matrix(KnotParams(m, n)), 3) for m, n in product(range(4), repeat=2)]
    for m, n in product(range(11), repeat=2):
        k = KnotParams(m, n)
        cases.append((seifert_matrix(k), default_search_bound(k)))
    return [(as_matrix(mat), bound) for mat, bound in cases] + _odd_dim_cases()


@pytest.fixture(scope="module")
def full_box_cases():
    """Each case of _split_box_cases with the result of full_box_search."""
    return [(mat, bound, full_box_search(mat, bound)) for mat, bound in _split_box_cases()]


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty box and hit cache for the test, the module's one restored after it."""
    monkeypatch.setattr(curve_search, "_CACHE", {})


def test_split_box_passes_the_full_box_pairs(full_box_cases, monkeypatch):
    # same certificate, a-vectors scanned, and pairs passed by each filter,
    # with the memo cleared before each case, then warm with its own hits
    for mat, bound, expected in full_box_cases:
        monkeypatch.setattr(curve_search, "_CACHE", {})
        assert _search(mat, bound) == expected, mat
        assert _search(mat, bound) == expected, mat
    verdicts = {1: set(), 3: set(), 5: set()}
    for mat, bound in _odd_dim_cases():
        verdicts[len(mat)].add(_search(mat, bound)[0] is not None)
    assert verdicts == {1: {False}, 3: {False, True}, 5: {False, True}}


def test_every_knot_has_the_same_intersection_form():
    # the premise of the memo: M - M^T does not depend on (m, n)
    base = antisymmetrize(seifert_matrix(KnotParams(0, 0)))
    for m, n in product(range(12), repeat=2):
        assert antisymmetrize(seifert_matrix(KnotParams(m, n))) == base, (m, n)


def test_memo_is_shared_across_the_grid_in_any_order(full_box_cases, empty_cache):
    expected = {(mat, bound): result for mat, bound, result in full_box_cases}
    knots = list(product(range(11), repeat=2))
    random.Random(61).shuffle(knots)
    for m, n in knots:
        k = KnotParams(m, n)
        mat, bound = seifert_matrix(k), default_search_bound(k)
        assert _search(mat, bound) == expected[mat, bound], (m, n)
    # one M - M^T for the whole grid: one memo key per bound
    assert sorted(curve_search._CACHE) == [(4, 4), (5, 4)]
    assert all(len(box.memo) == 1 for box in curve_search._CACHE.values())
    # every case, warm from the grid and from the cases before it
    for mat, bound, result in full_box_cases:
        assert _search(mat, bound) == result, mat


def test_memo_key_is_the_int64_residue(empty_cache):
    # a matrix and its entries reduced mod 2^64 share one memo key, and the
    # search on the first reuses the hit blocks stored by the second
    for mat, bound in _wide_entry_matrices(random.Random(47)):
        mat = as_matrix(mat)
        twin = as_matrix([[_wrap64(x) for x in row] for row in mat])
        assert mat != twin
        _search(twin, bound)
        box = curve_search._CACHE[bound, len(mat)]
        keys = len(box.memo)
        blocks = {key: list(stored) for key, stored in box.memo.items()}
        assert _search(mat, bound) == full_box_search(mat, bound), mat
        assert len(box.memo) == keys
        for key, stored in blocks.items():  # extended, never recomputed
            assert len(box.memo[key]) >= len(stored)
            assert all(x is y for x, y in zip(stored, box.memo[key]))


def test_memo_cap(full_box_cases, empty_cache, monkeypatch):
    # past the cap blocks are computed and not stored; results do not change
    monkeypatch.setattr(curve_search, "MAX_STORED_HITS", 400)
    for _ in range(2):
        for mat, bound, expected in full_box_cases:
            assert _search(mat, bound) == expected, mat
            assert _stored_entries() <= 400
    assert _stored_entries() > 0
    # recounted from the stored arrays: a block of nb a-vectors holds their
    # nb hit counts, then 4 bytes, one int32 entry, per hit (two int16 row
    # indices)
    counted = 0
    step = curve_search._A_BLOCK
    for box in curve_search._CACHE.values():
        for blocks in box.memo.values():
            for k, block in enumerate(blocks):
                nb = len(box.arows[k * step : (k + 1) * step])
                assert block.dtype == np.int32
                assert len(block) == nb + int(block[:nb].sum())
                counted += len(block) + curve_search._BLOCK_HEADER
    assert counted == _stored_entries()


def test_curve_search_time_budget():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    for cap in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="time budget must be > 0"):
            find_genus1_certificate(identity, 2, cap_seconds=cap)
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        find_genus1_certificate(identity, 9, cap_seconds=1e-9)
    # a budget that lasts changes nothing
    k = KnotParams(3, 4)
    cert = find_genus1_certificate(seifert_matrix(k), default_search_bound(k), cap_seconds=60)
    assert (cert.a, cert.b) == FIRST_CERTIFICATES[3, 4]


def _split_half(box):
    """The first half of the box, built from hi and lo: row i * len(lo) + j
    is hi[i] followed by lo[j]."""
    hi, lo = box.hi, box.lo
    rows = np.hstack((np.repeat(hi, len(lo), axis=0), np.tile(lo, (len(hi), 1))))
    return rows[: box.n]


def test_half_box_cache():
    # the a-vectors, built from hi, lo and their half rows, are the
    # normalized rows of the whole box in scan order; hi is a prefix of the
    # box of dim // 2, cut to the rows that begin a row of the half, and lo
    # is the box of the rest
    for bound, dim in [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4), (1, 5)]:
        full = _box(bound, dim)
        box = _boxes(bound, dim)
        hi, lo = box.hi, box.lo
        assert box.n == len(full) // 2
        assert not full[box.n].any()
        positive = full[box.n + 1 :]
        assert np.array_equal(_split_half(box), full[: box.n])
        assert np.array_equal(-_split_half(box)[::-1], positive)
        expected = positive[np.gcd.reduce(np.abs(positive), axis=1) == 1]
        assert box.arows.dtype == np.int32
        i, j = np.divmod(box.arows, len(lo))
        assert np.array_equal(-np.hstack((hi[i], lo[j])), expected)
        assert np.array_equal(hi, _box(bound, dim // 2)[: len(hi)])
        assert np.array_equal(lo, _box(bound, dim - dim // 2))
        assert (len(hi) - 1) * len(lo) < box.n <= len(hi) * len(lo)


def test_split_bmb_table(empty_cache):
    # the table from hi and lo is bMb over the half, mod 2^64 for the wide
    # entries too
    for mat, bound in _split_box_cases():
        m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64)
        box = _boxes(bound, len(mat))
        half = _split_half(box)
        assert np.array_equal(_bmb_table(box, m), np.einsum("ij,ij->i", half @ m, half)), mat


def _wide_mod_2_16_matrices(rng):
    """Seeded dim 2-4 matrices whose entries are small mod 2^16 and not in
    int64, with a bound for each: many pairs have intersection +-1 mod 2^16
    but not mod 2^64, and some have it in both."""
    cases = []
    for dim in (2, 3, 4, 2, 3, 4):
        mat = [
            [rng.randint(-2, 2) + (rng.randint(-3, 3) << 16) for _ in range(dim)]
            for _ in range(dim)
        ]
        cases.append((as_matrix(mat), 2 if dim < 4 else 1))
    return cases


def test_hits_found_mod_2_16_are_checked_in_int64(empty_cache):
    # the hits are the pairs that _hit_block finds with intersection +-1 mod
    # 2^16 and then confirms in int64; the cases hold many pairs that pass
    # the first test and fail the second, and some true hits
    passed_mod_2_16 = hits = 0
    for mat, bound in _wide_mod_2_16_matrices(random.Random(71)):
        expected = full_box_search(mat, bound)
        assert _search(mat, bound) == expected, mat
        assert _search(mat, bound) == expected, mat
        m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64)
        bvecs = _box(bound, len(mat))
        positive = bvecs[len(bvecs) // 2 + 1 :]
        avecs = positive[np.gcd.reduce(np.abs(positive), axis=1) == 1]
        inter = avecs @ (m - m.T) @ bvecs.T
        passed_mod_2_16 += np.count_nonzero(np.abs(inter.astype(np.int16)) == 1)
        hits += np.count_nonzero(np.abs(inter) == 1)
    assert 0 < hits < passed_mod_2_16 // 2


def test_boxes_at_the_row_index_limits(empty_cache):
    # dim 1 at bound 2^14: lo has 2^15 + 1 rows, past int16, and no hit is
    # stored; dims 2 and 3 at the largest bound the box guard admits, where
    # lo has 2,047 and 19,321 rows and a hit takes two int16 row indices
    cases = [
        ([[3]], 1 << 14),
        ([[0, 1], [0, 0]], 1023),
        ([[3, -3, 0], [-2, -2, -2], [-2, 2, -3]], 69),
    ]
    for mat, bound in cases:
        mat = as_matrix(mat)
        _check_box_entries(len(mat), bound)
        if len(mat) > 1:
            with pytest.raises(ValueError, match="box too large"):
                _check_box_entries(len(mat), bound + 1)
        expected = full_box_search(mat, bound)
        assert _search(mat, bound) == expected, mat
        assert _search(mat, bound) == expected, mat
    # the dim-3 search scans 54 a-vectors, past three blocks of the memo
    assert expected[1:] == (54, 13738, 1)


def test_certificates_are_symmetric_in_the_sign_of_b():
    # verify_certificate accepts (a, b) iff it accepts (a, -b) with the
    # off-diagonal of the form negated, also with entries beyond int64
    rng = random.Random(59)
    mats = [_random_seifert_like(rng) for _ in range(10)]
    mats += [mat for mat, _ in _wide_entry_matrices(random.Random(47))]
    accepted = 0
    for mat in mats:
        dim = len(mat)
        cert = find_genus1_certificate(mat, 2 if dim < 4 else 1)
        pairs = [tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in "ab") for _ in range(20)]
        if cert is not None:
            a, b = cert.a, cert.b
            pairs += [(a, tuple(y + t * x for x, y in zip(a, b))) for t in range(-3, 4)]
        for a, b in pairs:
            (p, q), (r, s) = form = restricted_form(mat, a, b)
            minus_b = tuple(-x for x in b)
            assert restricted_form(mat, a, minus_b) == ((p, -q), (-r, s))
            ok = verify_certificate(mat, CurveCertificate(a, b, form))
            assert ok == verify_certificate(mat, CurveCertificate(a, minus_b, ((p, -q), (-r, s))))
            accepted += ok
    assert accepted > 100
    # so the lex-first b lies in the half box scanned
    for a, b in FIRST_CERTIFICATES.values():
        assert next(x for x in b if x) < 0


def test_search_matches_naive_double_loop_beyond_int64():
    rng = random.Random(47)
    present = 0
    for mat, bound in _wide_entry_matrices(rng):
        cert = find_genus1_certificate(mat, bound)
        assert cert == naive_double_loop(mat, bound)
        present += cert is not None
    assert present == 12


# (a, b) of the lex-first certificate at the default bound, recorded with the
# earlier chunked numpy search: the 121 knots of the grid m, n <= 10, then
# K(30,30) and K(40,40); K(60,60) with the full-box int64 search.
FIRST_CERTIFICATES = {
    (0, 0): ((0, 0, 1, 0), (-1, -1, -4, -2)),
    (0, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (0, 2): ((0, 0, 1, 1), (-1, -1, -2, -4)),
    (0, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (0, 4): ((0, 1, -1, -3), (-3, 0, 0, 2)),
    (0, 5): ((0, 0, 2, 3), (-2, 1, -3, -3)),
    (0, 6): ((0, 1, -2, 3), (-3, -1, 3, -3)),
    (0, 7): ((0, 1, -5, 4), (-3, -3, -1, -2)),
    (0, 8): ((0, 1, -2, 3), (-1, -1, 4, -4)),
    (0, 9): ((0, 0, 2, 3), (-2, -1, -1, -3)),
    (0, 10): ((0, 1, 1, 3), (-1, -3, 1, -3)),
    (1, 0): ((0, 0, 3, 4), (-1, -2, -1, -3)),
    (1, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (1, 2): ((0, 0, 3, 4), (-1, -2, 1, -1)),
    (1, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (1, 4): ((0, 1, -2, -2), (-1, -4, 2, -1)),
    (1, 5): ((0, 0, 2, 3), (-2, -1, -1, -3)),
    (1, 6): ((0, 1, -3, 3), (-1, -2, 3, -4)),
    (1, 7): ((0, 1, -5, 4), (-5, -4, 2, -4)),
    (1, 8): ((0, 1, 0, 1), (-1, -5, 3, 0)),
    (1, 9): ((0, 1, -4, 4), (-4, -1, 5, -4)),
    (1, 10): ((0, 1, 2, -3), (-1, -1, -2, 3)),
    (2, 0): ((0, 0, 1, 1), (-1, -3, 0, -4)),
    (2, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (2, 2): ((0, 1, -3, -4), (-1, 0, 2, 4)),
    (2, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (2, 4): ((0, 0, 2, 3), (-1, 3, -3, -2)),
    (2, 5): ((0, 1, -3, -4), (-1, 0, 2, 4)),
    (2, 6): ((0, 1, -3, -4), (-1, 0, 2, 4)),
    (2, 7): ((0, 0, 2, 3), (-2, 3, -5, -4)),
    (2, 8): ((0, 1, -3, -4), (-1, 0, 2, 4)),
    (2, 9): ((0, 1, -5, 4), (-2, -2, 1, -2)),
    (2, 10): ((0, 0, 2, 3), (-1, 1, -3, -3)),
    (3, 0): ((0, 0, 1, 1), (-1, -2, -1, -4)),
    (3, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (3, 2): ((0, 0, 2, 3), (-1, 2, -3, -3)),
    (3, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (3, 4): ((0, 1, 0, -1), (-1, -2, 0, 4)),
    (3, 5): ((0, 1, -3, 3), (-4, -3, 4, -4)),
    (3, 6): ((0, 1, -3, 3), (-1, 0, 3, -2)),
    (3, 7): ((0, 1, -2, -4), (-2, 0, 1, 4)),
    (3, 8): ((0, 1, 2, -1), (-5, -5, -2, -5)),
    (3, 9): ((0, 0, 2, 3), (-1, 1, -3, -3)),
    (3, 10): ((0, 0, 2, 3), (-1, -2, -1, -4)),
    (4, 0): ((0, 1, -2, -3), (-1, -3, 2, 2)),
    (4, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (4, 2): ((0, 1, -2, -4), (-1, -2, 2, 4)),
    (4, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (4, 4): ((0, 1, 0, 1), (-1, -4, -4, -1)),
    (4, 5): ((0, 1, -2, 2), (-1, -3, 2, -3)),
    (4, 6): ((0, 1, -2, 3), (-3, -1, 3, -3)),
    (4, 7): ((0, 1, -3, 3), (-2, 4, 3, 3)),
    (4, 8): ((0, 0, 2, 3), (-1, 1, -3, -3)),
    (4, 9): ((0, 1, -5, 4), (-3, -5, -2, -3)),
    (4, 10): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (5, 0): ((0, 0, 3, 4), (-1, 2, -4, -3)),
    (5, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (5, 2): ((0, 1, -2, 2), (-1, -3, 2, -3)),
    (5, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (5, 4): ((0, 1, -3, 3), (-1, -2, 3, -4)),
    (5, 5): ((0, 1, -3, 3), (-1, 0, 3, -2)),
    (5, 6): ((0, 1, -2, 3), (-3, -1, 3, -3)),
    (5, 7): ((0, 0, 2, 3), (-2, -3, -1, -5)),
    (5, 8): ((0, 1, -2, 3), (-1, -2, 4, -5)),
    (5, 9): ((0, 0, 2, 3), (-1, -3, -1, -5)),
    (5, 10): ((0, 1, 2, -3), (-1, -1, -2, 3)),
    (6, 0): ((0, 0, 3, 4), (-1, -3, -1, -4)),
    (6, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (6, 2): ((0, 1, -1, 2), (-1, 0, 4, -2)),
    (6, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (6, 4): ((0, 1, -1, 2), (-3, 4, 4, 2)),
    (6, 5): ((0, 1, -2, -2), (-1, 2, 0, 3)),
    (6, 6): ((0, 0, 2, 3), (-1, 1, -3, -3)),
    (6, 7): ((0, 1, -3, -4), (-1, -3, 3, 2)),
    (6, 8): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (6, 9): ((0, 1, -4, 4), (-4, -1, 5, -4)),
    (6, 10): ((0, 1, -1, -4), (-3, -2, 0, 2)),
    (7, 0): ((0, 1, -2, -3), (-3, 4, -2, 2)),
    (7, 1): ((0, 0, 1, 0), (0, -1, -4, -2)),
    (7, 2): ((0, 0, 2, 3), (-1, -2, -1, -3)),
    (7, 3): ((0, 0, 1, 1), (0, -1, -2, -4)),
    (7, 4): ((0, 1, -2, -3), (-1, -3, 3, 3)),
    (7, 5): ((0, 0, 2, 3), (-1, -4, 1, -2)),
    (7, 6): ((0, 1, -2, -3), (-1, -3, 3, 3)),
    (7, 7): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (7, 8): ((0, 0, 2, 3), (-1, 2, -5, -5)),
    (7, 9): ((0, 0, 2, 3), (-1, -2, -1, -4)),
    (7, 10): ((0, 1, -2, -3), (-1, -3, 3, 3)),
    (8, 0): ((0, 1, -2, -4), (-1, -2, 2, 4)),
    (8, 1): ((0, 0, 1, 0), (0, -1, -5, -2)),
    (8, 2): ((0, 1, -4, -5), (-1, -5, 3, 0)),
    (8, 3): ((0, 0, 1, 1), (0, -1, -3, -5)),
    (8, 4): ((0, 0, 2, 3), (-1, -3, -1, -4)),
    (8, 5): ((0, 1, 2, 4), (-2, 2, -3, -3)),
    (8, 6): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (8, 7): ((0, 1, -3, -5), (-1, 1, 0, 1)),
    (8, 8): ((0, 0, 2, 3), (-1, 3, -5, -4)),
    (8, 9): ((0, 1, -5, 4), (-2, -5, -4, -2)),
    (8, 10): ((0, 1, -3, 3), (-1, 1, 3, -1)),
    (9, 0): ((0, 0, 3, 4), (-1, -2, -2, -5)),
    (9, 1): ((0, 0, 1, 0), (0, -1, -5, -2)),
    (9, 2): ((0, 1, -1, -1), (-1, -1, 2, 5)),
    (9, 3): ((0, 0, 1, 1), (0, -1, -3, -5)),
    (9, 4): ((0, 1, -1, -1), (-1, -1, 2, 5)),
    (9, 5): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (9, 6): ((0, 1, -2, -5), (-5, -1, 0, 2)),
    (9, 7): ((0, 1, -1, -4), (-1, -1, 1, 4)),
    (9, 8): ((0, 1, -2, -5), (-1, 0, 0, 1)),
    (9, 9): ((0, 1, -4, 4), (-4, -1, 5, -4)),
    (9, 10): ((0, 1, -5, 4), (-1, -3, 4, -5)),
    (10, 0): ((0, 1, -2, -3), (-1, -4, 3, 3)),
    (10, 1): ((0, 0, 1, 0), (0, -1, -5, -2)),
    (10, 2): ((0, 0, 2, 3), (-1, 1, -3, -3)),
    (10, 3): ((0, 0, 1, 1), (0, -1, -3, -5)),
    (10, 4): ((0, 0, 2, 3), (-1, -1, -1, -3)),
    (10, 5): ((0, 1, -5, 4), (-1, -4, 0, -4)),
    (10, 6): ((0, 1, -2, -5), (-5, -1, 0, 2)),
    (10, 7): ((0, 1, -5, 4), (-2, -5, 1, -5)),
    (10, 8): ((0, 1, -1, 2), (-1, 1, 5, -2)),
    (10, 9): ((0, 1, -5, 4), (-1, -3, 4, -5)),
    (10, 10): ((0, 1, 0, -1), (-3, 4, -2, 5)),
    (30, 30): ((0, 1, -3, 4), (-1, 0, 4, -4)),
    (40, 40): ((0, 0, 5, 8), (-1, -1, -3, -6)),
    (60, 60): ((0, 1, 1, -7), (-5, 1, -1, 5)),
}


def test_first_certificates_pinned():
    for (m, n), (a, b) in FIRST_CERTIFICATES.items():
        k = KnotParams(m, n)
        cert = find_genus1_certificate(seifert_matrix(k), default_search_bound(k))
        assert (cert.a, cert.b) == (a, b), (m, n)


def test_square_condition_families():
    for m in range(24):
        for n in range(24):
            msq = isqrt(m + 2) ** 2 == m + 2
            nsq = isqrt(n + 3) ** 2 == n + 3
            if not (msq or nsq):
                continue
            if m > 7 and n > 7:
                continue  # acceptance suite covers the full range
            bound = isqrt(m + 2) if msq else isqrt(n + 3)
            mat = seifert_matrix(KnotParams(m, n))
            cert = find_genus1_certificate(mat, bound)
            assert cert is not None
            assert verify_certificate(mat, cert)


def test_unimodular_invariance_of_certificates():
    import sympy

    rng = random.Random(43)
    base = seifert_matrix(KnotParams(0, 0))
    cert = find_genus1_certificate(base, 3)
    for _ in range(10):
        p = sympy.eye(4)
        for _ in range(4):
            i, j = rng.sample(range(4), 2)
            p = p.elementary_row_op("n->n+km", row=i, k=rng.choice([-1, 1]), row2=j)
        pinv = p.inv()
        conj = (p.T * sympy.Matrix(base) * p).tolist()
        a2 = tuple(int(x) for x in (pinv * sympy.Matrix(cert.a)))
        b2 = tuple(int(x) for x in (pinv * sympy.Matrix(cert.b)))
        mapped = CurveCertificate((a2), (b2), restricted_form(conj, a2, b2))
        assert verify_certificate(conj, mapped)
