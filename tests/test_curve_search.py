import logging
import random
from itertools import product
from math import gcd, isqrt
from pathlib import Path

import pytest

import numpy as np

import box_search
from box_search import (
    MAX_BOX_ENTRIES,
    _bmb_table,
    _box,
    _boxes,
    _check_box_entries,
    _search,
    _stored_entries,
    _wrap64,
    box_certificate,
)
from knotgenus import cli, curve_search, pipeline
from knotgenus.curve_search import MAX_SEARCH_VECTORS, find_genus1_certificate
from knotgenus.lattice import SearchBudgetExceeded
from knotgenus.matrices import as_matrix, det, mat_vec, transpose
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


# Indefinite, with no isotropic vector: x^2 + y^2 + z^2 = 7 w^2 only at 0,
# as 7 w^2 for odd w is 7 mod 8, which no sum of three squares is, and even
# x, y, z, w halve
NO_ISOTROPIC_VECTOR = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -7))


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
    # frozen regressions: the constructor's first certificate, and the
    # lexicographically first certificate in the box of the oracle
    assert (cert.a, cert.b) == ((-1, -1, 0, -2), (0, 0, 1, 0))
    first = box_certificate(m, 3)
    assert (first.a, first.b) == ((0, 0, 1, 0), (-1, -1, -3, -2))


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
    assert (cert.a, cert.b) == ((-1, -1, -1, 2), (0, 1, 0, -1))
    first = box_certificate(m, 1)
    assert (first.a, first.b) == ((0, 0, 1, 1), (-1, -1, 1, -1))


def test_bound_validation():
    with pytest.raises(ValueError):
        find_genus1_certificate(seifert_matrix(KnotParams(0, 0)), 0)


def test_box_guard():
    # the guard counts the box of the enumerated coordinates, three of a
    # K(m,n) Seifert matrix: every default bound for m, n <= 1441 fits, and
    # K(1442, 1442) needs bound 40
    for m in range(1442):
        bound = default_search_bound(KnotParams(m, m))
        assert (2 * bound + 1) ** 3 <= MAX_SEARCH_VECTORS
    assert default_search_bound(KnotParams(1442, 1442)) == 40
    with pytest.raises(ValueError, match="box too large: 3 coordinates at bound 40"):
        find_genus1_certificate(seifert_matrix(KnotParams(1442, 1442)), 40)
    # seven coordinates of an 8x8 matrix with a nonzero diagonal entry, and
    # all eight of a zero diagonal
    unit = [[int(i == j == 0) for j in range(8)] for i in range(8)]
    with pytest.raises(ValueError, match="box too large: 7 coordinates at bound 4"):
        find_genus1_certificate(unit, 4)
    with pytest.raises(ValueError, match="box too large: 8 coordinates at bound 3"):
        find_genus1_certificate([[0] * 8 for _ in range(8)], 3)
    # the oracle's guard, on the whole box of pairs: K(286,287) needs bound 19
    with pytest.raises(ValueError, match="box too large"):
        box_certificate(seifert_matrix(KnotParams(286, 287)), 19)
    assert (2 * 19 + 1) ** 4 * 4 > MAX_BOX_ENTRIES


def test_search_logs_one_info_record(caplog):
    with caplog.at_level(logging.INFO, logger="knotgenus.curve_search"):
        assert find_genus1_certificate(seifert_matrix(KnotParams(0, 0)), 4) is not None
        assert find_genus1_certificate([[1, 0], [0, 1]], 1) is None
        assert find_genus1_certificate(NO_ISOTROPIC_VECTOR, 3) is None
    records = [r for r in caplog.records if r.name == "knotgenus.curve_search"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    # K(0,0): c = (-1, -1, 0, -2), the first isotropic c, in shell 1, has a
    # partner; the identity is definite, so no shell is entered; and
    # diag(1, 1, 1, -7) enters the shells 0 to 3 and finds no isotropic c
    assert (
        "dim 4, bound 4, found, 2 shells, 1 isotropic c tried, " in records[0].getMessage()
    )
    assert "dim 2, bound 1, none, 0 shells, 0 isotropic c tried, " in records[1].getMessage()
    assert (
        "dim 4, bound 3, absent, 4 shells, 0 isotropic c tried, " in records[2].getMessage()
    )


def test_default_search_bound():
    assert default_search_bound(KnotParams(0, 0)) == 4
    assert default_search_bound(KnotParams(23, 0)) == 6
    assert default_search_bound(KnotParams(0, 22)) == 6


def test_the_exact_check_is_verify_certificate(monkeypatch, capsys):
    # the constructor checks each certificate it returns exactly once, with
    # seifert's verify_certificate; full_report and knot curve check nothing
    # again, and a certificate the check rejects stops them before anything
    # is printed
    assert curve_search.verify_certificate is verify_certificate
    assert not hasattr(pipeline, "verify_certificate")
    assert not hasattr(cli, "verify_certificate")
    calls = []

    def recording(mat, cert):
        calls.append(cert)
        return verify_certificate(mat, cert)

    monkeypatch.setattr(curve_search, "verify_certificate", recording)
    for m, n in [(0, 0), (3, 4), (30, 30)]:
        report = pipeline.full_report(KnotParams(m, n))
        assert calls == [report.curve_certificate]
        calls.clear()
        assert cli.main(["curve", "--m", str(m), "--n", str(n)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == pipeline.format_certificate(calls[0]) + "\n"
        calls.clear()
    monkeypatch.undo()

    bogus = CurveCertificate((1, 0, 0, 0), (0, 1, 0, 0), ((0, 0), (0, 0)))
    monkeypatch.setattr(curve_search, "_construct", lambda mat, k, bound, deadline: (bogus, 1, 1))
    with pytest.raises(RuntimeError, match="invalid certificate"):
        find_genus1_certificate(seifert_matrix(KnotParams(0, 0)), 3)
    with pytest.raises(RuntimeError, match="invalid certificate"):
        pipeline.full_report(KnotParams(0, 0))
    with pytest.raises(RuntimeError, match="invalid certificate"):
        cli.main(["curve", "--m", "0", "--n", "0"])
    assert capsys.readouterr().out == ""


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


def _bezout(x, y):
    """(s, t) with s x + t y = 1, for coprime x and y."""
    if y == 0:
        return (x, 0)  # x is +-1
    s, t = _bezout(y, x % y)
    return t, s - (x // y) * t


def converse_class(mat, cert):
    """The isotropic c that the converse in the curve_search docstring
    builds from the certificate (a, b): a primitive isotropic class of
    span(a, b) with a partner d in the span, (Mc).d = 0 and
    (M^T c).d = +-1."""
    a, b = cert.a, cert.b
    (p, q), (r, s) = cert.restricted_form
    # an isotropic (x, y) of p x^2 + (q + r) x y + s y^2, whose
    # discriminant is 1: y = 0 when p = 0, else x / y = (1 - q - r) / 2p
    x, y = (1, 0) if p == 0 else (1 - q - r, 2 * p)
    g = gcd(x, y)
    x, y = x // g, y // g
    t, u = _bezout(x, y)  # c = x a + y b and d = -u a + t b span it
    c = tuple(x * i + y * j for i, j in zip(a, b))
    d = tuple(-u * i + t * j for i, j in zip(a, b))
    dmc = bilinear(d, mat, c)
    assert bilinear(c, mat, c) == 0 and (dmc == 0 or bilinear(c, mat, d) == 0)
    if dmc:
        return tuple(i - bilinear(d, mat, d) * dmc * j for i, j in zip(d, c))
    return c


def constructed(mat, bound, expected):
    """The constructor's certificate at bound, which verify_certificate
    accepts.  When the box found expected, the converse class of expected
    has a partner, and the constructor finds a certificate if the class's
    enumerated coordinates are within bound."""
    cert = find_genus1_certificate(mat, bound)
    assert cert is None or verify_certificate(mat, cert), mat
    if expected is not None:
        mat = as_matrix(mat)
        c = converse_class(mat, expected)
        assert curve_search._partners(mat)(c) is not None
        k = curve_search._solved_coordinate(mat)
        height = max((abs(v) for i, v in enumerate(c) if i != k), default=0)
        assert cert is not None or height > bound, mat
    return cert


def test_search_matches_naive_double_loop():
    # the box oracle returns the naive loop's certificate, and the
    # constructor finds one wherever they do
    rng = random.Random(41)
    for _ in range(20):
        mat = _random_seifert_like(rng)
        slow = naive_double_loop(mat, 2)
        assert box_certificate(mat, 2) == slow
        constructed(mat, 2, slow)
    # odd dimensions: dim 1 splits into an empty and a one-coordinate half,
    # and intersects every pair in 0
    for mat in ([[1]], [[0]]):
        assert box_certificate(mat, 2) is None
        assert find_genus1_certificate(mat, 2) is None
    # dim 0: the empty box scans no a-vector
    assert box_certificate([], 3) is None
    assert find_genus1_certificate([], 3) is None
    # small entries in dim 5 leave a certificate, large ones often none
    verdicts = []
    for dim, r in [(1, 2), (1, 9), (5, 2), (5, 2), (5, 9), (5, 9), (5, 9)]:
        mat = [[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)]
        slow = naive_double_loop(mat, 1)
        assert box_certificate(mat, 1) == slow, mat
        constructed(mat, 1, slow)
        verdicts.append(slow is not None)
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
    monkeypatch.setattr(box_search, "_CACHE", {})


def test_split_box_passes_the_full_box_pairs(full_box_cases, monkeypatch):
    # same certificate, a-vectors scanned, and pairs passed by each filter,
    # with the memo cleared before each case, then warm with its own hits
    for mat, bound, expected in full_box_cases:
        monkeypatch.setattr(box_search, "_CACHE", {})
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
    assert sorted(box_search._CACHE) == [(4, 4), (5, 4)]
    assert all(len(box.memo) == 1 for box in box_search._CACHE.values())
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
        box = box_search._CACHE[bound, len(mat)]
        keys = len(box.memo)
        blocks = {key: list(stored) for key, stored in box.memo.items()}
        assert _search(mat, bound) == full_box_search(mat, bound), mat
        assert len(box.memo) == keys
        for key, stored in blocks.items():  # extended, never recomputed
            assert len(box.memo[key]) >= len(stored)
            assert all(x is y for x, y in zip(stored, box.memo[key]))


def test_memo_cap(full_box_cases, empty_cache, monkeypatch):
    # past the cap blocks are computed and not stored; results do not change
    monkeypatch.setattr(box_search, "MAX_STORED_HITS", 400)
    for _ in range(2):
        for mat, bound, expected in full_box_cases:
            assert _search(mat, bound) == expected, mat
            assert _stored_entries() <= 400
    assert _stored_entries() > 0
    # recounted from the stored arrays: a block of nb a-vectors holds their
    # nb hit counts, then 4 bytes, one int32 entry, per hit (two int16 row
    # indices)
    counted = 0
    step = box_search._A_BLOCK
    for box in box_search._CACHE.values():
        for blocks in box.memo.values():
            for k, block in enumerate(blocks):
                nb = len(box.arows[k * step : (k + 1) * step])
                assert block.dtype == np.int32
                assert len(block) == nb + int(block[:nb].sum())
                counted += len(block) + box_search._BLOCK_HEADER
    assert counted == _stored_entries()


def test_curve_search_time_budget():
    for cap in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="time budget must be > 0"):
            find_genus1_certificate(NO_ISOTROPIC_VECTOR, 2, cap_seconds=cap)
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        find_genus1_certificate(NO_ISOTROPIC_VECTOR, 39, cap_seconds=1e-9)
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
    # so the lex-first b lies in the half box the oracle scans
    for m, n in product(range(4), repeat=2):
        b = box_certificate(seifert_matrix(KnotParams(m, n)), 3).b
        assert next(x for x in b if x) < 0


def test_search_matches_naive_double_loop_beyond_int64():
    rng = random.Random(47)
    present = 0
    for mat, bound in _wide_entry_matrices(rng):
        slow = naive_double_loop(mat, bound)
        assert box_certificate(mat, bound) == slow
        constructed(mat, bound, slow)
        present += slow is not None
    assert present == 12


# (a, b) of the certificate the constructor finds at the default bound: the
# 121 knots of the grid m, n <= 10, then K(30,30), K(40,40) and K(60,60).
FIRST_CERTIFICATES = {
    (0, 0): ((-1, -1, 0, -2), (0, 0, 1, 0)),
    (0, 1): ((0, -1, 0, -2), (0, 0, 1, 0)),
    (0, 2): ((-1, -1, -1, -3), (-1, 0, 1, 0)),
    (0, 3): ((-1, 1, 0, -3), (-1, 0, 0, -1)),
    (0, 4): ((-1, 1, -1, 3), (2, 1, -2, 1)),
    (0, 5): ((-1, -1, 0, -3), (2, -1, -1, -2)),
    (0, 6): ((-1, -1, 1, -3), (-1, 1, 1, 2)),
    (0, 7): ((0, -1, 1, -3), (-1, 0, 1, 0)),
    (0, 8): ((-1, 2, 2, -6), (6, 1, 2, 0)),
    (0, 9): ((-2, -1, 1, 5), (2, -1, 1, 2)),
    (0, 10): ((-1, 1, 0, -4), (3, 1, 1, -1)),
    (1, 0): ((-2, -1, -2, -5), (-1, 2, 0, -1)),
    (1, 1): ((-1, -1, -1, 2), (0, 1, 0, -1)),
    (1, 2): ((-1, 1, 0, -3), (2, 1, 1, 1)),
    (1, 3): ((-2, -1, 0, -4), (2, -1, -1, 1)),
    (1, 4): ((-1, -1, 0, -3), (2, -1, -1, -1)),
    (1, 5): ((-1, -1, 1, -3), (2, -1, -1, -1)),
    (1, 6): ((0, -1, 0, -3), (3, 0, -1, -1)),
    (1, 7): ((-1, -1, -1, -4), (3, 0, 0, 2)),
    (1, 8): ((-2, 1, 0, -5), (3, 1, 1, 2)),
    (1, 9): ((-1, 1, 0, -4), (-1, 0, 0, -1)),
    (1, 10): ((-1, -2, 1, -7), (8, -1, -3, -2)),
    (2, 0): ((-1, -1, -1, -3), (0, -1, 0, -1)),
    (2, 1): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 2): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 3): ((-1, -1, 0, -3), (1, 0, 0, 1)),
    (2, 4): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 5): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 6): ((-1, -1, -1, 3), (5, -2, 1, 0)),
    (2, 7): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 8): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 9): ((-1, 0, 0, -2), (0, -1, 0, 0)),
    (2, 10): ((-1, -1, 0, -4), (3, -1, -1, -1)),
    (3, 0): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 1): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 2): ((-1, -1, 0, -3), (2, -1, -1, 1)),
    (3, 3): ((-1, -1, 1, -3), (-1, 2, 2, 2)),
    (3, 4): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 5): ((-1, -1, -1, -4), (-2, 1, 1, 0)),
    (3, 6): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 7): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 8): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (3, 9): ((-1, -1, 0, -4), (1, 0, 0, 1)),
    (3, 10): ((-1, 0, -1, -3), (0, 2, 0, -1)),
    (4, 0): ((-1, 1, -1, 3), (0, -1, 0, -1)),
    (4, 1): ((-1, -1, 0, -3), (1, -2, -1, -1)),
    (4, 2): ((-1, -1, 1, -3), (1, -1, -1, 0)),
    (4, 3): ((-2, -1, 1, -5), (-1, 0, 1, -2)),
    (4, 4): ((-2, -1, 2, -5), (1, -5, -3, -4)),
    (4, 5): ((-2, -1, -1, 5), (-2, 5, -1, -2)),
    (4, 6): ((-1, 1, 0, -4), (2, 2, 1, -1)),
    (4, 7): ((0, -1, 1, -3), (-1, 0, 1, 0)),
    (4, 8): ((-1, -1, 0, -4), (3, -1, -1, 1)),
    (4, 9): ((-2, -1, -3, 5), (2, -1, 1, -2)),
    (4, 10): ((-1, -1, 1, 5), (-3, 1, -1, 0)),
    (5, 0): ((-1, -1, 0, -3), (0, -1, 0, -1)),
    (5, 1): ((-1, -1, 1, -3), (0, 1, 1, 1)),
    (5, 2): ((-1, -2, 0, -5), (-1, 0, 1, -1)),
    (5, 3): ((-1, -1, -1, -4), (-1, 0, 0, -2)),
    (5, 4): ((-2, -1, -2, -7), (1, 0, 1, 3)),
    (5, 5): ((-1, 1, 0, -4), (-1, 0, 0, -2)),
    (5, 6): ((0, -1, 0, -3), (3, 0, -1, -1)),
    (5, 7): ((-1, -1, 0, -4), (-1, 1, 1, 1)),
    (5, 8): ((-1, -2, 0, -7), (-6, 2, 3, 2)),
    (5, 9): ((-1, -1, 1, -4), (2, -1, -1, 0)),
    (5, 10): ((-1, -2, -1, -8), (-1, 1, 1, 3)),
    (6, 0): ((-1, -1, 1, -3), (0, -1, 0, -1)),
    (6, 1): ((0, -1, 0, -2), (0, 0, 1, 0)),
    (6, 2): ((-1, -1, -1, 3), (0, 1, 0, -1)),
    (6, 3): ((-2, -1, 0, -6), (0, 2, 1, 2)),
    (6, 4): ((-1, 1, 0, -4), (2, 2, 1, 1)),
    (6, 5): ((-2, 1, -2, 6), (2, 4, -1, 1)),
    (6, 6): ((-1, -1, 0, -4), (2, -2, -1, -1)),
    (6, 7): ((0, -1, 1, -3), (-1, 0, 1, 0)),
    (6, 8): ((-1, -1, 1, 5), (-6, 3, -2, 1)),
    (6, 9): ((-2, -1, -1, -7), (3, -4, -1, 0)),
    (6, 10): ((-1, 1, 2, -4), (-4, -2, -1, -2)),
    (7, 0): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 1): ((-1, -1, -1, -4), (0, -1, 0, -1)),
    (7, 2): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 3): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 4): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 5): ((-1, -1, 0, -4), (-1, 1, 1, 0)),
    (7, 6): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 7): ((-1, -1, 1, -4), (-2, 3, 2, 3)),
    (7, 8): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (7, 9): ((-1, -1, -1, -5), (-1, 0, 0, -2)),
    (7, 10): ((-1, 0, 0, -3), (0, -1, 0, 0)),
    (8, 0): ((-1, -1, -1, 3), (0, 2, 0, -1)),
    (8, 1): ((0, -1, 0, -2), (0, 0, 1, 0)),
    (8, 2): ((-1, 1, 0, -4), (1, 3, 1, -1)),
    (8, 3): ((-1, 2, 0, -6), (0, -1, 0, 2)),
    (8, 4): ((-1, -1, 0, -4), (2, -2, -1, 1)),
    (8, 5): ((-2, -1, -2, -8), (-2, 8, 1, 2)),
    (8, 6): ((-1, -1, 1, 5), (-6, 4, -2, 3)),
    (8, 7): ((0, -1, 1, -3), (-1, 0, 1, 0)),
    (8, 8): ((-2, -1, 0, -7), (1, -3, -1, -2)),
    (8, 9): ((-2, 1, -1, 7), (-1, -1, 0, 1)),
    (8, 10): ((-1, -1, -2, -6), (-3, 3, 1, 2)),
    (9, 0): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 1): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 2): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 3): ((-1, -1, 0, -4), (-1, 1, 1, -1)),
    (9, 4): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 5): ((-1, -1, 1, -4), (2, -3, -2, -1)),
    (9, 6): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 7): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 8): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 9): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (9, 10): ((-1, 0, -1, -4), (0, 3, 0, -1)),
    (10, 0): ((-1, 1, 0, -4), (1, 3, 1, 1)),
    (10, 1): ((0, -1, 0, -2), (0, 0, 1, 0)),
    (10, 2): ((-1, -1, 0, -4), (1, -3, -1, -1)),
    (10, 3): ((-2, 1, 1, -7), (3, 8, 3, 4)),
    (10, 4): ((-1, -1, 1, 5), (3, -3, 1, -2)),
    (10, 5): ((-2, -1, 1, -7), (3, -10, -5, -2)),
    (10, 6): ((-1, -1, -1, -5), (-3, 4, 1, 0)),
    (10, 7): ((0, -1, 1, -3), (-1, 0, 1, 0)),
    (10, 8): ((-2, 1, 2, -7), (-5, -9, -4, -4)),
    (10, 9): ((-1, 1, 0, -5), (2, 3, 1, -2)),
    (10, 10): ((0, -1, -2, -5), (-1, 0, 1, 1)),
    (30, 30): ((-1, -1, 0, -8), (4, -4, -1, -1)),
    (40, 40): ((-1, 2, -2, -16), (-17, -9, -1, 3)),
    (60, 60): ((-3, -1, 2, 26), (-18, 48, -9, 8)),
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


def test_box_and_constructor_agree_on_the_grid():
    # at the default bound both find a certificate for every knot of the
    # 11 x 11 grid
    for m, n in product(range(11), repeat=2):
        k = KnotParams(m, n)
        mat, bound = seifert_matrix(k), default_search_bound(k)
        assert constructed(mat, bound, box_certificate(mat, bound)) is not None, (m, n)


def _small_matrices(rng, count):
    """Seeded square matrices of dim 2-5 with entries up to 1-9, and the
    bound of the box oracle for each."""
    cases = []
    for _ in range(count):
        dim = rng.choice((2, 3, 4, 5))
        r = rng.choice((1, 2, 3, 5, 9))
        mat = [[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)]
        cases.append((mat, 2 if dim < 4 else 1))
    return cases


def test_constructor_finds_wherever_the_box_does():
    # at the same bound, but for the few box certificates whose converse
    # class lies above it; and beyond the box, with c_k or d outside it
    verdicts = {}
    for mat, bound in _small_matrices(random.Random(5), 400):
        expected = box_certificate(mat, bound)
        cert = constructed(mat, bound, expected)
        key = (expected is not None, cert is not None)
        verdicts[key] = verdicts.get(key, 0) + 1
    # (box found, constructor found): one box certificate of the 195 has its
    # converse class above the bound, and the constructor finds none there
    assert verdicts == {(False, False): 182, (False, True): 23, (True, False): 1, (True, True): 194}


def test_every_knot_up_to_30_has_a_certificate_within_the_default_bound():
    largest = 0
    for m, n in product(range(31), repeat=2):
        k = KnotParams(m, n)
        bound = default_search_bound(k)
        cert = constructed(seifert_matrix(k), bound, None)
        assert cert is not None and max(map(abs, cert.a[:3])) <= bound, (m, n)
        largest = max(largest, *map(abs, cert.b))
    # the reduction of d modulo the common kernel keeps it short
    assert largest == 36


def test_a_definite_form_has_no_certificate(monkeypatch):
    # no c is isotropic, so None is exact: no shell is entered, at the
    # largest bound the size guard admits
    def no_shell(k, h):
        raise AssertionError("a shell was entered")

    monkeypatch.setattr(curve_search, "_shell", no_shell)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    negative = [[-3, 1, 0], [-1, -2, 0], [0, 0, -1]]  # M + M^T = diag(-6, -4, -2)
    for mat in (identity, negative, [[1]], [[2, 5], [-5, 1]]):
        assert find_genus1_certificate(mat, 39) is None
    monkeypatch.undo()
    for mat in (identity, negative, [[1]], [[2, 5], [-5, 1]]):
        assert box_certificate(mat, 2) is None


def test_degenerate_sizes_and_zero_diagonals():
    # 0x0: nothing to enumerate; 1x1: definite, or zero with M - M^T = 0
    assert find_genus1_certificate([], 1) is None
    for x in (-2, 0, 5):
        assert find_genus1_certificate([[x]], 3) is None
    # a zero diagonal has no coordinate to solve for: every one is
    # enumerated, and every e_i is isotropic
    cert = constructed([[0, 1], [0, 0]], 1, box_certificate([[0, 1], [0, 0]], 1))
    assert (cert.a, cert.b) == ((-1, 0), (0, -1))
    assert find_genus1_certificate([[0, 1], [1, 0]], 3) is None  # symmetric
    rng = random.Random(67)
    found = 0
    for dim in (2, 3, 4) * 10:
        mat = [[0 if i == j else rng.randint(-2, 2) for j in range(dim)] for i in range(dim)]
        found += constructed(mat, 1, box_certificate(mat, 1)) is not None
    assert 0 < found < 30


def test_shells_enumerate_every_vector_once_in_lex_order():
    for k, h in product(range(4), range(4)):
        box = product(range(-h, h + 1), repeat=k)
        assert list(curve_search._shell(k, h)) == [v for v in box if max(map(abs, v), default=0) == h]


def test_k286_287_runs():
    # the box guard of the search the constructor replaced refused its
    # default bound, 19 (see test_box_guard)
    k = KnotParams(286, 287)
    assert default_search_bound(k) == 19
    cert = constructed(seifert_matrix(k), 19, None)
    assert (cert.a, cert.b) == ((-2, 1, 0, -38), (8, 15, 1, 7))


REFERENCE_CERTIFICATES = Path(__file__).parent / "reference" / "certificates_m30_n30.txt"


def certificate_lines(m_max, n_max):
    """One line per K(m,n), m <= m_max and n <= n_max, at the default
    bound: the certificate as `knot curve` prints it, then the search's log
    record without its time (the bound, the verdict, the shells entered and
    the isotropic c tried)."""
    handler = logging.Handler()
    records = []
    handler.emit = records.append
    logger = logging.getLogger("knotgenus.curve_search")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    lines = []
    try:
        for m, n in product(range(m_max + 1), range(n_max + 1)):
            k = KnotParams(m, n)
            cert = find_genus1_certificate(seifert_matrix(k), default_search_bound(k))
            record = records.pop()
            counts = record.msg.rsplit(", ", 1)[0] % record.args[:-1]
            lines.append(f"K({m},{n}): {pipeline.format_certificate(cert)} ; {counts}\n")
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return lines


def test_certificates_up_to_30_match_the_reference():
    # every certificate, shell count and isotropic c count of the 31 x 31
    # grid, byte for byte; the reference was written by certificate_lines
    # before the discriminant form and the partner pre-test, which change
    # only the cost of each candidate
    assert "".join(certificate_lines(30, 30)) == REFERENCE_CERTIFICATES.read_text()


def partner_by_column_operations(mat, c):
    """The partner of c as the constructor built it without the pre-test:
    both column reductions, then None unless M^T c is +-1 on the vector
    the second one leaves."""
    units = [tuple(int(i == j) for j in range(len(mat))) for i in range(len(mat))]
    g, first, rest = curve_search._split(units, mat_vec(mat, c))
    kernel = rest if g else [first, *rest]
    g, d, common = curve_search._split(kernel, mat_vec(transpose(mat), c))
    if abs(g) != 1:
        return None
    return tuple(g * x for x in curve_search._babai(d, curve_search._pair_reduced(common)))


def _partner_cases(rng):
    """Seeded (kind, M, c) of dim 2-5: the primitive isotropic c that the
    constructor tries in its first shells, any c, c with Mc = 0 (M made to
    kill it), and c with Mc parallel to M^T c (M symmetric, antisymmetric,
    or made to have M^T c = 0)."""
    for _ in range(300):
        dim = rng.choice((2, 3, 4, 5))
        r = rng.choice((1, 2, 3, 5, 9))
        mat = as_matrix([[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)])
        k = curve_search._solved_coordinate(mat)
        complete = curve_search._completions(mat, k)
        tried = [c for h in range(3) for u in curve_search._shell(dim if k is None else dim - 1, h)
                 for c in complete(u) if gcd(*c) == 1]
        for c in tried[:5]:
            yield "isotropic", mat, c
        c = tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (rng.choice((-1, 1)),)
        yield "any", mat, c
        # the last column makes Mc = 0, as c's last entry is +-1
        killed = [row[:-1] + (-c[-1] * dot(row[:-1], c[:-1]),) for row in mat]
        yield "Mc = 0", as_matrix(killed), c
        yield "M^T c = 0", transpose(as_matrix(killed)), c
        sym = [[mat[i][j] + mat[j][i] for j in range(dim)] for i in range(dim)]
        yield "Mc = M^T c", as_matrix(sym), c
        yield "Mc = -M^T c", antisymmetrize(mat), c


def test_the_partner_pre_test_is_exact():
    # the pre-test answers None exactly where the column operations end
    # with |g| != 1, so every partner is the one they build
    outcomes = {}
    for kind, mat, c in _partner_cases(random.Random(37)):
        d = curve_search._partners(mat)(c)
        assert d == partner_by_column_operations(mat, c), (kind, mat, c)
        u, v = mat_vec(mat, c), mat_vec(transpose(mat), c)
        assert d is None or (dot(u, d), dot(v, d)) == (0, 1), (kind, mat, c)
        outcomes[kind, d is not None] = outcomes.get((kind, d is not None), 0) + 1
    # each kind has c with a partner and c without one, but where Mc and
    # M^T c are parallel and not both 0: then (Mc).d = 0 forces (M^T c).d = 0
    kinds = ("isotropic", "any", "Mc = 0", "M^T c = 0", "Mc = M^T c", "Mc = -M^T c")
    assert {kind for kind, found in outcomes if found} == {"isotropic", "any", "Mc = 0"}
    assert {kind for kind, found in outcomes if not found} == set(kinds)
    assert outcomes["isotropic", True] >= 100 and outcomes["isotropic", False] >= 100


def test_the_discriminant_form_is_that_of_the_quadratic_in_c_k():
    # for every coordinate k that can be solved for, the form built once
    # per search equals b^2 - 4a uM'u, b and M' read from M directly
    rng = random.Random(71)
    checked = 0
    for _ in range(200):
        dim = rng.choice((2, 3, 4, 5))
        r = rng.choice((1, 3, 9, 10**20))
        mat = as_matrix([[rng.randint(-r, r) for _ in range(dim)] for _ in range(dim)])
        for k in (k for k in range(dim) if mat[k][k]):
            lin, terms = curve_search._discriminant(mat, k)
            assert len(terms) <= dim * (dim - 1) // 2
            others = [i for i in range(dim) if i != k]
            for _ in range(5):
                u = [rng.randint(-4, 4) for _ in others]
                b = sum((mat[k][i] + mat[i][k]) * x for i, x in zip(others, u))
                umu = sum(x * mat[i][j] * y for i, x in zip(others, u) for j, y in zip(others, u))
                assert dot(lin, u) == b
                assert sum(t * u[i] * u[j] for t, i, j in terms) == b * b - 4 * mat[k][k] * umu
                checked += 1
    assert checked > 2000
