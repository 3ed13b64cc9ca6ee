import logging
import random
import time
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from knotgenus import matrices, seifert
from knotgenus.lattice import SearchBudgetExceeded
from knotgenus.matrices import _bareiss_pivots, det, symmetrize
from knotgenus.seifert import (
    CurveCertificate,
    LaurentPolynomial,
    alexander,
    alexander_trivial_2x2,
    knot_determinant,
    restricted_form,
    signature,
    verify_certificate,
)
from knotgenus.two_bridge import KnotParams, knot_fraction, seifert_matrix

L = LaurentPolynomial


def _units_normal(coeffs):
    """Representative of a {exponent: coeff} polynomial up to +-t^k, made
    without the library: lowest exponent 0, lowest coefficient positive."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return {}
    lo = min(coeffs)
    sign = 1 if coeffs[lo] > 0 else -1
    return {e - lo: sign * c for e, c in coeffs.items()}


def _obeys_canonical_rule(p):
    """True iff p is zero or the representative `alexander` promises: with c
    the coefficients from the lowest to the highest exponent, symmetric in
    t, 1/t when c is a palindrome of odd length, else lowest exponent 0;
    lowest coefficient positive."""
    d = p.coeffs
    if not d:
        return True
    lo, hi = min(d), max(d)
    c = [d.get(e, 0) for e in range(lo, hi + 1)]
    symmetric = len(c) % 2 == 1 and c == c[::-1]
    return c[0] > 0 and (lo == -hi if symmetric else lo == 0)


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


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


def _det_polynomial(a, b):
    """Oracle: ascending integer coefficients of det(a + t b), n + 1 of
    them, interpolated from the n + 1 determinants at t = 0..n."""
    n = len(a)
    coeffs = [
        det(tuple(tuple(a[i][j] + t * b[i][j] for j in range(n)) for i in range(n)))
        for t in range(n + 1)
    ]
    # Newton form: on the nodes 0..n the divided differences of an integer
    # polynomial are integers, so each division by k is exact
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


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def descartes_signature(mat):
    """Second oracle, from the characteristic polynomial p(t) = det(t I - S)
    that `_det_polynomial` interpolates.  A symmetric S has only real
    eigenvalues, so Descartes' rule of signs is exact for p: the sign
    changes of p count its positive roots, and those of p(-t) its negative
    roots.  Zero roots are the trailing powers of t and change no sign."""
    n = len(mat)
    p = _det_polynomial(
        tuple(tuple(-x for x in row) for row in mat),
        tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
    )
    p_neg = [-c if e % 2 else c for e, c in enumerate(p)]
    return _sign_changes(p) - _sign_changes(p_neg)


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
        assert signature(mat) == sympy_signature(mat) == descartes_signature(mat)


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
    for _ in range(30):
        # near +-2^70 with zeros on the diagonal and off it: the 2x2 step
        # and the zero-block stop on wide integers
        size = rng.randint(2, 8)
        mat = _random_symmetric(
            rng, size, lambda: rng.choice((-1, 0, 1)) * (2**70 + rng.randint(-(2**20), 2**20))
        )
        for i in range(size):
            mat[i][i] = 0
        yield mat


def test_signature_against_sympy_oracle_special_shapes():
    assert sympy_signature([[1, 0, 0], [0, 1, 0], [0, 0, -1]]) == 1  # repeated eigenvalue
    rng = random.Random(29)
    for mat in _special_symmetric_cases(rng):
        assert signature(mat) == sympy_signature(mat) == descartes_signature(mat)


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _scrambled(mat, rng):
    """P^T mat P for P = L U, L and U unit triangular with entries in
    {-1, 0, 1}: a unimodular congruence, drawn as the seifert benchmark
    workload draws its scramble."""
    size = len(mat)
    def entry(i, j, below):
        return 1 if i == j else rng.choice((-1, 0, 1)) if (i > j) == below else 0

    lower = [[entry(i, j, True) for j in range(size)] for i in range(size)]
    upper = [[entry(i, j, False) for j in range(size)] for i in range(size)]
    p = _matmul(lower, upper)
    pt = [list(col) for col in zip(*p)]
    return tuple(map(tuple, _matmul(_matmul(pt, mat), p)))


def _signed_permuted(mat, rng):
    """P^T mat P for a signed permutation P, which keeps a zero diagonal."""
    size = len(mat)
    perm = rng.sample(range(size), size)
    signs = [rng.choice((-1, 1)) for _ in range(size)]
    return tuple(
        tuple(signs[i] * signs[j] * mat[perm[i]][perm[j]] for j in range(size))
        for i in range(size)
    )


def _block_sum(blocks):
    size = sum(len(b) for b in blocks)
    mat = [[0] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            mat[at + i][at : at + len(row)] = row
        at += len(block)
    return tuple(map(tuple, mat))


def _hyperbolic_sums(rng, big=False):
    """Signed permutations of sums of hyperbolic planes [[0, h], [h, 0]] and
    1x1 summands [c]: the planes keep a zero diagonal, so each needs the
    2x2 step, at a depth set by the summands eliminated before it.  The sum
    of the planes has signature 0."""
    for _ in range(40):
        scale = 2**70 + 1 if big else 1
        planes = [rng.choice((-3, -1, 1, 2)) * scale for _ in range(rng.randint(1, 4))]
        ones = [rng.choice((-2, -1, 1, 3)) * scale for _ in range(rng.randint(0, 4))]
        blocks = [((0, h), (h, 0)) for h in planes] + [((c,),) for c in ones]
        rng.shuffle(blocks)
        mat = _block_sum(blocks)
        yield _signed_permuted(mat, rng), sum(1 if c > 0 else -1 for c in ones)


def test_signature_needs_the_2x2_step_at_several_depths(monkeypatch):
    depths = set()
    kernel_step = matrices._symmetric_pivot

    def recording(a, at, k, prev):
        if not any(a[i][i] for i in range(k, len(a))) and any(any(row[k:]) for row in a[k:]):
            depths.add(k)
        return kernel_step(a, at, k, prev)

    monkeypatch.setattr(matrices, "_symmetric_pivot", recording)
    rng = random.Random(67)
    for big in (False, True):
        for mat, sigma in _hyperbolic_sums(rng, big):
            assert signature(mat) == sigma == descartes_signature(mat)
            if not big:
                assert sigma == sympy_signature(mat)
            # scrambled further, the diagonal fills in; the signature stays
            mixed = _scrambled(mat, rng)
            assert signature(mixed) == sigma == descartes_signature(mixed)
    assert len(depths) >= 5 and 0 in depths


def test_signature_of_a_zero_block_part_way():
    # A + 0 scrambled: the pass stops with rank A pivots, the rest count 0
    rng = random.Random(71)
    for _ in range(60):
        rank = rng.randint(1, 6)
        while True:
            a = _random_symmetric(rng, rank, lambda: rng.randint(-3, 3))
            if sympy.Matrix(a).det() != 0:
                break
        zeros = rng.randint(1, 5)
        mat = _scrambled(_block_sum([a, [[0] * zeros for _ in range(zeros)]]), rng)
        assert len(list(_bareiss_pivots(mat, "symmetric"))) == rank
        assert signature(mat) == signature(a) == descartes_signature(mat) == sympy_signature(mat)


def _scrambled_connected_sum(size, rng):
    """A scrambled Seifert matrix of a connected sum of K(m,n) and, when size
    is 2 mod 4, one genus-1 knot [[p, 1], [0, q]]; with its signature and
    determinant, from the summands."""
    blocks, sigma, determinant = [], 0, 1
    for _ in range(size // 4):
        k = KnotParams(rng.randint(0, 10), rng.randint(0, 10))
        blocks.append(seifert_matrix(k))
        sigma -= 2
        determinant *= knot_fraction(k).numerator
    if size % 4 == 2:
        p, q = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
        # [[2p, 1], [1, 2q]] has determinant 4pq - 1
        blocks.append(((p, 1), (0, q)))
        sigma += 2 * (1 if p > 0 else -1) if p * q > 0 else 0
        determinant *= abs(4 * p * q - 1)
    return _scrambled(_block_sum(blocks), rng), sigma, determinant


def test_signature_at_the_benchmark_sizes():
    rng = random.Random(79)
    for size in (10, 12, 14) * 4:
        mat, sigma, determinant = _scrambled_connected_sum(size, rng)
        sym = symmetrize(mat)
        assert signature(sym) == sigma == descartes_signature(sym)
        assert knot_determinant(mat) == determinant
        assert list(_bareiss_pivots(sym, "symmetric"))[-1] == matrices.det(sym)


def test_signature_of_a_size_120_connected_sum():
    # 30 scrambled K(m,n) summands: one cubic pass, where the n + 1
    # characteristic-polynomial determinants took 6 s already at size 80
    mat, sigma, determinant = _scrambled_connected_sum(120, random.Random(83))
    sym = symmetrize(mat)
    start = time.perf_counter()
    assert signature(sym) == sigma == -60
    assert knot_determinant(mat) == determinant
    assert time.perf_counter() - start < 10


def test_knot_determinant_examples():
    assert knot_determinant(seifert_matrix(KnotParams(0, 0))) == 107
    assert knot_determinant(seifert_matrix(KnotParams(1, 0))) == 163
    assert knot_determinant([[0, 1], [0, 0]]) == 1


def test_knot_determinant_matches_fraction_numerator():
    for m in range(6):
        for n in range(6):
            k = KnotParams(m, n)
            assert knot_determinant(seifert_matrix(k)) == knot_fraction(k).numerator


def test_alexander_time_budget():
    rng = random.Random(89)
    mat = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        alexander(mat, cap_seconds=1e-9)
    for cap in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="time budget must be > 0"):
            alexander(mat, cap_seconds=cap)
    small = seifert_matrix(KnotParams(1, 2))
    assert alexander(small, cap_seconds=60) == alexander(small)


def test_signature_and_determinant_time_budget(monkeypatch):
    rng = random.Random(97)
    mat = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    sym = symmetrize(mat)
    for invariant, arg in ((signature, sym), (knot_determinant, mat)):
        with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
            invariant(arg, cap_seconds=1e-9)
        for cap in (0, -1, float("nan")):
            with pytest.raises(ValueError, match="time budget must be > 0"):
                invariant(arg, cap_seconds=cap)
        assert invariant(arg, cap_seconds=60) == invariant(arg)
    # the budget is read once per pivot, between the elimination steps
    reads = []
    monkeypatch.setattr(matrices, "check_deadline", reads.append)
    signature(sym, cap_seconds=60)
    assert len(reads) == len(list(_bareiss_pivots(sym, "symmetric")))
    reads.clear()
    knot_determinant(mat, cap_seconds=60)
    assert len(reads) == 40


def _alexander_oracle_matrices(rng):
    """Seeded square matrices of sizes 1-12, each with its expected
    det(M - t M^T) from the n + 1 determinants of `_det_polynomial`."""
    for size in range(1, 13):
        cases = [[[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)] for _ in range(6)]
        cases.append([[rng.randint(-(2**40), 2**40) for _ in range(size)] for _ in range(size)])
        # singular: the last row repeats another
        mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        mat[-1] = list(mat[rng.randrange(size)])
        cases.append(mat)
        # rank-deficient: U V with U n x r, V r x n, r < n
        rank = rng.randrange(size)
        u = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(size)]
        v = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(rank)]
        cases.append(_matmul(u, v) if rank else [[0] * size for _ in range(size)])
        # knot-like: M - M^T unimodular at even sizes
        mat = _random_symmetric(rng, size, lambda: rng.randint(-2, 2))
        for i in range(0, size - 1, 2):
            mat[i][i + 1] += 1
        cases.append(mat)
        # vanishing identically: the zero matrix and a singular symmetric M,
        # for which det(M - t M^T) = (1 - t)^n det(M)
        cases.append([[0] * size for _ in range(size)])
        cases.append(_random_symmetric_of_lower_rank(rng, size))
        for mat in cases:
            neg_t = tuple(tuple(-x for x in col) for col in zip(*mat))
            yield mat, _det_polynomial(tuple(map(tuple, mat)), neg_t)


def test_alexander_against_the_n_plus_one_determinants():
    zeros = set()
    for mat, expected in _alexander_oracle_matrices(random.Random(101)):
        assert seifert._alexander_coefficients(matrices.as_matrix(mat), None) == expected
        got = alexander(mat)
        assert _units_normal(got.coeffs) == _units_normal(dict(enumerate(expected)))
        assert _obeys_canonical_rule(got)
        if not any(expected):
            assert got == L({})
            zeros.add(len(mat))
    assert zeros == set(range(1, 13))


def test_alexander_takes_half_the_determinants(monkeypatch):
    calls = []
    bare_det = seifert.det

    def counting(m, deadline):
        calls.append(len(m))
        return bare_det(m, deadline)

    monkeypatch.setattr(seifert, "det", counting)
    rng = random.Random(103)
    for size in range(1, 15):
        calls.clear()
        alexander([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
        assert calls == [size] * (size // 2 + 1)


def test_alexander_budget_is_read_between_pivots(monkeypatch):
    # each of the floor(n/2) + 1 determinants reads the budget after each
    # of its pivots, so a budget overruns by one elimination step at most
    rng = random.Random(107)
    size = 12
    mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    reads = []
    monkeypatch.setattr(matrices, "check_deadline", reads.append)
    assert alexander(mat, cap_seconds=60) == alexander(mat)
    assert len(reads) >= (size // 2 + 1) * size


def test_alexander_trivial_family_form():
    for n in range(6):
        assert alexander([[0, 1], [0, -n - 3]]) == L({0: 1})


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
            d = alexander(seifert_matrix(KnotParams(m, n))).coeffs
            assert max(d) - min(d) == 4
            assert all(d.get(-e) == c for e, c in d.items())
            assert abs(sum(d.values())) == 1


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
        expected = {exp: int(coeff) for (exp,), coeff in sympy.Poly(d, t).all_terms()}
        got = alexander(mat)
        assert _units_normal(got.coeffs) == _units_normal(expected)
        assert _obeys_canonical_rule(got)


def _two_bridge_signs(k):
    """(-1)^floor(i q / p) for i = 1..p-1, where p/q is the fraction of k
    with q replaced by q + p: the same 2-bridge knot, with q odd as the
    classical formulas below require."""
    f = knot_fraction(k)
    p, q = f.numerator, f.denominator + f.numerator
    assert q % 2 == 1
    return [(-1) ** (i * q // p) for i in range(1, p)]


def test_signature_matches_the_two_bridge_sum():
    # sigma = sum of the signs, read off p/q alone
    for m in range(12):
        for n in range(12):
            k = KnotParams(m, n)
            expected = sum(_two_bridge_signs(k))
            assert signature(symmetrize(seifert_matrix(k))) == expected


def test_alexander_matches_the_two_bridge_formula():
    # Hartley, Topology 22 (1983): Delta = sum_(i=0..p-1) (-1)^i t^(s_i) up
    # to +-t^k, with s_0 = 0 and s_i the partial sums of the signs
    for m in range(12):
        for n in range(12):
            k = KnotParams(m, n)
            expected, s = {0: 1}, 0
            for i, sign in enumerate(_two_bridge_signs(k), start=1):
                s += sign
                expected[s] = expected.get(s, 0) + (-1) ** i
            got = alexander(seifert_matrix(k))
            assert _units_normal(got.coeffs) == _units_normal(expected)


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
    product = {0: 1}
    for block in blocks:
        product = _poly_mul(product, alexander(block).coeffs)
    got = alexander(total)
    assert _units_normal(got.coeffs) == _units_normal(product)
    assert _obeys_canonical_rule(got)
    assert max(got.coeffs) - min(got.coeffs) == 16


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
        assert _units_normal(a1.coeffs) == _units_normal(a2.coeffs)


def test_alexander_at_minus_one_is_determinant():
    for m in range(6):
        for n in range(6):
            mat = seifert_matrix(KnotParams(m, n))
            at_minus_one = sum(-c if e % 2 else c for e, c in alexander(mat).coeffs.items())
            assert abs(at_minus_one) == knot_determinant(mat)


def test_alexander_trivial_2x2_examples():
    assert alexander_trivial_2x2([[0, 1], [0, -5]])
    assert alexander_trivial_2x2([[-1, 1], [0, 0]])
    assert not alexander_trivial_2x2([[-1, 1], [0, -1]])


def test_alexander_trivial_2x2_precondition():
    with pytest.raises(ValueError, match="not a genus-1 knot form"):
        alexander_trivial_2x2([[0, 2], [0, 1]])


def test_alexander_trivial_2x2_exhaustive_equivalence():
    span = range(-6, 7)
    for s11 in span:
        for s22 in span:
            for s12 in span:
                for s21 in (s12 - 1, s12 + 1):
                    if not (-6 <= s21 <= 6):
                        continue
                    form = [[s11, s12], [s21, s22]]
                    expected = _units_normal(alexander(form).coeffs) == {0: 1}
                    assert alexander_trivial_2x2(form) == expected


K00_A, K00_B, K00_FORM = (0, 0, 1, 0), (-1, -1, -4, -2), ((-1, 4), (5, -20))


def test_restricted_form_refuses_vectors_of_the_wrong_length():
    # zip would drop the missing or extra coordinates and give K(0,0)'s
    # certificate form for the cut vectors
    mat = seifert_matrix(KnotParams(0, 0))
    assert restricted_form(mat, K00_A, K00_B) == K00_FORM
    bad = [
        ((0, 0, 1), (-1, -1, -4, -2, 7)),
        (K00_A, (-1, -1, -4)),
        (K00_A + (0,), K00_B),
        ((), K00_B),
    ]
    for a, b in bad:
        with pytest.raises(ValueError, match="must have the size of the matrix"):
            restricted_form(mat, a, b)
        # the predicate answers False instead
        assert verify_certificate(mat, CurveCertificate(a, b, K00_FORM)) is False
    assert verify_certificate(mat, CurveCertificate(K00_A, K00_B, K00_FORM)) is True


ALEXANDER_REFERENCE = Path(__file__).parent / "reference" / "alexander_seeded.txt"


def _random_symmetric_of_lower_rank(rng, size):
    # a sum of fewer than `size` terms +-v v^T is singular, and so is
    # det(M - t M^T) = (1 - t)^size det(M) for every t
    mat = [[0] * size for _ in range(size)]
    for _ in range(rng.randint(0, size - 1)):
        v = [rng.randint(-2, 2) for _ in range(size)]
        sign = rng.choice((-1, 1))
        for i in range(size):
            for j in range(size):
                mat[i][j] += sign * v[i] * v[j]
    return mat


def _alexander_reference_matrices():
    """Seeded integer matrices of size 1-6 reaching the three branches of
    the canonical representative.  det(M - t M^T) = (-t)^n det(M - M^T / t),
    so its coefficients are palindromic for even n (a symmetric
    representative) and antipalindromic for odd n (none: shifted to t^0)."""
    rng = random.Random(41)
    for size in range(1, 7):
        for _ in range(30):
            yield [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        for _ in range(20):
            # sparse: zero ends of the coefficient list to strip
            yield [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(size)] for _ in range(size)]
        for _ in range(30):
            yield _random_symmetric_of_lower_rank(rng, size)
        if size % 2 == 0:
            for _ in range(30):
                # knot-like: a symmetric matrix plus the standard symplectic
                # upper half, so that M - M^T is unimodular
                mat = _random_symmetric(rng, size, lambda: rng.randint(-2, 2))
                for i in range(0, size, 2):
                    mat[i][i + 1] += 1
                yield mat


def _alexander_reference_text():
    return "".join(
        ";".join(",".join(map(str, row)) for row in mat) + f"\t{alexander(mat)}\n"
        for mat in _alexander_reference_matrices()
    )


def test_alexander_matches_the_seeded_reference():
    # pins every printed byte, on each branch of the canonical rule
    assert _alexander_reference_text() == ALEXANDER_REFERENCE.read_text()
    branches = set()
    for mat in _alexander_reference_matrices():
        poly = alexander(mat)
        assert _obeys_canonical_rule(poly)
        d = poly.coeffs
        if not d:
            branches.add("zero")
        elif min(d) == -max(d) and all(d.get(-e) == c for e, c in d.items()):
            branches.add("symmetric")
        else:
            branches.add("shifted to t^0")
    assert branches == {"zero", "symmetric", "shifted to t^0"}


def test_laurent_polynomial_is_a_value():
    p = L({-1: 1, 0: -1, 1: 1, 2: 0})
    assert p.coeffs == {-1: 1, 0: -1, 1: 1}
    assert str(p) == "-1:1 0:-1 1:1" and repr(p) == "LaurentPolynomial('-1:1 0:-1 1:1')"
    assert p == L({1: 1, 0: -1, -1: 1}) and hash(p) == hash(L({1: 1, 0: -1, -1: 1}))
    assert p != L({0: 1}) and not p.is_zero()
    p.coeffs[0] = 5  # a copy
    assert p.coeffs[0] == -1
    assert L({0: 0}).is_zero() and str(L({})) == "0:0"


def test_invariants_log_one_info_record_each(caplog):
    mat = seifert_matrix(KnotParams(1, 2))
    with caplog.at_level(logging.INFO, logger="knotgenus.seifert"):
        assert signature(symmetrize(mat)) == -2
        alexander(mat)
        signature(((2, 1, 0), (1, 2, 1), (0, 1, 2)))
        # a refused matrix computes nothing and logs nothing
        with pytest.raises(ValueError, match="symmetric"):
            signature(((0, 1), (0, 0)))
    records = [r for r in caplog.records if r.name == "knotgenus.seifert"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    messages = [r.getMessage() for r in records]
    assert messages[0].startswith("signature: size 4, ")
    assert messages[1].startswith("alexander: size 4, ")
    assert messages[2].startswith("signature: size 3, ")
    assert all(m.endswith(" s") for m in messages)
