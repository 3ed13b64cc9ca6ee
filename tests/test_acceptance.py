"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 9 pins the minimal embedding dimensions of known lattices.  The
rank-n chain A_n needs dimension n+1 except at n = 3: A_3 is isomorphic to
D_3, the even sublattice of Z^3, and embeds at dimension 3 (witness e1-e2,
e2-e3, -e1-e2).  Each value in its table is backed inside the test by an
explicit witness checked with verify_embedding and, for n <= 5, by the
unpruned enumerator finding nothing one dimension lower.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from knotgenus.curve_search import find_genus1_certificate
from knotgenus.lattice import (
    Embedding,
    find_embedding,
    min_embedding_dim,
    verify_embedding,
)
from knotgenus.matrices import GramLattice, det, symmetrize
from knotgenus.pipeline import default_search_bound
from knotgenus.seifert import alexander, knot_determinant, signature, verify_certificate
from knotgenus.two_bridge import (
    KnotParams,
    continued_fraction,
    knot_fraction,
    qmn_gram,
    seifert_matrix,
)
from box_search import box_certificate
from test_curve_search import constructed, naive_double_loop, _random_seifert_like
from test_lattice import a_chain, naive_find_embedding, _random_pd_gram
from test_two_bridge import cf_value


def report(name, elapsed):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_fraction_formula():
    t0 = time.monotonic()
    for m in range(11):
        for n in range(11):
            k = KnotParams(m, n)
            expected = Fraction(20 * m * n + 56 * m + 40 * n + 107, 10 * n + 28)
            assert cf_value(continued_fraction(k)) == knot_fraction(k) == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("1 fraction formula", elapsed)


def test_criterion_2_signature():
    t0 = time.monotonic()
    for m in range(11):
        for n in range(11):
            assert signature(symmetrize(seifert_matrix(KnotParams(m, n)))) == -2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("2 signature -2", elapsed)


def test_criterion_3_determinant_coherence():
    t0 = time.monotonic()
    for m in range(6):
        for n in range(6):
            k = KnotParams(m, n)
            mat = seifert_matrix(k)
            expected = 20 * m * n + 56 * m + 40 * n + 107
            assert knot_determinant(mat) == expected
            at_minus_one = sum(-c if e % 2 else c for e, c in alexander(mat).coeffs.items())
            assert abs(at_minus_one) == expected
            assert abs(det(qmn_gram(k).gram)) == expected
    assert knot_determinant(seifert_matrix(KnotParams(0, 0))) == 107
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("3 determinant coherence", elapsed)


def test_criterion_4_topological_certificates():
    t0 = time.monotonic()
    targets = [(0, 0)]
    for m in range(24):
        for n in range(24):
            if isqrt(m + 2) ** 2 == m + 2 or isqrt(n + 3) ** 2 == n + 3:
                targets.append((m, n))
    for m, n in targets:
        k = KnotParams(m, n)
        mat = seifert_matrix(k)
        cert = find_genus1_certificate(mat, default_search_bound(k))
        assert cert is not None, (m, n)
        assert verify_certificate(mat, cert)
        form = cert.restricted_form
        assert form[0][0] * form[1][1] == form[0][1] * form[1][0]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"4 certificates on {len(targets)} knots", elapsed)


def test_criterion_5_theorem_discrepancy_probe():
    t0 = time.monotonic()
    probes = []
    for m in range(13):
        for n in range(13):
            m_alt = isqrt(m + 3) ** 2 == m + 3 and isqrt(m + 2) ** 2 != m + 2
            n_alt = isqrt(n + 2) ** 2 == n + 2 and isqrt(n + 3) ** 2 != n + 3
            if m_alt or n_alt:
                probes.append((m, n, m_alt, n_alt))
    print()
    for m, n, m_alt, n_alt in probes:
        k = KnotParams(m, n)
        bound = default_search_bound(k)
        cert = find_genus1_certificate(seifert_matrix(k), bound)
        which = []
        if m_alt:
            which.append(f"m+3={m + 3} square, m+2 not")
        if n_alt:
            which.append(f"n+2={n + 2} square, n+3 not")
        status = "present" if cert is not None else "absent"
        # informational only, never a hard assertion
        print(
            f"  probe K({m},{n}) [{'; '.join(which)}]: "
            f"certificate {status} within bound {bound}"
        )
    elapsed = time.monotonic() - t0
    report(f"5 discrepancy probe over {len(probes)} knots", elapsed)


def test_criterion_6a_claim_at_k00():
    t0 = time.monotonic()
    g = qmn_gram(KnotParams(0, 0))
    assert find_embedding(g, 10) is None
    witness = find_embedding(g, 11)
    assert witness is not None and verify_embedding(g, witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("6a Q(0,0) dims 10/11", elapsed)


@pytest.mark.parametrize(
    "m,n,extra",
    [(0, 0, 3), (0, 1, 3), (0, 2, 3), (1, 0, 4), (1, 1, 4), (2, 0, 4)],
)
def test_criterion_6b_min_embedding_dims(m, n, extra):
    t0 = time.monotonic()
    g = qmn_gram(KnotParams(m, n))
    assert min_embedding_dim(g, cap=g.rank + 6) == g.rank + extra
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(f"6b mindim Q({m},{n}) = rank+{extra}", elapsed)


def chain_pattern_witness(m, n):
    """Explicit embedding of Q(m,n) into Z^(rank+3) (m=0) or Z^(rank+4)
    (m>=1), assembled from the forced unit-vector chains: e-chain, a norm-3
    bridge touching f_1, the f-chain, and the two trailing norm-3 vectors."""
    rank = 2 * m + 2 * n + 8
    n_e = 3 if m == 0 else 2 * m + 4
    n_f = 2 * n + 8
    dim = n_e + n_f
    e = lambda i: tuple(1 if c == i - 1 else 0 for c in range(dim))
    f = lambda j: tuple(1 if c == n_e + j - 1 else 0 for c in range(dim))

    def minus(v):
        return tuple(-x for x in v)

    def plus(*vs):
        return tuple(sum(col) for col in zip(*vs))

    vectors = []
    if m == 0:
        for i in range(1, 3):
            vectors.append(plus(e(i + 1), minus(e(i))))
        vectors.append(plus(e(1), e(2), minus(f(1))))
    else:
        for i in range(1, 2 * m + 3):
            vectors.append(plus(e(i), minus(e(i + 1))))
        vectors.append(plus(e(2 * m + 3), e(2 * m + 4), minus(f(1))))
    for i in range(1, 2 * n + 4):
        vectors.append(plus(f(i), minus(f(i + 1))))
    vectors.append(plus(f(2 * n + 4), f(2 * n + 5), f(2 * n + 6)))
    vectors.append(plus(minus(f(2 * n + 5)), f(2 * n + 7), f(2 * n + 8)))
    assert len(vectors) == rank
    return Embedding(vectors, dim)


def test_criterion_6c_pattern_witnesses():
    t0 = time.monotonic()
    for m, n in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 2)]:
        g = qmn_gram(KnotParams(m, n))
        w = chain_pattern_witness(m, n)
        assert w.ambient_dim == g.rank + (3 if m == 0 else 4)
        assert verify_embedding(g, w), (m, n)
    report("6c pattern witnesses", time.monotonic() - t0)


def test_criterion_7_end_to_end_cli():
    import json

    from knotgenus.cli import main

    t0 = time.monotonic()
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--m-max", "1", "--n-max", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(buf.getvalue())
    assert len(rows) == 4
    for row in rows:
        assert (row["gsm_lower"], row["gsm_upper"]) == (2, 2)
        if row["curve_certificate"] is not None:
            assert (row["gtop_lower"], row["gtop_upper"]) == (1, 1)
    assert rows[0]["curve_certificate"] is not None  # at minimum (0,0)
    report("7 end-to-end verify", time.monotonic() - t0)


def test_criterion_8_oracle_equivalence_embedding():
    t0 = time.monotonic()
    rng = random.Random(59)
    checked = 0
    while checked < 120:
        r = rng.randint(1, 3)
        g = _random_pd_gram(rng, r)
        if g is None:
            continue
        for dim in range(1, 6):
            fast = find_embedding(g, dim)
            slow = naive_find_embedding(g, dim)
            assert (fast is None) == (slow is None)
            checked += 1
    report(f"8a embedding search vs naive ({checked} cases)", time.monotonic() - t0)


def test_criterion_8_oracle_equivalence_curves():
    t0 = time.monotonic()
    rng = random.Random(61)
    for _ in range(20):
        mat = _random_seifert_like(rng)
        slow = naive_double_loop(mat, 2)
        assert box_certificate(mat, 2) == slow
        constructed(mat, 2, slow)
    report("8b curve constructor and box vs naive (20 matrices)", time.monotonic() - t0)


def a_chain_witness(n, dim):
    """e_i - e_(i+1) in Z^(n+1); for n = 3, the D_3 roots e1-e2, e2-e3,
    -e1-e2 in Z^3."""
    if n == 3 and dim == 3:
        return Embedding([(1, -1, 0), (0, 1, -1), (-1, -1, 0)], 3)
    unit = lambda i: tuple(1 if c == i else 0 for c in range(dim))
    return Embedding(
        [tuple(a - b for a, b in zip(unit(i), unit(i + 1))) for i in range(n)],
        dim,
    )


def test_criterion_9_known_lattices():
    t0 = time.monotonic()
    norm3 = GramLattice([[3]])
    assert verify_embedding(norm3, Embedding([(1, 1, 1)], 3))
    assert naive_find_embedding(norm3, 2) is None
    assert min_embedding_dim(norm3, cap=5) == 3
    # minimal ambient dimension of the rank-n chain A_n: A_n lies in Z^n only
    # if its root system lies in D_n with full rank, which happens only at
    # n = 3
    expected = {1: 2, 2: 3, 3: 3, 4: 5, 5: 6, 6: 7}
    failures = []
    for n, want in expected.items():
        g = a_chain(n)
        witness = a_chain_witness(n, want)
        assert witness.ambient_dim == want, n
        assert verify_embedding(g, witness), n
        # the unpruned check at n = 6 takes ~16 s; n = 6 rests on the
        # D_n argument above
        if n <= 5:
            assert naive_find_embedding(g, want - 1) is None, n
        got = min_embedding_dim(g, cap=n + 3)
        if got != want:
            failures.append(
                f"rank-{n} chain: min embedding dim is {got}, criterion "
                f"expects {want}"
            )
    elapsed = time.monotonic() - t0
    if failures:
        print(f"ACCEPTANCE 9 known-lattice sanity: FAIL ({elapsed:.2f}s)")
        for line in failures:
            print(f"  {line}")
    else:
        report("9 known-lattice sanity", elapsed)
    assert not failures, "; ".join(failures)
