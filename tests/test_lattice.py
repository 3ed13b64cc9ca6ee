import logging
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, groupby, product
from math import isqrt
from pathlib import Path

import pytest

from knotgenus import lattice, matrices
from knotgenus.lattice import (
    MAX_WITNESS_ENTRIES,
    Embedding,
    SearchBudgetExceeded,
    _dense,
    _EmbedSearch,
    _hasse_invariant,
    _hilbert_symbol,
    _local_obstructions,
    _square_partitions,
    contract_chain,
    find_embedding,
    format_embedding,
    min_embedding_dim,
    verify_embedding,
)
from knotgenus.matrices import GramLattice
from knotgenus.two_bridge import KnotParams, path_gram, plumbing_weights, qmn_gram


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def a_chain(n):
    return GramLattice(
        [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    )


def vectors_of_norm(d, dim):
    maxe = isqrt(d)
    return [
        v
        for v in product(range(-maxe, maxe + 1), repeat=dim)
        if sum(x * x for x in v) == d
    ]


def naive_find_embedding(g: GramLattice, dim):
    """Unpruned reference search over all norm-correct vectors."""
    r = g.rank
    cands = [vectors_of_norm(g.gram[i][i], dim) for i in range(r)]

    def rec(i, chosen):
        if i == r:
            return list(chosen)
        for v in cands[i]:
            if all(dot(v, chosen[j]) == g.gram[i][j] for j in range(i)):
                chosen.append(v)
                out = rec(i + 1, chosen)
                chosen.pop()
                if out:
                    return out
        return None

    out = rec(0, [])
    return Embedding(out, dim) if out else None


def test_is_positive_definite():
    # GramLattice refuses a matrix that is not positive definite
    assert GramLattice([[1, 0], [0, 1]]).rank == 2
    assert qmn_gram(KnotParams(0, 0)).rank == 8
    with pytest.raises(ValueError, match="leading principal minor 2 is -5$"):
        GramLattice([[2, 3], [3, 2]])
    assert GramLattice(()).rank == 0


def test_a2_embeds_in_z3():
    g = a_chain(2)
    assert find_embedding(g, 2) is None
    e = find_embedding(g, 3)
    assert e is not None
    assert verify_embedding(g, e)


def test_find_embedding_validates_input():
    with pytest.raises(ValueError, match="positive definite"):
        find_embedding(GramLattice([[2, 3], [3, 2]]), 4)
    with pytest.raises(ValueError):
        find_embedding(a_chain(2), 0)
    # the witness would hold rank x dimension entries: refused before allocating
    with pytest.raises(ValueError, match="embedding too large"):
        find_embedding(a_chain(2), MAX_WITNESS_ENTRIES // 2 + 1)
    # a rank-0 witness holds no entry, and the search allocates nothing per coordinate
    assert find_embedding(GramLattice(()), 10**8).vectors == ()


def test_q00_claim_dims():
    g = qmn_gram(KnotParams(0, 0))
    assert find_embedding(g, 10) is None
    e = find_embedding(g, 11)
    assert e is not None
    assert verify_embedding(g, e)


def test_verify_embedding():
    g = a_chain(2)
    assert verify_embedding(g, Embedding([(1, -1, 0), (0, 1, -1)], 3))
    assert not verify_embedding(GramLattice([[2]]), Embedding([(1, 0)], 2))
    with pytest.raises(ValueError):
        verify_embedding(g, Embedding([(1, -1, 0)], 3))


def test_min_embedding_dim_norm3():
    assert min_embedding_dim(GramLattice([[3]]), cap=5) == 3


def test_min_embedding_dim_refuses_a_cap_below_the_rank():
    with pytest.raises(ValueError, match="cap must be at least the rank"):
        min_embedding_dim(a_chain(3), cap=2)


def e8_gram():
    """E8: the path 0-1-...-6 with weight 2 at every vertex, and vertex 7
    joined to vertex 2.  It lies in no Z^n."""
    edges = [(i, i + 1) for i in range(6)] + [(2, 7)]
    gram = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return GramLattice(gram)


def test_min_embedding_dim_refuses_an_oversized_cap_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("find_embedding called")

    monkeypatch.setattr(lattice, "find_embedding", no_search)
    e8 = e8_gram()
    refused = [(e8, 100_000_000), (e8, MAX_WITNESS_ENTRIES // 8 + 1), (GramLattice([[2]]), 10**9)]
    for g, cap in refused:
        with pytest.raises(ValueError, match="embedding too large"):
            min_embedding_dim(g, cap=cap)
    monkeypatch.undo()
    # a cap at the limit is accepted: [[2]] answers at once
    assert min_embedding_dim(GramLattice([[2]]), cap=MAX_WITNESS_ENTRIES) == 2


def test_min_embedding_dim_of_the_rank_0_lattice_is_1():
    # dimensions start at 1, where find_embedding finds the empty witness
    assert min_embedding_dim(GramLattice([])) == 1
    assert min_embedding_dim(GramLattice([]), cap=1) == 1


def test_min_embedding_dim_a_chains():
    # n = 3 is the rank-3 chain isomorphic to the even sublattice of Z^3,
    # which embeds at dimension 3 (e1-e2, e2-e3, -e1-e2); all other n <= 6
    # need n+1.  Verified against the unpruned enumerator below.
    expected = {1: 2, 2: 3, 3: 3, 4: 5, 5: 6, 6: 7}
    for n, want in expected.items():
        assert min_embedding_dim(a_chain(n), cap=n + 3) == want


def test_a3_exception_confirmed_by_naive_search():
    g = a_chain(3)
    e = naive_find_embedding(g, 3)
    assert e is not None
    assert verify_embedding(g, e)


def test_min_embedding_dim_desk_scale():
    for (m, n), extra in [
        ((0, 0), 3),
        ((0, 1), 3),
        ((1, 0), 4),
    ]:
        g = qmn_gram(KnotParams(m, n))
        assert min_embedding_dim(g, cap=g.rank + 6) == g.rank + extra


def test_min_embedding_dim_checks_positive_definiteness_once(monkeypatch):
    # once when the lattice is built, not again for each dimension searched
    calls = []
    real = matrices.leading_principal_minors

    def counted(m, *args):
        calls.append(len(m))
        return real(m, *args)

    for module in (matrices, lattice):
        monkeypatch.setattr(module, "leading_principal_minors", counted, raising=False)
    assert min_embedding_dim(qmn_gram(KnotParams(3, 3))) == 24
    assert calls == [20]


def test_monotone_in_ambient_dim():
    rng = random.Random(47)
    for _ in range(30):
        r = rng.randint(1, 3)
        g = _random_pd_gram(rng, r)
        if g is None:
            continue
        for dim in range(r, r + 3):
            if find_embedding(g, dim) is not None:
                assert find_embedding(g, dim + 1) is not None


def _random_pd_gram(rng, r):
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        rows[i][i] = rng.randint(1, 3)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randint(-2, 3)
    try:
        return GramLattice(rows)
    except ValueError:  # not positive definite
        return None


def test_exhaustiveness_against_naive_enumeration():
    rng = random.Random(53)
    checked = 0
    while checked < 150:
        r = rng.randint(1, 3)
        g = _random_pd_gram(rng, r)
        if g is None:
            continue
        for dim in range(1, 6):
            fast = find_embedding(g, dim)
            slow = naive_find_embedding(g, dim)
            assert (fast is None) == (slow is None), (g.gram, dim)
            if fast is not None:
                assert verify_embedding(g, fast)
            checked += 1


def test_returned_witnesses_always_verify():
    for m in range(2):
        for n in range(2):
            g = qmn_gram(KnotParams(m, n))
            dim = g.rank + (3 if m == 0 else 4)
            e = find_embedding(g, dim)
            assert e is not None and verify_embedding(g, e)


def test_budget_raises():
    g = qmn_gram(KnotParams(1, 1))
    with pytest.raises(SearchBudgetExceeded):
        find_embedding(g, g.rank + 4, max_nodes=3)


def test_square_partitions_against_brute_force():
    # every non-increasing tuple of values 1..max_part whose squares sum to
    # n, of length <= max_len, in descending lex order
    for n, max_part, max_len in product(range(30), range(1, 6), range(8)):
        expected = sorted(
            (
                tuple(sorted(parts, reverse=True))
                for k in range(max_len + 1)
                for parts in combinations_with_replacement(range(1, max_part + 1), k)
                if sum(v * v for v in parts) == n
            ),
            reverse=True,
        )
        assert list(_square_partitions(n, max_part, max_len)) == expected, (n, max_part, max_len)


def test_budget_stops_a_node_with_many_fresh_parts(monkeypatch):
    # 200 has 27,482 partitions into squares; a search that listed them all
    # before reading its budget would build every one at the first node
    square_partitions = lattice._square_partitions
    yielded = []

    def counted(n, max_part, max_len):
        for part in square_partitions(n, max_part, max_len):
            yielded.append(n)
            yield part

    # the recursion goes through the wrapper too, so count the parts of 200
    monkeypatch.setattr(lattice, "_square_partitions", counted)
    with pytest.raises(SearchBudgetExceeded):
        find_embedding(GramLattice(((200,),)), 200, max_nodes=1)
    assert 1 <= yielded.count(200) <= 2


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"cap_seconds": float("nan")}, "time budget must be > 0"),
        ({"cap_seconds": 0}, "time budget must be > 0"),
        ({"cap_seconds": -1}, "time budget must be > 0"),
        ({"max_nodes": 0}, "node budget must be >= 1"),
    ],
)
def test_search_budget_rules_are_checked_by_the_search(budget, message):
    g = a_chain(2)
    with pytest.raises(ValueError, match=message):
        find_embedding(g, 3, **budget)
    with pytest.raises(ValueError, match=message):
        min_embedding_dim(g, **budget)


def test_format_embedding():
    e = Embedding([(1, -1, 0), (0, 1, -1)], 3)
    assert format_embedding(e) == "1 -1 0\n0 1 -1\n"
    # trailing, inner and all-zero runs print as one str per entry would
    rows = [(0,), (0, 0, 0), (2, 0, 0, -3, 0, 0, 0), (0, 0, 5), (-1,) * 3, (0, 4, 0, 0)]
    for row in rows:
        e = Embedding([row], len(row))
        assert format_embedding(e) == " ".join(str(x) for x in row) + "\n"


def test_embedding_refuses_a_vector_of_the_wrong_length():
    for vectors in ([(1, 0, 0)], [(1, 0), (0, 1, 0)], [(1, 0), ()]):
        with pytest.raises(ValueError, match="all vectors must have length ambient_dim"):
            Embedding(vectors, 2)


def test_embedding_refuses_a_negative_dimension():
    for dim in (-1, -5):
        with pytest.raises(ValueError, match="ambient dimension must be >= 0"):
            Embedding((), dim)
    # the rank-0 lattice's embedding into Z^0
    assert verify_embedding(GramLattice(()), Embedding((), 0))


def test_embedding_holds_a_tuple_of_ints_without_copying():
    wide = (1, -1) + (0,) * 1000
    e = Embedding([wide, list(wide[::-1])], len(wide))
    assert e.vectors[0] is wide
    assert e.vectors[1] == wide[::-1]
    # entries that are not ints are still converted
    e = Embedding([(True, 0), [False, 2]], 2)
    assert e.vectors == ((1, 0), (0, 2))
    assert all(type(x) is int for v in e.vectors for x in v)


def dense_candidates(gram, ambient_dim, assigned, i, used):
    """The earlier candidate generator, kept as the reference for the
    canonical order: it rebuilds every placed vector's suffix norms, checks
    every placed vector at every coordinate, and quotients only by the
    first use of fresh coordinates, not by the classes of used ones."""
    d = gram[i][i]
    max_entry = isqrt(d)
    assigned = [list(v) + [0] * (ambient_dim - len(v)) for v in assigned]
    suffix = [[0] * (used + 1) for _ in range(i)]
    for j in range(i):
        acc = 0
        for c in range(used - 1, -1, -1):
            acc += assigned[j][c] * assigned[j][c]
            suffix[j][c] = acc
    out = []
    x = [0] * used

    def rec(c, norm_left, needs):
        if c == used:
            if any(needs):
                return
            for part in _square_partitions(norm_left, max_entry, ambient_dim - used):
                out.append((tuple(x), part))
            return
        for val in range(-max_entry, max_entry + 1):
            sq = val * val
            if sq > norm_left:
                continue
            nleft = norm_left - sq
            nxt = []
            for j in range(i):
                r = needs[j] - val * assigned[j][c]
                if r * r > nleft * suffix[j][c + 1]:
                    break
                nxt.append(r)
            else:
                x[c] = val
                rec(c + 1, nleft, nxt)
                x[c] = 0

    rec(0, d, [gram[i][j] for j in range(i)])
    return out


def column_keys(assigned, used):
    """The entries of the placed vectors on each used coordinate: two used
    coordinates are interchangeable iff their keys are equal."""
    return [tuple(v[c] if c < len(v) else 0 for v in assigned) for c in range(used)]


def class_links(assigned, used):
    """The classes of interchangeable used coordinates, from the placed
    vectors alone: per coordinate c < used, the previous coordinate of c's
    class, or -1."""
    same, last = [-1] * used, {}
    for c, key in enumerate(column_keys(assigned, used)):
        same[c] = last.get(key, -1)
        last[key] = c
    return same


def canonical_candidates(gram, ambient_dim, assigned, i, used):
    """dense_candidates, less every candidate whose head decreases along a
    class of interchangeable used coordinates."""
    same = class_links(assigned, used)
    return [
        (head, part)
        for head, part in dense_candidates(gram, ambient_dim, assigned, i, used)
        if all(s < 0 or head[s] <= head[c] for c, s in enumerate(same))
    ]


def placed(search):
    """The search's placed vectors, as dense vectors of its dimension."""
    return [_dense(entries, search.M) for entries in search.assigned]


def jump_targets(assigned):
    """Per placed vector, the first coordinate of any placed vector's
    support that meets its own, from the placed vectors alone."""
    supports = [{c for c, e in enumerate(v) if e} for v in assigned]
    return [min(min(t) for t in supports if t & s) for s in supports]


def sparse(head):
    """A dense head's nonzero entries (c, value), as the search lists them."""
    return tuple((c, e) for c, e in enumerate(head) if e)


class _CheckedSearch(_EmbedSearch):
    """The search, with every node's candidate list compared to the
    reference, and with it the walk's start, which the node derives from
    the coordinate index; every node's classes, which it derives from the
    index on the coordinates it walks, compared to the ones the placed
    vectors give; and every pop checked to leave the placed vectors and the
    index as they were before the matching push."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.saved = []

    def _classes(self, start, used):
        super()._classes(start, used)
        assert self.same[start + 1 : used] == class_links(placed(self), used)[start + 1 :]

    def _candidates(self, i, used):
        assigned = placed(self)
        got = list(super()._candidates(i, used))
        assert all(head == sparse(_dense(head, used)) for head, _ in got)
        dense_got = [(_dense(head, used), part) for head, part in got]
        assert dense_got == canonical_candidates(self.g.gram, self.M, assigned, i, used)
        return got

    def _push(self, head, fresh, used):
        self.saved.append((self.assigned[:], [col[:] for col in self.touching]))
        super()._push(head, fresh, used)

    def _pop(self):
        super()._pop()
        assert (self.assigned, self.touching) == self.saved.pop()


def _checked_run(gram, dim):
    search = _CheckedSearch(gram, dim)
    found = search.run()
    plain = _EmbedSearch(gram, dim)
    assert plain.run() == found and plain.nodes == search.nodes
    return search.nodes


class _ReferenceSearch(_EmbedSearch):
    """The search without the class rule: its candidates are the unpruned
    dense_candidates, quotiented only by the first use of fresh coordinates."""

    def _candidates(self, i, used):
        return [
            (sparse(head), part)
            for head, part in dense_candidates(self.g.gram, self.M, placed(self), i, used)
        ]


def _against_reference(gram, dim, max_nodes=None):
    """The verdict and first witness of the search equal the reference's,
    in no more nodes.  Raises SearchBudgetExceeded when the reference
    needs more than max_nodes."""
    reference = _ReferenceSearch(gram, dim, max_nodes=max_nodes)
    expected = reference.run()
    search = _EmbedSearch(gram, dim)
    assert search.run() == expected
    assert search.nodes <= reference.nodes
    return expected


def _random_gram(rng, r):
    """A Gram of {-1,0,1} vectors, a PD-checked one with diagonal <= 5, or a
    signed plumbing with weights 2-4; None if not positive definite."""
    kind = rng.randrange(3)
    if kind == 0:
        # Gram of random vectors: embeddable, so witness paths are covered
        k = rng.randint(r, r + 2)
        vs = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(r)]
        rows = [[dot(u, v) for v in vs] for u in vs]
    elif kind == 1:
        rows = [[0] * r for _ in range(r)]
        for a in range(r):
            rows[a][a] = rng.randint(1, 5)
            for b in range(a):
                rows[a][b] = rows[b][a] = rng.randint(-2, 2)
    else:
        return _signed_plumbing(rng, [rng.randint(2, 4) for _ in range(r)])
    try:
        return GramLattice(rows)
    except ValueError:  # not positive definite
        return None


def _signed_plumbing(rng, weights):
    signs = [rng.choice((1, -1)) for _ in weights]
    base = path_gram(weights).gram
    return GramLattice(
        [[signs[i] * signs[j] * base[i][j] for j in range(len(base))] for i in range(len(base))]
    )


def test_search_matches_the_reference_without_the_class_rule():
    # 300 lattices of rank 1-6, each at dimensions rank..rank+3; a search
    # the reference cannot finish in 2,000 nodes is left out, to bound the
    # test's time, and such searches must stay rare
    rng = random.Random(79)
    lattices = over_budget = 0
    verdicts = {True: 0, False: 0}
    while lattices < 300:
        r = rng.randint(1, 6)
        g = _random_gram(rng, r)
        if g is None:
            continue
        for dim in range(r, r + 4):
            try:
                verdicts[_against_reference(g.gram, dim, max_nodes=2000) is not None] += 1
            except SearchBudgetExceeded:
                over_budget += 1
        lattices += 1
    assert over_budget <= 12
    # both verdicts are well covered
    assert min(verdicts.values()) > 300


def _plumbing_catalogue():
    """The benchmark's plumbing catalogue (seed 2015, ranks 6-8) with
    seeded basis signs."""
    catalogue, rng = random.Random(2015), random.Random(83)
    for rank in (6,) * 14 + (7,) * 13 + (8,) * 13:
        yield _signed_plumbing(rng, [catalogue.randint(2, 4) for _ in range(rank)])


def test_search_matches_the_reference_on_the_plumbing_catalogue():
    # at every dimension from the rank to the minimal one
    for g in _plumbing_catalogue():
        dim = g.rank
        while _against_reference(g.gram, dim) is None:
            dim += 1
        assert dim == min_embedding_dim(g)


def _prime_factors(n):
    """Every prime dividing the nonzero int n, by trial division."""
    n, primes, q = abs(n), [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] * (n > 1)


def test_hilbert_symbol_values_from_serre():
    # Serre, A Course in Arithmetic, III.1: (-1, -1) is -1 at 2 only, (p,
    # p)_p = (-1/p), and a unit and p give the Legendre symbol of the unit
    values = {
        (-1, -1, 2): -1, (-1, -1, 3): 1, (-1, -1, 5): 1, (2, -1, 2): 1, (2, 2, 2): 1,
        (-1, 3, 2): -1, (2, 3, 2): -1, (2, 5, 2): -1, (3, 5, 2): 1, (3, 7, 2): -1,
        (3, 3, 3): -1, (5, 5, 5): 1, (7, 7, 7): -1, (2, 3, 3): -1, (5, 3, 3): -1,
        (7, 3, 3): 1, (2, 5, 5): -1, (2, 7, 7): 1, (3, 7, 7): -1, (12, 7, 3): 1,
    }
    for (a, b, p), symbol in values.items():
        assert _hilbert_symbol(a, b, p) == symbol == _hilbert_symbol(b, a, p), (a, b, p)


def test_hilbert_symbols_satisfy_the_product_formula():
    # prod over all places of (a, b)_v is 1, the real place giving -1 iff a
    # and b are both negative; and (a, -a) = (a, 1 - a) = 1
    rng = random.Random(97)
    for _ in range(400):
        a, b = (rng.choice((1, -1)) * rng.randint(1, 3000) for _ in range(2))
        product = -1 if a < 0 and b < 0 else 1
        for p in {2, *_prime_factors(a), *_prime_factors(b)}:
            product *= _hilbert_symbol(a, b, p)
            assert _hilbert_symbol(a, -a, p) == 1
            if a != 1:
                assert _hilbert_symbol(a, 1 - a, p) == 1
        assert product == 1, (a, b)


def _leading_minors(g):
    return tuple(matrices.det([row[:i] for row in g.gram[:i]]) for i in range(1, g.rank + 1))


def _square_mod(u, m):
    return any((y * y - u) % m == 0 for y in range(m))


def _pairwise_hasse(minors, p):
    """eps_p = prod_(i<j) (a_i, a_j)_p of <a_1, ..., a_r>, with a_i = d_i
    d_(i-1), the square class of d_i / d_(i-1)."""
    ds = (1, *minors)
    a = [ds[i] * ds[i - 1] for i in range(1, len(ds))]
    eps = 1
    for j in range(len(a)):
        for i in range(j):
            eps *= _hilbert_symbol(a[i], a[j], p)
    return eps


def _reference_obstructions(minors):
    """_local_obstructions from _pairwise_hasse at every prime of 2 d_1 ...
    d_r, with -d a square in Q_p by Hensel: an even valuation and a unit
    that is a square mod p, or mod 8 at 2."""
    d = minors[-1]
    failing = []
    for p in sorted({2, *(q for x in minors for q in _prime_factors(x))}):
        if _pairwise_hasse(minors, p) * _hilbert_symbol(d, -1, p) < 0:
            v, u = 0, -d
            while u % p == 0:
                u, v = u // p, v + 1
            failing.append((p, v % 2 == 0 and _square_mod(u, 8 if p == 2 else p)))
    first = [f"at p = {p}" for p, _ in failing] + [None]
    hyperbolic = [f"at p = {p}" for p, square in failing if square] + [None]
    at_rank = first[0] if isqrt(d) ** 2 == d else f"determinant {d} is not a square"
    return at_rank, first[0], hyperbolic[0]


def test_the_local_test_matches_its_definition_on_small_lattices():
    # the kept minors are the leading minors; eps_p telescopes to the
    # product of (d_(j-1), -d_j)_p; and the primes and j the test reads
    # lose nothing against every prime and every pair i < j
    rng = random.Random(101)
    fired = lattices = 0
    while lattices < 300:
        g = _random_gram(rng, rng.randint(1, 6))
        if g is None:
            continue
        lattices += 1
        assert g._minors == _leading_minors(g)
        for p in {2, 3, 5, 7, *(q for x in g._minors for q in _prime_factors(x))}:
            telescoped = _hasse_invariant((1, *g._minors), p, range(2, g.rank + 1))
            assert telescoped == _pairwise_hasse(g._minors, p)
        reasons = _local_obstructions(g._minors)
        assert reasons == _reference_obstructions(g._minors), g.gram
        fired += sum(r is not None for r in reasons)
    assert fired > 300


def test_a_prime_found_in_one_minor_is_read_in_every_minor():
    # trial division finds 1031 in d_1 but cannot split d_3 = 3 * 1031 *
    # 1033 (no factor below 1024 past the 3, a cofactor above 2^20); the
    # factor (d_2, -d_3)_1031 = (14/1031) = -1 of j = 3 must still be read,
    # else c_1031 reads -1 and rank + 1 is ruled out wrongly
    minors = (1031, 14, 3 * 1031 * 1033)
    assert _local_obstructions(minors) == _reference_obstructions(minors)
    assert _local_obstructions(minors)[1:] == (None, None)
    # seeded minors with one or two primes above the trial bound each; a
    # minor with two cannot be split, and each such prime is also alone in
    # some other minor, where trial division finds it
    rng = random.Random(107)
    large = (1031, 1033, 1039, 1049, 1051, 2003)
    cases = hidden = 0
    while cases < 400:
        factors = [
            (rng.randint(1, 30), rng.choice((1, *large)), rng.choice((1, 1, *large)))
            for _ in range(rng.randint(2, 5))
        ]
        alone = {a * b for _, a, b in factors if min(a, b) == 1}
        paired = {p for _, a, b in factors if min(a, b) > 1 for p in (a, b)}
        if not paired <= alone:
            continue
        cases += 1
        hidden += bool(paired)
        minors = tuple(s * a * b for s, a, b in factors)
        assert _local_obstructions(minors) == _reference_obstructions(minors), minors
    assert hidden > 50


def test_every_local_obstruction_is_absent_by_the_reference_search():
    # the local test only proves absence: each dimension it rules out is
    # one the reference search, without the class rule, finds empty; one
    # the reference cannot finish in 2,000 nodes is left out, rarely
    rng = random.Random(103)
    lattices = checked = over_budget = 0
    while lattices < 300:
        g = _random_gram(rng, rng.randint(1, 6))
        if g is None:
            continue
        lattices += 1
        for k, reason in enumerate(_local_obstructions(g._minors)):
            if reason is None:
                continue
            try:
                absent = _ReferenceSearch(g.gram, g.rank + k, max_nodes=2000).run() is None
            except SearchBudgetExceeded:
                over_budget += 1
                continue
            assert absent, (g.gram, k, reason)
            checked += 1
    assert checked > 300 and over_budget <= 10


def test_a_huge_determinant_is_named_by_its_size():
    # str() refuses an int of more than 4,300 digits, and such a
    # determinant takes a diagonal lattice of two entries
    huge = GramLattice([[3 * 10**2500, 0], [0, 7 * 10**2500]])
    assert _local_obstructions(huge._minors)[0] == (
        f"determinant of {(21 * 10**5000).bit_length()} bits is not a square"
    )
    assert _local_obstructions(GramLattice([[3, 1], [1, 5]])._minors)[0] == (
        "determinant 14 is not a square"
    )


def test_min_embedding_dim_answers_alike_without_the_local_test(monkeypatch):
    cases = list(_plumbing_catalogue()) + [a_chain(n) for n in range(1, 7)]
    cases += [qmn_gram(KnotParams(m, n)) for m, n in product(range(4), repeat=2)]
    with_test = [min_embedding_dim(g) for g in cases]
    monkeypatch.setattr(lattice, "_local_obstructions", lambda minors: (None, None, None))
    assert [min_embedding_dim(g) for g in cases] == with_test


def test_the_local_test_reads_each_prime_only_where_it_divides(monkeypatch):
    # at an odd p only the j with p dividing d_(j-1) or d_j, at 2 every j:
    # a few symbols per basis vector on Q(1000,0), whose 2,008 minors have
    # hundreds of odd primes
    calls = []

    def counted(a, b, p):
        calls.append(p)
        return _hilbert_symbol(a, b, p)

    monkeypatch.setattr(lattice, "_hilbert_symbol", counted)
    g = qmn_gram(KnotParams(1000, 0))
    reasons = _local_obstructions(g._minors)
    assert reasons == ("determinant 56107 is not a square", "at p = 2", None)
    assert len(set(calls)) > 300 and len(calls) < 6 * g.rank


def test_candidate_order_matches_dense_reference():
    rng = random.Random(61)
    nodes = 0
    cases = 0
    while cases < 250:
        g = _random_gram(rng, rng.randint(1, 5))
        if g is None:
            continue
        for dim in range(1, 8):
            nodes += _checked_run(g.gram, dim)
        cases += 1
    assert nodes > 1000


def test_candidate_order_matches_dense_reference_on_signed_plumbings():
    rng = random.Random(67)
    for _ in range(16):
        g = _signed_plumbing(rng, [rng.randint(2, 4) for _ in range(rng.randint(2, 7))])
        for dim in range(g.rank, g.rank + 4):
            _checked_run(g.gram, dim)


def _direct_sum(a, b):
    """The Gram matrix of the orthogonal sum of two lattices."""
    n = len(a)
    return tuple(tuple(row) + (0,) * len(b) for row in a) + tuple(
        (0,) * n + tuple(row) for row in b
    )


class _JumpCases(_CheckedSearch):
    """_CheckedSearch that counts, from the placed vectors alone, the nodes
    where each case of the walk's jump arises:

    - no_residual: norm 2 and no nonzero residual, and a candidate nonzero
      on a used coordinate, which a jump past it would lose;
    - early_target: norm <= 2 and a residual vector whose jump target is
      the first used coordinate, on a norm-3 vector that meets it, before
      every residual vector's own support, and a candidate that starts
      before those supports;
    - class_skip: a candidate rejected by the class rule only at a 0 that a
      jump made after a nonzero value would skip: the norm left after that
      value is at most 2, a residual is nonzero, and every nonzero residual
      vector's target lies past the 0."""

    def __init__(self, *args, counts, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = counts

    def _candidates(self, i, used):
        got = super()._candidates(i, used)
        g = self.g.gram
        d = g[i][i]
        assigned = placed(self)
        supports = [{c for c, e in enumerate(v) if e} for v in assigned]
        firsts = [min(s) for s in supports]
        targets = jump_targets(assigned)
        residual = [j for j in range(i) if g[i][j]]
        starts = [head[0][0] for head, _ in got if head]
        if d == 2 and not residual and starts:
            self.counts["no_residual"] += 1
        if d <= 2 and residual:
            own = min(firsts[j] for j in residual)
            reach = [k for k in range(i) if any(supports[k] & supports[j] for j in residual)]
            if (
                min(targets[j] for j in residual) == 0 < own
                and any(g[k][k] == 3 and 0 in supports[k] for k in reach)
                and min(starts, default=own) < own
            ):
                self.counts["early_target"] += 1
        same = class_links(assigned, used)
        for head, _ in dense_candidates(g, self.M, assigned, i, used):
            zeros = [z for z in range(used) if not head[z] and same[z] >= 0 and head[same[z]] > 0]
            if not zeros or any(head[c] < head[s] for c, s in enumerate(same) if s >= 0 and head[c]):
                continue
            z = zeros[0]
            before = [c for c in range(z) if head[c]]
            left = d - sum(head[c] ** 2 for c in before)
            owed = [
                j for j in range(i) if g[i][j] != sum(head[c] * assigned[j][c] for c in before)
            ]
            if 0 < left <= 2 and owed and min(targets[j] for j in owed) > z:
                self.counts["class_skip"] += 1
                break
        return got


def _plumbing_sums():
    """Seeded orthogonal sums of two signed plumbings: the second summand's
    first vector owes nothing to the first summand's, and norm-3 and norm-4
    vectors give early targets and classes of several coordinates."""
    rng = random.Random(109)
    for _ in range(60):
        a = _signed_plumbing(rng, [rng.randint(2, 4) for _ in range(rng.randint(1, 4))])
        b = _signed_plumbing(rng, [rng.randint(2, 3) for _ in range(rng.randint(1, 3))])
        yield _direct_sum(a.gram, b.gram)


def test_jump_cases_match_the_reference():
    counts = Counter()
    for gram in _plumbing_sums():
        for dim in range(len(gram), len(gram) + 3):
            search = _JumpCases(gram, dim, counts=counts)
            plain = _EmbedSearch(gram, dim)
            assert search.run() == plain.run() and search.nodes == plain.nodes
    # each case really occurs
    assert counts == {"no_residual": 102, "early_target": 8, "class_skip": 5}


class _RunCheck(_EmbedSearch):
    """The search, checking at every node that each class of
    interchangeable used coordinates, from the placed vectors alone, is a
    run of consecutive coordinates, and counting the coordinates linked to
    the one before them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.linked = 0

    def _candidates(self, i, used):
        same = class_links(placed(self), used)
        assert all(s in (-1, c - 1) for c, s in enumerate(same))
        self.linked += sum(s >= 0 for s in same)
        return super()._candidates(i, used)


def test_every_class_is_a_run():
    # the search derives each coordinate's class from its neighbour alone,
    # which is exact only if every class is a run
    cases = [(g, range(g.rank, min_embedding_dim(g) + 1)) for g in _plumbing_catalogue()]
    cases += [(gram, range(len(gram), len(gram) + 3)) for gram in _plumbing_sums()]
    linked = 0
    for gram, dims in cases:
        for dim in dims:
            search = _RunCheck(gram, dim)
            search.run()
            linked += search.linked
    # classes of several coordinates are common
    assert linked > 2000


class _FreshOnlySearch(_EmbedSearch):
    """The search with every used coordinate in a class of its own:
    quotiented only by the first use of fresh coordinates."""

    def _classes(self, start, used):
        self.same[start + 1 : used] = [-1] * (used - start - 1)


# (m, n, nodes of the fresh-only search, nodes of the search); a case's id
# is m-n-(fresh-only nodes)
OBSTRUCTIONS = [
    (0, 0, 36, 14), (1, 0, 32, 12), (0, 1, 48, 18), (3, 7, 96, 30), (5, 5, 88, 30),
    (10, 10, 148, 50), (20, 20, 268, 90), (60, 60, 748, 250), (240, 0, 988, 490),
    (120, 115, 1428, 480),
]


@pytest.mark.parametrize(
    "m, n, fresh_only, nodes",
    [pytest.param(*case, id="-".join(map(str, case[:3]))) for case in OBSTRUCTIONS],
)
def test_obstruction_node_counts(m, n, fresh_only, nodes):
    # Q(m,n) has no embedding at rank + 2; the node counts pin the search
    # order, with and without the classes of interchangeable coordinates
    g = qmn_gram(KnotParams(m, n))
    search = _EmbedSearch(g.gram, g.rank + 2)
    assert search.run() is None
    assert search.nodes == nodes
    reference = _FreshOnlySearch(g.gram, g.rank + 2)
    assert reference.run() is None
    assert reference.nodes == fresh_only


def _searches(caplog, run):
    """run()'s result, and the embedding searches it logged, each without
    its time: rank, dimension, verdict and nodes."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="knotgenus.lattice"):
        result = run()
    return result, [r.getMessage().rsplit(", ", 1)[0] for r in caplog.records]


def test_path_and_dense_lattices_search_alike(caplog):
    # Q(m,n) from its weights (sparse rows) and from its dense matrix give
    # the same verdicts, witnesses and node counts
    for m, n in product(range(6), repeat=2):
        weights = plumbing_weights(KnotParams(m, n))
        r = len(weights)
        dense = [
            [weights[i] if i == j else -(abs(i - j) == 1) for j in range(r)] for i in range(r)
        ]
        from_path, from_dense = qmn_gram(KnotParams(m, n)), GramLattice(dense)
        for run in (
            lambda g: find_embedding(g, g.rank + 2),
            lambda g: find_embedding(g, g.rank + (3 if m == 0 else 4)),
        ):
            path_result, path_searches = _searches(caplog, lambda: run(from_path))
            assert _searches(caplog, lambda: run(from_dense)) == (path_result, path_searches)
            assert path_searches
            assert all(s.startswith(f"embedding search: rank {r}, ") for s in path_searches)
        # min_embedding_dim logs each dimension from the rank up once, those
        # the local test rules out first and then the searches
        found, records = _searches(caplog, lambda: min_embedding_dim(from_path))
        assert _searches(caplog, lambda: min_embedding_dim(from_dense)) == (found, records)
        reasons = _local_obstructions(from_path._minors)
        ruled_out = [k < len(reasons) and reasons[k] is not None for k in range(found - r + 1)]
        assert ruled_out == sorted(ruled_out, reverse=True) and not ruled_out[-1]
        assert len(records) == len(ruled_out)
        for k, (s, out) in enumerate(zip(records, ruled_out)):
            if out:
                assert s == f"local obstruction: rank {r}, dim {r + k}"
            else:
                assert s.startswith(f"embedding search: rank {r}, dim {r + k}, ")
        assert records[-1].startswith(f"embedding search: rank {r}, dim {found}, found, ")
        assert path_result is not None and verify_embedding(from_path, path_result)
        assert verify_embedding(from_dense, path_result)


def test_search_depth_not_bound_by_recursion_limit():
    # both run at the interpreter's default limit of 1000 frames, which a
    # search recursing per basis vector and per coordinate exceeds
    g = qmn_gram(KnotParams(250, 0))
    assert _EmbedSearch(g.gram, g.rank + 2).run() is None
    # the identity of rank 1100, searched directly; the canonical witness is
    # the identity itself.  Building its GramLattice runs the
    # positive-definiteness check, which defers the rescaling of every row
    # that is zero in the pivot column: O(n^2) on the identity, not O(n^3)
    n = 1100
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    search = _EmbedSearch(identity, n)
    witness = search.run()
    assert witness == tuple(map(tuple, identity))
    assert verify_embedding(GramLattice(identity), Embedding(witness, n))
    assert search.nodes == n + 1


def dense_verify_embedding(g: GramLattice, e: Embedding) -> bool:
    """Reference: every pairwise dot product over all coordinates."""
    vs = e.vectors
    return all(dot(vs[i], vs[j]) == g.gram[i][j] for i in range(g.rank) for j in range(i + 1))


def test_verify_embedding_rejects_every_unit_change():
    # the first ten lattices of the benchmark's plumbing catalogue (seed 2015,
    # rank 6) with seeded basis signs; changing one entry x by +-1 changes
    # that vector's norm by 2x +- 1, never by 0
    catalogue, rng = random.Random(2015), random.Random(71)
    for _ in range(10):
        g = _signed_plumbing(rng, [catalogue.randint(2, 4) for _ in range(6)])
        dim = min_embedding_dim(g)
        e = find_embedding(g, dim)
        assert verify_embedding(g, e) and dense_verify_embedding(g, e)
        vs = e.vectors
        for i, c, step in product(range(g.rank), range(dim), (1, -1)):
            v = list(vs[i])
            v[c] += step
            bad = Embedding(vs[:i] + (tuple(v),) + vs[i + 1 :], dim)
            assert not verify_embedding(g, bad)
            assert not dense_verify_embedding(g, bad)


def test_find_embedding_logs_one_info_record(caplog):
    g = qmn_gram(KnotParams(0, 0))
    with caplog.at_level(logging.INFO, logger="knotgenus.lattice"):
        assert find_embedding(g, 10) is None
        assert find_embedding(g, 11) is not None
    records = [r for r in caplog.records if r.name == "knotgenus.lattice"]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    assert "rank 8, dim 10, absent, 14 nodes" in records[0].getMessage()
    assert "rank 8, dim 11, found" in records[1].getMessage()


def unit_vector_run(search):
    """A stand-in for _EmbedSearch.run that "finds" the first rank unit
    vectors of Z^M, whose dot products match no Gram matrix but the
    identity's."""
    return tuple(tuple(int(i == j) for j in range(search.M)) for i in range(search.rank))


@pytest.fixture
def searches_built(monkeypatch):
    """An empty memo, and the list of (rank, dimension) of every
    _EmbedSearch that find_embedding builds from here on."""
    monkeypatch.setattr(lattice, "_last_search", None)
    built = []

    class Counted(_EmbedSearch):
        def __init__(self, g, ambient_dim, **budget):
            built.append((g.rank, ambient_dim))
            super().__init__(g, ambient_dim, **budget)

    monkeypatch.setattr(lattice, "_EmbedSearch", Counted)
    return built


def test_a_repeated_search_is_answered_from_the_memo(searches_built, caplog):
    g = qmn_gram(KnotParams(0, 0))
    found = find_embedding(g, 11)
    # an equal lattice built anew, as full_report builds one per knot
    again = find_embedding(GramLattice(g.gram), 11)
    assert again == found and again is not found
    assert verify_embedding(g, again)
    with caplog.at_level(logging.INFO, logger="knotgenus.lattice"):
        assert find_embedding(g, 10) is None
        assert find_embedding(g, 10) is None
    assert searches_built == [(8, 11), (8, 10)]
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0].startswith("embedding search: rank 8, dim 10, absent, 14 nodes, ")
    assert messages[0].endswith(" s")
    assert messages[1] == "embedding search: rank 8, dim 10, absent, 14 nodes, memo"


def test_a_memo_hit_keeps_the_budgets_of_the_search(searches_built, monkeypatch):
    g = qmn_gram(KnotParams(0, 0))
    with pytest.raises(SearchBudgetExceeded, match="^node budget exceeded at 14$"):
        find_embedding(g, 10, max_nodes=13)
    assert find_embedding(g, 10, max_nodes=14) is None
    # the search ran once: the hit raises the message the search raised
    with pytest.raises(SearchBudgetExceeded, match="^node budget exceeded at 14$"):
        find_embedding(g, 10, max_nodes=13)
    with pytest.raises(SearchBudgetExceeded, match="^node budget exceeded at 2$"):
        find_embedding(g, 10, max_nodes=1)
    # an expired deadline stops a hit, as it stops a search at its first node
    with monkeypatch.context() as expired:
        expired.setattr(lattice, "search_deadline", lambda seconds: time.monotonic() - 1)
        with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
            find_embedding(g, 10, cap_seconds=1)
    assert find_embedding(g, 10) is None
    assert searches_built == [(8, 10), (8, 10)]


def test_a_stopped_search_is_not_remembered(searches_built, monkeypatch):
    g, a2 = qmn_gram(KnotParams(0, 0)), a_chain(2)
    with pytest.raises(SearchBudgetExceeded):
        find_embedding(g, 10, max_nodes=13)
    assert lattice._last_search is None
    assert find_embedding(a2, 3) is not None
    remembered = lattice._last_search
    with pytest.raises(SearchBudgetExceeded):
        find_embedding(g, 10, max_nodes=13)
    monkeypatch.setattr(lattice, "search_deadline", lambda seconds: time.monotonic() - 1)
    with pytest.raises(SearchBudgetExceeded, match="time budget exceeded"):
        find_embedding(g, 10, cap_seconds=1)
    assert lattice._last_search is remembered
    assert searches_built == [(8, 10), (2, 3), (8, 10), (8, 10)]


def test_a_rejected_witness_is_not_remembered(searches_built, monkeypatch):
    # a found witness is checked once, before it is remembered, and a hit
    # returns it unchecked; one that verify_embedding rejects raises and is
    # not remembered, so an equal call searches, and raises, again
    g = qmn_gram(KnotParams(0, 0))
    checked = []

    def recording(g, e):
        checked.append(e.ambient_dim)
        return verify_embedding(g, e)

    monkeypatch.setattr(lattice, "verify_embedding", recording)
    assert find_embedding(g, 11) == find_embedding(g, 11)
    assert find_embedding(g, 10) is None
    assert checked == [11]
    remembered = lattice._last_search

    monkeypatch.setattr(_EmbedSearch, "run", unit_vector_run)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="^embedding search returned an invalid witness$"):
            find_embedding(g, 11)
        assert lattice._last_search is remembered
    assert checked == [11, 11, 11]
    assert searches_built == [(8, 11), (8, 10), (8, 11), (8, 11)]


def test_the_memo_keeps_the_last_search_by_rows_and_dimension(searches_built):
    g = qmn_gram(KnotParams(0, 0))
    chain = a_chain(8)
    assert find_embedding(g, 10) is None
    # equal rows in another dimension, and another lattice of that rank in
    # the same dimension, both miss
    assert find_embedding(g, 11) is not None
    assert find_embedding(chain, 11) is not None
    # only the last search is kept: Q(0,0) at 10 and 11 are searched again
    assert find_embedding(g, 10) is None
    assert find_embedding(g, 11) is not None
    assert find_embedding(g, 11) is not None
    assert searches_built == [(8, 10), (8, 11), (8, 11), (8, 10), (8, 11)]
    # min_embedding_dim's last search is the one a caller repeats for its
    # witness
    searches_built.clear()
    assert min_embedding_dim(chain) == 9
    assert verify_embedding(chain, find_embedding(chain, 9))
    assert searches_built == [(8, 8), (8, 9)]


def test_the_memo_holds_under_python_O(tmp_path):
    # python -O strips assert statements, in the library and in these tests
    # alike; this script checks by exiting, so -O keeps its checks
    script = """
import sys
from knotgenus import lattice
from knotgenus.lattice import SearchBudgetExceeded, find_embedding
from knotgenus.two_bridge import KnotParams, qmn_gram

def check(ok, what):
    if not ok:
        sys.exit(what)

built = []
class Counted(lattice._EmbedSearch):
    def __init__(self, g, ambient_dim, **budget):
        built.append(ambient_dim)
        super().__init__(g, ambient_dim, **budget)
lattice._EmbedSearch = Counted

def stopped(dim, **budget):
    try:
        find_embedding(g, dim, **budget)
    except SearchBudgetExceeded as exc:
        return str(exc)

g = qmn_gram(KnotParams(0, 0))
check(sys.flags.optimize, "not run under -O")
check(stopped(10, max_nodes=13) == "node budget exceeded at 14", "search budget")
check(lattice._last_search is None, "a stopped search was remembered")
found = find_embedding(g, 11)
again = find_embedding(g, 11)
check(again == found and again is not found, "a hit changed the witness")
check(find_embedding(g, 10) is None and find_embedding(g, 10) is None, "absent")
check(stopped(10, max_nodes=13) == "node budget exceeded at 14", "hit budget")
check(find_embedding(g, 10, max_nodes=14) is None, "hit within its budget")
check(stopped(10, cap_seconds=1e-9) == "time budget exceeded", "hit deadline")
check(built == [10, 11, 10], f"searches built: {built}")
"""
    src = str(Path(lattice.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode:
        pytest.fail(proc.stderr)


def test_contract_chain_shortens_each_long_run_of_twos():
    assert contract_chain((2, 2, 2, 2), 5) == ((2, 2), 3)
    assert contract_chain((2,) * 7, 9) == ((2, 2, 2), 5)
    # runs of 3 or fewer 2s, and runs of other weights, stay
    assert contract_chain((2, 2, 2, 3, 3, 3, 3, 1), 9) == ((2, 2, 2, 3, 3, 3, 3, 1), 9)
    assert contract_chain((1, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2), 14) == (
        (1, 2, 2, 3, 2, 2, 2),
        8,
    )
    assert contract_chain((), 0) == ((), 0)
    with pytest.raises(TypeError):
        contract_chain((2.0, 2, 2, 2), 5)
    with pytest.raises(TypeError):
        contract_chain((2, 2, 2, 2), 5.0)


def test_contract_chain_logs_one_info_record(caplog):
    with caplog.at_level(logging.INFO, logger="knotgenus.lattice"):
        contract_chain(plumbing_weights(KnotParams(30, 30)), 130)
    assert [r.getMessage() for r in caplog.records] == [
        "chain contraction: rank 128, dim 130 -> rank 8, dim 10"
    ]


def _first_long_run(weights):
    """The index of the first vertex of the first run of >= 4 weight-2
    vertices, or None."""
    start = 0
    for w, run in groupby(weights):
        size = len(tuple(run))
        if w == 2 and size >= 4:
            return start
        start += size
    return None


def _contract_witness(weights, vectors, p):
    """The map of contract_chain's proof on the run starting at p: the
    triple u1, u2, u3 there becomes its sum, and the coordinate u1 shares
    with u2 and the one u2 shares with u3 are deleted."""
    u1, u2, u3 = vectors[p : p + 3]
    # a norm-2 vector is +-e_a +- e_b, and neighbours share one coordinate
    (b,) = {i for i, (x, y) in enumerate(zip(u1, u2)) if x and y}
    (c,) = {i for i, (x, y) in enumerate(zip(u2, u3)) if x and y}
    total = tuple(map(sum, zip(u1, u2, u3)))
    kept = [i for i in range(len(total)) if i not in (b, c)]
    vectors = vectors[:p] + [total] + vectors[p + 3 :]
    return weights[:p] + weights[p + 2 :], [tuple(v[i] for i in kept) for v in vectors]


def test_contract_chain_lemma_on_seeded_witnesses():
    # seeded path lattices of rank 4-8, weights in {1, 2, 3} with a run of
    # >= 4 2s, each at its minimal dimension N: the proof's map, applied to
    # the witness under a seeded signed permutation of the coordinates and
    # repeated until no long run is left, gives a witness of each shorter
    # lattice in two dimensions fewer, down to contract_chain's
    rng = random.Random(2007)
    lattices = steps = 0
    while lattices < 200:
        r = rng.randint(4, 8)
        size = rng.randint(4, r)
        at = rng.randint(0, r - size)
        weights = [rng.choice((1, 2, 3)) for _ in range(r)]
        weights[at : at + size] = [2] * size
        weights = tuple(weights)
        try:
            g = path_gram(weights)
        except ValueError:  # not positive definite
            continue
        dim = min_embedding_dim(g)
        assert dim is not None
        witness = find_embedding(g, dim)
        order = rng.sample(range(dim), dim)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        vectors = [tuple(s * v[c] for s, c in zip(signs, order)) for v in witness.vectors]
        small, small_dim = weights, dim
        while (p := _first_long_run(small)) is not None:
            small, vectors = _contract_witness(small, vectors, p)
            small_dim -= 2
            assert verify_embedding(path_gram(small), Embedding(vectors, small_dim))
            steps += 1
        assert contract_chain(weights, dim) == (small, small_dim)
        lattices += 1
    assert steps > lattices


def test_contract_chain_needs_weights_at_most_3():
    # a weight-4 neighbour can take the run's middle coordinates: the
    # lattice embeds in Z^5, its contraction not in Z^3
    assert find_embedding(path_gram((4, 2, 2, 2, 2)), 5) is not None
    assert find_embedding(path_gram((4, 2, 2)), 3) is None
    with pytest.raises(ValueError, match="every weight <= 3"):
        contract_chain((4, 2, 2, 2, 2), 5)
    with pytest.raises(ValueError, match="every weight <= 3"):
        contract_chain((2, 2, 2, 2, 5), 6)


def test_every_qmn_contracts_to_q00():
    # the runs of Q(m,n) have 2m + 2 and 2n + 3 vertices: Q(m,n) in
    # Z^(rank + 2) contracts to Q(0,0) in Z^10
    q00 = plumbing_weights(KnotParams(0, 0))
    for m, n in product(range(101), repeat=2):
        weights = plumbing_weights(KnotParams(m, n))
        assert contract_chain(weights, len(weights) + 2) == (q00, 10)
    assert find_embedding(path_gram(q00), 10) is None
    # the uncontracted search agrees with the contracted one
    for m, n in product(range(7), repeat=2):
        g = qmn_gram(KnotParams(m, n))
        assert find_embedding(g, g.rank + 2) is None
