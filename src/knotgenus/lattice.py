"""Exact embedding of positive-definite integral lattices into Z^M.

The decision procedure is a complete backtracking search: basis vectors are
assigned integer M-vectors in order, constrained by every pairwise dot
product against the vectors already placed.  Ambient symmetries (coordinate
permutations and sign flips) are quotiented by keeping, for each vector, only
the lex-first candidate of its orbit under the symmetries that fix every
vector already placed:

- Fresh coordinates enter the search in ascending index order, and the block
  of coordinates first touched by a given vector carries positive,
  non-increasing values (the unused coordinates are one class, with signs).
- Two used coordinates are interchangeable when every placed vector has the
  same entry on both.  Swapping them fixes every placed vector, so the
  candidates and their completions are closed under permutations within
  each class of interchangeable coordinates, and a candidate is kept only if
  its entries are non-decreasing along each class, in coordinate order.
  Every class is a run of consecutive coordinates: a fresh block enters as
  positive, non-increasing values, coordinates of different blocks differ
  on the vector that made one of them, and each later vector, canonical,
  is non-decreasing along a class, so it splits runs into runs.

Canonicalizing the first vector by an ambient symmetry, the second by the
stabilizer of the first, and so on, turns every embedding into one the
search enumerates, so absence results are exhaustive.  The first witness is
the one the unquotiented search finds: each of its vectors is lex-first in
its orbit, since permuting a class of the whole completion otherwise gives
an earlier one.

The search keeps its own stack, one entry per basis vector and one per
coordinate of the vector being built, so its depth is not bounded by the
interpreter's recursion limit.

The constraints are local: a Goeritz lattice is tridiagonal and its vectors
have norm 2 or 3, so each placed vector is nonzero on a few coordinates, and
a search node works only where its constraints reach.  A placed vector is
kept as its nonzero entries, pushed and popped as them, and indexed by
coordinate with its suffix norm past each one.  A node's residuals start from
the entries of its Gram row left of the diagonal, read from the lattice's
sparse rows (`GramLattice.rows`), never from a dense row.  Its walk
over the used coordinates starts at the least jump target of the vectors it
owes a dot product to, when the norm and the residuals allow it (see
_EmbedSearch._candidates); each target is derived from the coordinate index,
not stored.  At each coordinate the walk reads only the placed vectors
nonzero there.  Dense vectors are built only for a returned witness.
A node derives the class of each coordinate it walks from the index, as
classes are runs, so the placed vectors and their index are the search's
whole backtracked state: a push or a pop changes only them.

find_embedding checks every witness it finds with `verify_embedding`, the
one check of a witness, before it remembers or returns it.  It remembers the
last search that finished, by the lattice's sparse rows and the dimension,
and answers a call that repeats it without a search: `full_report` searches
Q(0,0) in Z^10 for every K(m,n), so a process runs that search once.  Such a
call logs `memo` where a search logs its time.

min_embedding_dim skips, without a search, each dimension up to rank + 2
that the lattice's local invariants over Q_p rule out (_local_obstructions);
find_embedding has no such test, so every other caller searches as asked.
"""

from __future__ import annotations

import logging
import operator
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, groupby
from math import isqrt

from .matrices import GramLattice, SearchBudgetExceeded, as_vector, check_deadline, search_deadline

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Embedding:
    """rank vectors of Z^ambient_dim, the entries and the dimension exact
    ints by the rule of `matrices.as_vector`, the dimension >= 0."""

    vectors: tuple[tuple[int, ...], ...]
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", operator.index(self.ambient_dim))
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be >= 0")
        # a tuple of ints is kept as it is, not copied: a wide witness is
        # held once
        vecs = tuple(map(tuple, self.vectors))
        vecs = tuple(v if all(type(x) is int for x in v) else as_vector(v) for v in vecs)
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.ambient_dim for v in vecs):
            raise ValueError("all vectors must have length ambient_dim")


# A search in Z^M pads each of its rank witness vectors to M entries: at
# most this many in all.
MAX_WITNESS_ENTRIES = 1 << 23


def _check_witness_entries(rank: int, ambient_dim: int) -> None:
    """Raise ValueError when a witness of rank vectors in Z^ambient_dim
    holds more than MAX_WITNESS_ENTRIES entries."""
    if rank * ambient_dim > MAX_WITNESS_ENTRIES:
        raise ValueError(
            f"embedding too large: rank {rank} in dimension {ambient_dim} "
            f"needs {rank * ambient_dim} witness entries, more than {MAX_WITNESS_ENTRIES}"
        )


def _square_partitions(n: int, max_part: int, max_len: int):
    """Partitions of n into non-increasing positive squares, as part values."""
    if n < 4:
        # 1 is the only square below 4: n ones, if they fit
        if n <= max_len:
            yield (1,) * n
        return
    if max_len == 0:
        return
    p = min(max_part, isqrt(n))
    while p >= 1:
        for rest in _square_partitions(n - p * p, p, max_len - 1):
            yield (p,) + rest
        p -= 1


def _with_fresh_parts(heads, start: int, max_part: int, max_len: int):
    """Each (values, norm left) of `heads` as its nonzero entries (c, value),
    the values read from coordinate `start` on, with each fresh part of that
    norm, in order.  A function of its own: a generator expression in
    _candidates would turn max_entry, read in its hot loop, into a cell."""
    for values, rest in heads:
        head = tuple(compress(enumerate(values, start), values))
        for part in _square_partitions(rest, max_part, max_len):
            yield head, part


class _EmbedSearch:
    def __init__(self, g, ambient_dim, max_nodes=None, deadline=None):
        # g is a GramLattice, or a Gram matrix that is checked as one
        self.g = g if isinstance(g, GramLattice) else GramLattice(g)
        self.rank = self.g.rank
        self.M = ambient_dim
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        # per basis vector i: its norm g[i][i], and (j, g[i][j]) for each
        # j < i with g[i][j] != 0, from the lattice's sparse rows
        self.norms = []
        self.rows = []
        for i, entries in enumerate(self.g.rows):
            k = 0
            while entries[k][0] < i:
                k += 1
            self.rows.append(entries[:k])
            self.norms.append(entries[k][1])
        # per placed vector: its nonzero entries (c, e) in coordinate order
        self.assigned: list[tuple[tuple[int, int], ...]] = []
        # coordinate c -> [(j, assigned[j][c], norm of assigned[j] past c)]
        # for every placed vector j that is nonzero at c, in placement order.
        # A vector of norm d enters at most d fresh coordinates, so no more
        # than the trace of the Gram matrix are ever live.
        live = min(ambient_dim, sum(self.norms))
        self.touching: list[list[tuple[int, int, int]]] = [[] for _ in range(live)]
        # the walk of _candidates: the value at each used coordinate and the
        # residual of each placed vector, both all 0 between nodes; the norm
        # left before each coordinate and its class (see _classes), written
        # before they are read
        self.same = [-1] * live
        self.x = [0] * live
        self.left = [0] * (live + 1)
        self.needs = [0] * self.rank

    def _push(self, head: tuple[tuple[int, int], ...], fresh: tuple[int, ...], used: int):
        """Place head + fresh as the next basis vector: head its nonzero
        entries (c, e) over the `used` coordinates, fresh its part from
        coordinate `used` on.  Index each entry with the vector's suffix
        norm after it; a pop undoes just that."""
        entries = head + tuple(enumerate(fresh, used))
        j = len(self.assigned)
        self.assigned.append(entries)
        touching = self.touching
        tail = 0
        for c, e in reversed(entries):
            touching[c].append((j, e, tail))
            tail += e * e

    def _pop(self):
        for c, _ in self.assigned.pop():
            self.touching[c].pop()

    def _classes(self, start: int, used: int):
        """same[c], for start < c < used where the walk reads it: c - 1 if
        the placed vectors agree on c - 1 and c, else -1 (classes are runs).
        A loop: all() over a generator would cost 15% of a search."""
        touching, same = self.touching, self.same
        for c in range(start + 1, used):
            a, b = touching[c - 1], touching[c]
            same[c] = -1
            if len(a) == len(b):
                for (j, e, _), (k, f, _) in zip(a, b):
                    if j != k or e != f:
                        break
                else:
                    same[c] = c - 1

    def _candidates(self, i: int, used: int):
        """All canonical vectors for basis index i given the current partial
        assignment: a part over the `used` live coordinates satisfying every
        dot constraint, plus leftover norm placed on fresh coordinates.  A
        part is listed as its nonzero entries (c, value); the walk keeps it
        as its values from the walk's start on until the search takes it.

        A part is canonical when its values are non-decreasing along each
        class of interchangeable coordinates: the lex-first member of its
        orbit under the permutations of the classes, which fix every placed
        vector and so map candidates and their completions to candidates and
        completions.  Values go in ascending order at each coordinate,
        starting at the value of the previous coordinate of its class
        (`same`, see _classes).  When the norm is spent at c, before the
        last used coordinate, no trailing 0 may follow a positive value of
        its class: as classes are runs, only the 0 at c can, at c - 1.

        At coordinate c only the placed vectors nonzero there (`touching[c]`)
        update their residual (`needs`, the dot product still owed, undone
        on backing up) and are checked by Cauchy-Schwarz against their
        suffix norm past c; a vector that is zero at c keeps both.  At its
        last nonzero coordinate a vector's suffix norm is 0, so the check
        forces its residual to 0 there.

        The walk jumps.  Let the norm d be at most 2, so that every entry is
        0 or +-1 and at most two are nonzero, and let R be the placed
        vectors whose residual g[i][j] is not 0.  If R is not empty, the
        first nonzero coordinate c of a candidate is on the support of a
        placed vector that meets the support of a vector of R.  Suppose not,
        and take j in R.  The candidate is nonzero somewhere on j's support,
        since fresh coordinates meet no placed vector, and c is not there;
        so its only other nonzero coordinate c' > c is on j's support.
        Every used coordinate is a fresh one of some placed vector, so some
        k is nonzero at c.  k is not in R, else c would be on k's own
        support; so k's dot product g[i][k] = 0 gets a nonzero term at c,
        which only a term at c' can cancel, and k meets j's support at c',
        a contradiction.  So c is at or after the least jump target of R,
        where the jump target of j is the least first coordinate of a placed
        vector that meets j's support (j among them).  The walk starts
        there, and the coordinates it skips are 0.  They precede every
        value, so no skipped 0 follows a positive value of its class, and
        the start, a placed vector's first coordinate, shares no class with
        the one before it.  With R empty no jump is sound: the norm may go
        on fresh coordinates alone, or on two coordinates c < c' of any
        placed vector k with k[c] x[c] = -k[c'] x[c'].  With d >= 3 a third
        nonzero coordinate may cancel k's term instead, so the walk starts
        at coordinate 0.  The node derives each target from `touching`,
        over the placed vectors nonzero on j's support, so no state keeps
        it: on Q(m,n), R holds at most one vector, whose support has 2 or 3
        coordinates.

        A walk that reaches the end of the used coordinates owes nothing.  A
        vector with a coordinate at or after the start had its residual
        forced to 0 at its last one.  Any other vector was never touched,
        and it is not in R, since a vector of R has its support at or after
        its jump target, so at or after the start.  When the norm is spent
        before the end, at c, the rest is 0.  The vectors that may
        still owe something then are those of R and those nonzero at a
        value, all placed no earlier than the vector that made the start
        coordinate (the first in `touching[start]`), so the candidate stands
        iff those owe nothing and the 0 at c keeps the class rule.

        Every prune and the jump are sound, so the candidates are exactly
        the ones an unpruned scan of the canonical parts gives, in the same
        order.  They are returned as an iterator that generates the fresh
        parts of each head only as the search takes them, so a budget
        stops a node with many fresh parts after the first."""
        d = self.norms[i]
        max_entry = isqrt(d)
        touching, same, assigned = self.touching, self.same, self.assigned
        x, left, needs = self.x, self.left, self.needs
        row = self.rows[i]
        start = used if row and d <= 2 else 0
        for j, gij in row:
            needs[j] = gij
            if start:  # j's target: the least first coordinate of a vector meeting j
                for c, _ in assigned[j]:
                    for k, _, _ in touching[c]:
                        if assigned[k][0][0] < start:
                            start = assigned[k][0][0]
        self._classes(start, used)
        heads = []  # (values from `start` on, norm left for fresh coordinates)
        left[start] = d
        c, val = start, -max_entry
        while True:
            norm_left = left[c]
            if c < used and norm_left:
                col = touching[c]
                while val <= max_entry:  # the next value at c that passes every check
                    rest = norm_left - val * val
                    if rest >= 0:
                        for j, e, tail in col:
                            r = needs[j] - val * e
                            if r * r > rest * tail:
                                break
                        else:
                            break
                    val += 1
                if val <= max_entry:
                    if val:
                        for j, e, _ in col:
                            needs[j] -= val * e
                        x[c] = val
                    left[c + 1] = rest
                    c += 1
                    val = x[s] if c < used and (s := same[c]) >= 0 else -max_entry
                    continue
            elif c == used or (
                not any(needs[touching[start][0][0] : i])
                and (same[c] < 0 or x[c - 1] <= 0)
            ):
                heads.append((tuple(x[start:c]), norm_left))
            # back up to the previous coordinate and its next value
            c -= 1
            if c < start:
                for j, _ in row:
                    needs[j] = 0
                # the heads read the search state, so they are listed now; the
                # fresh parts read none and are generated as the search asks
                return _with_fresh_parts(heads, start, max_entry, self.M - used)
            val = x[c]
            if val:
                for j, e, _ in touching[c]:
                    needs[j] += val * e
                x[c] = 0
            val += 1

    def run(self):
        # per vector being placed: its remaining candidates, live coordinates before it
        stack = []
        used = 0
        while True:
            self.nodes += 1
            if self.max_nodes is not None and self.nodes > self.max_nodes:
                raise SearchBudgetExceeded(f"node budget exceeded at {self.nodes}")
            check_deadline(self.deadline)
            i = len(stack)
            if i == self.rank:
                # the only dense vectors the search builds
                return tuple(_dense(entries, self.M) for entries in self.assigned)
            stack.append((iter(self._candidates(i, used)), used))
            # back up past exhausted vectors, lifting each parent's placed candidate
            while (nxt := next(stack[-1][0], None)) is None:
                stack.pop()
                if not stack:
                    return None
                self._pop()
            head, fresh = nxt
            used = stack[-1][1]
            self._push(head, fresh, used)
            used += len(fresh)


def _dense(entries, dim: int) -> tuple[int, ...]:
    """The vector of Z^dim with the given nonzero entries (c, e)."""
    v = [0] * dim
    for c, e in entries:
        v[c] = e
    return tuple(v)


# The last search that finished, as (g.rows, ambient_dim, its checked dense
# vectors or None, nodes), or None.  One entry, so memory stays bounded by
# one witness.
_last_search = None


def find_embedding(
    g: GramLattice,
    ambient_dim: int,
    max_nodes: int | None = None,
    cap_seconds: float | None = None,
) -> Embedding | None:
    """Complete search for an isometric embedding of g into Z^ambient_dim.

    g is positive definite: GramLattice checks that once, when it is built.
    Returns a witness iff one exists, once `verify_embedding` has accepted
    it; a witness it rejects raises RuntimeError and is not remembered.
    Raises ValueError, before allocating anything, when rank x ambient_dim
    exceeds MAX_WITNESS_ENTRIES.  Raises SearchBudgetExceeded when the
    optional budget of this one search runs out before it finishes: a
    max_nodes >= 1 node budget, or a cap_seconds > 0 wall-clock budget
    counted from the call, both read between search nodes.  A finished
    search logs one INFO record on the "knotgenus.lattice" logger with the
    rank, the dimension, the verdict, the node count and the time.
    ambient_dim and max_nodes are exact ints (TypeError otherwise, by
    operator.index).

    The last search that finished is remembered: a call with the same rows
    (`GramLattice.rows`) and dimension builds no search and returns a fresh
    Embedding of the same vectors, which were checked when found, or None.
    Its budgets act as on the search it repeats: the deadline is read once,
    as at a search's first node, and a node budget below the remembered node
    count raises the search's own "node budget exceeded at max_nodes + 1".
    A search that raises is not remembered.  Its INFO record gives `memo`
    in place of the time.
    """
    global _last_search
    ambient_dim = operator.index(ambient_dim)
    if max_nodes is not None:
        max_nodes = operator.index(max_nodes)
    if ambient_dim <= 0:
        raise ValueError("ambient dimension must be positive")
    _check_witness_entries(g.rank, ambient_dim)
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("node budget must be >= 1")
    deadline = search_deadline(cap_seconds)
    start = time.perf_counter()
    vectors, nodes = None, 0
    took = None
    if ambient_dim >= g.rank:
        last = _last_search
        if last is not None and last[1] == ambient_dim and last[0] == g.rows:
            check_deadline(deadline)
            _, _, vectors, nodes = last
            if max_nodes is not None and nodes > max_nodes:
                raise SearchBudgetExceeded(f"node budget exceeded at {max_nodes + 1}")
            took = "memo"
        else:
            search = _EmbedSearch(g, ambient_dim, max_nodes=max_nodes, deadline=deadline)
            vectors = search.run()
            nodes = search.nodes
            if vectors is not None and not verify_embedding(g, Embedding(vectors, ambient_dim)):
                raise RuntimeError("embedding search returned an invalid witness")
            _last_search = (g.rows, ambient_dim, vectors, nodes)
    log.info(
        "embedding search: rank %d, dim %d, %s, %d nodes, %s",
        g.rank,
        ambient_dim,
        "absent" if vectors is None else "found",
        nodes,
        took or f"{time.perf_counter() - start:.3f} s",
    )
    if vectors is None:
        return None
    return Embedding(vectors, ambient_dim)


def default_dim_cap(g: GramLattice) -> int:
    """min_embedding_dim's default cap: rank + 6, comfortably above the
    answers seen in practice."""
    return g.rank + 6


# Trial division for the local test finds the odd primes below this bound,
# and a cofactor below its square, which is prime.
_TRIAL_BOUND = 1 << 10


def _odd_primes(n: int) -> tuple[list[int], int]:
    """The odd primes of the positive int n that trial division by the odd
    numbers below _TRIAL_BOUND finds, with the cofactor left when it is
    below _TRIAL_BOUND^2 and so prime; and the cofactor left unfactored, 1
    when there is none, whose primes are all at least _TRIAL_BOUND."""
    n >>= (n & -n).bit_length() - 1
    primes = []
    q = 3
    while q < _TRIAL_BOUND and q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 2
    if 1 < n < _TRIAL_BOUND * _TRIAL_BOUND:
        primes.append(n)
        n = 1
    return primes, n


def _split(a: int, p: int) -> tuple[int, int]:
    """(v, u) with a = p^v u and u prime to p, for a nonzero int a."""
    if p == 2:
        v = (a & -a).bit_length() - 1
        return v, a >> v
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _hilbert_symbol(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero ints a, b at the prime p, by
    Serre, A Course in Arithmetic, III Thm 1: with a = p^alpha u and
    b = p^beta v, it is (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha
    for odd p, and (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u))
    at 2, where eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8 mod 2."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        u, v = u % 8, v % 8
        odd = (u % 4 == 3 and v % 4 == 3) + alpha * (v in (3, 5)) + beta * (u in (3, 5))
    else:
        odd = alpha * beta * (p % 4 == 3)
        if beta % 2:
            odd += pow(u, (p - 1) // 2, p) != 1
        if alpha % 2:
            odd += pow(v, (p - 1) // 2, p) != 1
    return -1 if odd % 2 else 1


def _hasse_invariant(ds, p: int, js) -> int:
    """eps_p of the form <d_1/d_0, ..., d_r/d_(r-1)>, ds = (d_0 = 1, d_1,
    ..., d_r) nonzero: the product of (d_(j-1), -d_j)_p over js, which
    holds every j >= 2 whose factor is not 1 (see _local_obstructions)."""
    eps = 1
    for j in js:
        eps *= _hilbert_symbol(ds[j - 1], -ds[j], p)
    return eps


def _local_obstructions(minors) -> tuple[str | None, str | None, str | None]:
    """For k = 0, 1, 2: why the positive-definite lattice L with these
    leading principal minors d_1 .. d_r does not embed in Z^(r + k), or
    None where its local invariants allow it.  Absence only: a None proves
    nothing.

    Proof.  Over Q, L is <a_1, ..., a_r> with a_j = d_j/d_(j-1) (d_0 = 1),
    of determinant d = d_r.  Its Hasse invariant at a prime p (Serre, A
    Course in Arithmetic, IV.2.1), eps_p = prod_(i<j) (a_i, a_j)_p,
    telescopes: the a_i with i < j multiply to d_(j-1), the symbol reads
    square classes only, and (x, x)_p = (x, -1)_p, so eps_p = prod_(j>=2)
    (d_(j-1), d_j d_(j-1))_p = prod_(j>=2) (d_(j-1), -d_j)_p.  If L embeds
    in Z^(r+k), then Q_p^(r+k) = L_p + W_p, an orthogonal sum with W_p of
    dimension k.  The unit form has determinant 1 and eps_p 1; determinants
    multiply, and eps_p(L + W) = eps_p(L) eps_p(W) (d(L), d(W))_p, so d(W)
    = d up to squares and eps_p(W) = c_p := eps_p(L) (d, -1)_p.
    - k = 0: W = 0, so d is a square, and then (d, -1)_p = 1 and c_p =
      eps_p(L) = 1.
    - k = 1: W = <d> has eps_p 1, an empty product, so c_p = 1.
    - k = 2: where -d is a square in Q_p, W has determinant -1 up to
      squares, so it represents 0 (Serre IV.2.2, Thm 6) and is a
      hyperbolic plane <a, -a>, and c_p = (a, -a)_p = 1.
    A prime p where the condition fails rules out the dimension.  For k >=
    3 every pair (d, eps) is the invariant of some form (Serre IV.2.3,
    Prop. 6), so there is nothing to test.

    Only p = 2 and odd p dividing some d_j can give c_p = -1: at an odd p
    the symbol of two units is 1.  The odd p are those `_odd_primes` finds
    in some d_j, and one it misses in every d_j only makes the test weaker.
    At an odd p the factor of j is not 1 only where p divides d_(j-1) or
    d_j, so eps_p takes only those j; at 2 it takes every j.  Each p found
    is matched against every d_j, also one where trial division left a
    cofactor it could not split, so no such j is lost.  The reason names
    the determinant when it is not a square (by its size past 10^30), else
    the least prime that fails."""
    d = minors[-1] if minors else 1
    ds = (1, *minors)
    r = len(minors)
    divides = defaultdict(set)  # odd p -> the j with p | d_j
    unfactored = []  # (j, the part of d_j that trial division left)
    for j in range(1, r + 1):
        primes, rest = _odd_primes(ds[j])
        for p in primes:
            divides[p].add(j)
        if rest > 1:
            unfactored.append((j, rest))
    # a prime found in one minor may hide in another's unfactored part,
    # which holds primes from _TRIAL_BOUND up only
    large = [p for p in divides if p >= _TRIAL_BOUND]
    for j, rest in unfactored:
        for p in large:
            if rest % p == 0:
                divides[p].add(j)
    failing = []  # (p, -d a square in Q_p) for each p with c_p = -1
    for p in (2, *sorted(divides)):
        js = range(2, r + 1)
        if p > 2:
            js = {i for j in divides[p] for i in (j, j + 1) if 2 <= i <= r}
        if _hasse_invariant(ds, p, js) * _hilbert_symbol(d, -1, p) < 0:
            v, u = _split(-d, p)
            unit_square = u % 8 == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1
            failing.append((p, v % 2 == 0 and unit_square))
    first = next((f"at p = {p}" for p, _ in failing), None)
    hyperbolic = next((f"at p = {p}" for p, square in failing if square), None)
    if isqrt(d) ** 2 != d:
        # past the interpreter's limit on int to str, a determinant is named by its size
        shown = d if d < 10**30 else f"of {d.bit_length()} bits"
        return f"determinant {shown} is not a square", first, hyperbolic
    return first, first, hyperbolic


def min_embedding_dim(
    g: GramLattice,
    cap: int | None = None,
    max_nodes: int | None = None,
    cap_seconds: float | None = None,
) -> int | None:
    """Smallest M <= cap admitting an embedding, or None.  The default cap
    is default_dim_cap(g); a cap that is not an exact int raises TypeError.
    The scan starts at the rank, and at 1 for the rank-0 lattice.  A
    dimension up to rank + 2 that the local invariants rule out (see
    _local_obstructions: at the rank, a determinant that is not a square)
    is skipped without a search, and logs one INFO record on the
    "knotgenus.lattice" logger with the rank, the dimension and the reason.
    The budgets apply to, and are checked by, each find_embedding call, so
    a skipped dimension reads none.  A cap whose witness would exceed
    MAX_WITNESS_ENTRIES raises ValueError before the first search, even
    when a smaller dimension would answer.  The search at the dimension
    returned checked its witness and is the last one, so find_embedding at
    that dimension, called next, returns that witness from the memo."""
    cap = default_dim_cap(g) if cap is None else operator.index(cap)
    if cap < g.rank:
        raise ValueError("cap must be at least the rank")
    _check_witness_entries(g.rank, cap)
    obstructions = _local_obstructions(g._minors)
    for dim in range(max(g.rank, 1), cap + 1):
        k = dim - g.rank
        if k < len(obstructions) and obstructions[k]:
            log.info("local obstruction: rank %d, dim %d, %s", g.rank, dim, obstructions[k])
            continue
        if find_embedding(g, dim, max_nodes, cap_seconds) is not None:
            return dim
    return None


def contract_chain(weights, ambient_dim: int) -> tuple[tuple[int, ...], int]:
    """The path lattice of `weights` (the `path_gram`: weight i on the
    diagonal, -1 between neighbours) with every maximal run of >= 4
    consecutive weight-2 vertices shortened to 2 or 3 of them, keeping the
    run's parity, and ambient_dim lowered by the number of vertices
    removed.  Raises ValueError when a weight exceeds 3.  weights and
    ambient_dim are exact ints (TypeError otherwise).  Logs one INFO record
    on the "knotgenus.lattice" logger with the rank and dimension before
    and after.

    Lemma: if the lattice embeds in Z^N, the contracted one embeds in
    Z^(N - 2s), 2s the vertices removed.  It runs one way only: Q(0,0)
    embeds in Z^11, Q(1,0) not in Z^13.  Proof: it suffices to shorten one
    run u1, ..., uL (L >= 4) of an embedding v1, ..., vr by two vectors and
    N by two, and to repeat.  Vectors are named up to a signed permutation
    of the coordinates, which keeps every dot product.

    1. A norm-2 vector of Z^N is +-e_a +- e_b, and two with dot product -1
       share one coordinate: u1 = e_a - e_b, u2 = e_b - e_c.  u3 is
       orthogonal to u1, so equal on a and b, to t say, and u3.u2 = -1
       gives u3[c] = t + 1; norm 2 leaves u3 = e_c - e_d with d new, or
       (t = -1) u3 = -e_a - e_b, the chain A3 = D3 on three coordinates.
       The fourth vector rules D3 out: u4 is orthogonal to u1 and u2, so
       equal on a, b and c, to t' say; norm 2 < 3t'^2 unless t' = 0, and
       then u4.u3 = 0, not -1.  So u1, u2, u3 = e_a - e_b, e_b - e_c,
       e_c - e_d, and u4, by the same norm bound 0 on a, b and c, with
       u4.u3 = -1, is e_d - e_x, x new.
    2. Replace u1, u2, u3 by their sum e_a - e_d.  It has norm 2, dot
       product -1 with u4 and with the vector before the run, which is
       adjacent to u1 alone, and 0 with every other vector, which is
       orthogonal to all three: the contracted Gram matrix.
    3. Every other vector is 0 on b and c.  A vector orthogonal to u1, u2
       and u3 is equal on a, b, c and d, to t say, so its norm is at least
       4t^2; all norms are <= 3, so t = 0.  This covers every vector but
       the triple's end neighbours: the one before the run and u4.
    4. u4 = e_d - e_x is 0 on b and c.  The vector before the run is
       orthogonal to u2, u3 and u4, three consecutive run vectors on b, c,
       d and x, so it is 0 there by step 3's argument.

    Deleting coordinates b and c then keeps every dot product, and the
    contracted lattice embeds in Z^(N-2).  The weights are used: (4,2,2,2,2)
    embeds in Z^5, its contraction (4,2,2) not in Z^3.
    """
    weights = as_vector(weights)
    ambient_dim = operator.index(ambient_dim)
    if any(w > 3 for w in weights):
        raise ValueError("chain contraction needs every weight <= 3")
    contracted = []
    for w, run in groupby(weights):
        size = len(tuple(run))
        if w == 2 and size >= 4:
            size = 2 + size % 2
        contracted += [w] * size
    dim = ambient_dim - (len(weights) - len(contracted))
    log.info(
        "chain contraction: rank %d, dim %d -> rank %d, dim %d",
        len(weights),
        ambient_dim,
        len(contracted),
        dim,
    )
    return tuple(contracted), dim


def verify_embedding(g: GramLattice, e: Embedding) -> bool:
    """True iff the embedding's pairwise dot products match the Gram matrix.

    Two vectors with no common nonzero coordinate have dot product 0.  So
    each vector's dot products with the vectors before it are summed over
    the coordinates of its support, against the earlier vectors nonzero
    there, and the nonzero ones, with its norm, must be exactly the entries
    of its sparse row up to the diagonal: exact on every pair, at a cost of
    the pairs that share a coordinate, not rank^2 x dimension.
    """
    if len(e.vectors) != g.rank:
        raise ValueError("embedding rank does not match Gram matrix")
    at = defaultdict(list)  # coordinate -> (j, entry) per earlier vector j nonzero there
    for i, (v, entries) in enumerate(zip(e.vectors, g.rows)):
        dots = defaultdict(int)  # j -> dot product of vectors i and j
        support = tuple(compress(enumerate(v), v))
        for c, x in support:
            for j, y in at[c]:
                dots[j] += x * y
            at[c].append((i, x))
        dots[i] = sum(x * x for _, x in support)
        if {j: d for j, d in dots.items() if d} != {j: x for j, x in entries if j <= i}:
            return False
    return True


def format_embedding(e: Embedding) -> str:
    """One line per vector, its entries separated by spaces.  The trailing
    zeros of a vector are written as one string, not one str per entry."""
    lines = []
    for v in e.vectors:
        end = len(v)
        while end > 1 and v[end - 1] == 0:
            end -= 1
        lines.append(f"{' '.join(map(str, v[:end]))}{' 0' * (len(v) - end)}\n")
    return "".join(lines)
