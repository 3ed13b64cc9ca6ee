"""Search for genus-1 reduction certificates in a rank-4 Seifert lattice.

A certificate is a pair of homology classes (a, b) whose algebraic
intersection is +-1 and whose restricted 2x2 Seifert form has trivial
Alexander polynomial.  Finding one shows the topological slice genus of
the knot is at most 1.

The search space is normalized: a is primitive with positive first nonzero
coordinate (flipping the sign of a or dividing out a common factor never
destroys a certificate, so nothing is lost).  Within that space the
enumeration is exhaustive in lexicographic order and the first valid pair
is returned, so results are deterministic.

The b of a certificate is normalized too: (a, b) is a certificate exactly
when (a, -b) is, so only the first half of the box [-bound, bound]^dim in
lex order is scanned, the b with negative first nonzero coordinate, and the
lex-first certificate of the whole box is found there.

The filters run in int64 on that half, split into rows of the box of the
first dim // 2 coordinates and of the box of the rest.  Every bilinear form
in b is then a sum of one product over each part, and bMb is one table per
matrix.  All of it is ring arithmetic mod 2^64, so the split passes exactly
the pairs one product over the whole box would; the exact check is
verify_certificate's.

The pairs with intersection a(M - M^T)b = +-1 are the costly filter, and
they depend on nothing but the bound, the dimension and M - M^T mod 2^64.
So they are memoized under that key, the bytes of the int64 residue of
M - M^T, and shared by every matrix with the same key: every K(m,n) has the
Seifert matrix of K(0,0) less m E00 and n E11, so all of them share one
M - M^T.  The memo holds, in blocks of consecutive a-vectors in scan order,
each a's hit count and hits, so it is extended only as far as a search has
scanned, and a search that reads it scans the same pairs in the same order
as one that computes them; the Alexander filter and the exact check run per
search, on its own M.  Each a's hit count keeps the search statistics
those of the scan one a at a time.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .lattice import check_deadline, search_deadline
from .matrices import IntMatrix, as_matrix, bilinear
from .seifert import alexander_trivial_2x2
from .two_bridge import KnotParams

log = logging.getLogger(__name__)

# The half box of b-vectors, its bMb table and, per a-vector, one outer sum
# over the half box are materialized as int64 arrays; the box guard allows
# at most this many entries in the whole box.  At the largest box it accepts
# (dim 4, bound 18, 7,496,644 entries) `knot curve --matrix` peaks at 127 MB
# RSS, against 30 MB for the import alone, and an absent search there
# stopped by a 20 s budget at 126 MB: the box, not the hit memo, sets the
# peak.  `knot curve --m 100 --n 100` (bound 12), whose memo fills
# MAX_STORED_HITS, peaks at 54 MB (measured on 2-core x86-64).
MAX_BOX_ENTRIES = 1 << 23


@dataclass(frozen=True)
class CurveCertificate:
    a: tuple[int, ...]
    b: tuple[int, ...]
    restricted_form: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        object.__setattr__(self, "restricted_form", as_matrix(self.restricted_form))


def restricted_form(mat, a, b) -> IntMatrix:
    """Seifert form restricted to span(a, b): [[aMa, aMb], [bMa, bMb]]."""
    mat = as_matrix(mat)
    return (
        (bilinear(a, mat, a), bilinear(a, mat, b)),
        (bilinear(b, mat, a), bilinear(b, mat, b)),
    )


def verify_certificate(mat, cert: CurveCertificate) -> bool:
    """Check all certificate invariants against the Seifert matrix.

    The restricted form decides them: the intersection a(M - M^T)b is
    form[0][1] - form[1][0], and once it is +-1 the pair is not proportional
    (proportional classes intersect in 0) and the form meets both
    preconditions of alexander_trivial_2x2.
    """
    mat = as_matrix(mat)
    a, b = cert.a, cert.b
    if len(a) != len(mat) or len(b) != len(mat):
        return False
    form = restricted_form(mat, a, b)
    if form != cert.restricted_form:
        return False
    return abs(form[0][1] - form[1][0]) == 1 and alexander_trivial_2x2(form)


def default_search_bound(k: KnotParams) -> int:
    """Search box guaranteed to contain the known certificate families:
    max coordinate sqrt(m+2), sqrt(n+3) or 2, plus one of margin."""
    def ceil_sqrt(x: int) -> int:
        s = isqrt(x)
        return s if s * s == x else s + 1

    return max(3, ceil_sqrt(k.m + 2), ceil_sqrt(k.n + 3)) + 1


# Blocks of this many consecutive a-vectors are the unit of the hit memo,
# of the Alexander filter and of the budget check; the hits themselves are
# generated one a at a time.
_A_BLOCK = 16

# The hit memo stores at most this many int32 entries over all its keys: one
# hit count per a-vector, one entry per hit, and _BLOCK_HEADER per block for
# its array header.  Past it, blocks are computed and not stored.  The 121
# knots K(m,n), m, n <= 10, need about 73,000 entries, the 961 of m, n <= 30
# about 2.8 million, and `knot curve --m 100 --n 100` about 7 million.
MAX_STORED_HITS = 1 << 19
_BLOCK_HEADER = 32


@dataclass
class _Box:
    """The boxes of one (bound, dim), see _boxes, and the hit memo of every
    M - M^T searched in them: per int64 residue of M - M^T (its bytes), the
    hit blocks of the first a-vectors in scan order."""

    half: np.ndarray
    avecs: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    memo: dict[bytes, list[np.ndarray]] = field(default_factory=dict)
    stored: int = 0


# The module's one cache: per (bound, dim), its boxes and their hit memo.
_CACHE: dict[tuple[int, int], _Box] = {}


def _box(bound: int, k: int):
    """All vectors of [-bound, bound]^k as int64 rows in lex order; for
    k = 0, the one empty vector."""
    side = 2 * bound + 1
    box = np.indices((side,) * k, dtype=np.int64).reshape(k, side**k).T - bound
    return np.ascontiguousarray(box)


def _boxes(bound: int, dim: int) -> _Box:
    """The first half of the box [-bound, bound]^dim, the normalized
    a-vectors, and the boxes hi of the first dim // 2 and lo of the other
    coordinates, hi cut to the rows that begin a vector of the half.  All
    are in lex order, so row i * len(lo) + j of the box is hi[i] followed by
    lo[j], and the half is built that way without the box.  The box is
    symmetric, row len - 1 - r being minus row r, and its middle row is the
    zero vector; so its first half holds the vectors with negative first
    nonzero coordinate, and the a-vectors are the primitive rows of the
    half negated and reversed."""
    key = (bound, dim)
    if key not in _CACHE:
        n = (2 * bound + 1) ** dim // 2
        lo = _box(bound, dim - dim // 2)
        hi = _box(bound, dim // 2)[: n // len(lo) + 1]
        half = np.hstack((np.repeat(hi, len(lo), axis=0)[:n], np.tile(lo, (len(hi), 1))[:n]))
        primitive = np.gcd.reduce(np.abs(half), axis=1) == 1
        _CACHE[key] = _Box(half, -half[primitive][::-1], hi, lo)
    return _CACHE[key]


def _wrap64(x: int) -> int:
    """x reduced mod 2^64 into the int64 range."""
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


def _stored_entries() -> int:
    """The entries the hit memo holds, counted as MAX_STORED_HITS counts them."""
    return sum(box.stored for box in _CACHE.values())


def _hit_block(box: _Box, anti, avecs):
    """The pairs of the a-vectors avecs and the b of the half box with
    |a (M - M^T) b| = 1, in scan order: one int32 array that holds the hit
    count of each a, then each hit as (r + 1) p for half-box row r and
    intersection p."""
    h = len(anti) // 2
    counts, hits = [], []
    for a in avecs:
        w = a @ anti
        p = ((box.hi @ w[:h])[:, None] + box.lo @ w[h:]).ravel()[: len(box.half)]
        cols = np.flatnonzero(np.abs(p) == 1)
        counts.append(len(cols))
        if len(cols):
            hits.append((cols + 1) * p[cols])
    return np.concatenate([counts] + hits).astype(np.int32)


def _search(
    mat: IntMatrix, bound: int, deadline: float | None = None
) -> tuple[CurveCertificate | None, int, int, int]:
    """The lex-first certificate (or None), the number of a-vectors scanned,
    the number of (a, b) pairs that passed the intersection filter and the
    number of them that verify_certificate checked.

    Only the first half of the box is scanned: the b with negative first
    nonzero coordinate.  Negating b negates aMb, bMa and the intersection
    and keeps bMb, so (a, b) passes each filter and verify_certificate
    exactly when (a, -b) does, and the lex-first b that passes for an a lies
    in the half.  The counts are those of the whole box: twice the half's,
    except that for the a of the certificate the pairs checked end at the
    certificate, so all of them lie in the half.

    The half is split into the rows of hi and lo of the first dim // 2 and
    the other coordinates.  For each a, the intersection a(M - M^T)b is an
    outer sum of one product over hi and one over lo, and so is aMb on the
    pairs that pass; bMb is a table over the half, computed once per call.
    bMa = aMb - a(M - M^T)b, so the Alexander test aMa bMb == aMb bMa needs
    no product over b beyond these.

    The filters run in int64 on the matrix reduced mod 2^64.  Each is an
    equality of ring expressions, which reduction mod 2^64 preserves, so no
    true pair is dropped; a pair that only passes mod 2^64 is rejected by
    verify_certificate, which runs on the exact Python integers.  Splitting
    the sums and negating b change no residue, so every filter passes the
    same pairs as one product over the whole box.

    The pairs that pass the intersection filter depend only on the bound,
    the dimension and the int64 residue of M - M^T, so they are memoized
    under that key, in blocks of _A_BLOCK a-vectors: every K(m,n) has the
    same M - M^T, and each call reuses the blocks that earlier calls
    computed, and stores the ones it computes past them, up to
    MAX_STORED_HITS entries.  A block holds the hit count of each of its
    a-vectors, so the counts stay those of the scan one a at a time, even
    where the block runs past the a of the certificate.  The Alexander
    filter runs on a block's hits at once, and the pairs that pass it go to
    verify_certificate in scan order.  With a deadline (a time.monotonic
    reading), check_deadline raises SearchBudgetExceeded before the first
    block that starts past it.
    """
    dim = len(mat)
    h = dim // 2
    m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64)
    anti = m - m.T
    box = _boxes(bound, dim)
    half, avecs, hi, lo = box.half, box.avecs, box.hi, box.lo
    memo = box.memo.setdefault(anti.tobytes(), [])
    bmb = np.einsum("ij,ij->i", half @ m, half)
    hits = checked = 0
    for k, start in enumerate(range(0, len(avecs), _A_BLOCK)):
        check_deadline(deadline)
        block = avecs[start : start + _A_BLOCK]
        if k < len(memo):
            stored = memo[k]
        else:
            stored = _hit_block(box, anti, block)
            cost = len(stored) + _BLOCK_HEADER
            if k == len(memo) and _stored_entries() + cost <= MAX_STORED_HITS:
                memo.append(stored)
                box.stored += cost
        counts, code = stored[: len(block)], stored[len(block) :]
        if not len(code):
            continue
        al = np.repeat(np.arange(len(block)), counts)  # the a of each hit
        cols = np.abs(code) - 1
        p = np.sign(code)
        u = block @ m
        i, j = np.divmod(cols, len(lo))
        x = (hi @ u[:, :h].T)[i, al] + (lo @ u[:, h:].T)[j, al]  # a M b
        ama = np.einsum("ij,ij->i", u, block)
        ok = np.flatnonzero(ama[al] * bmb[cols] == x * (x - p))
        for n, t in enumerate(ok):
            r = al[t]
            at = tuple(int(v) for v in block[r])
            b = tuple(int(v) for v in half[cols[t]])
            cert = CurveCertificate(at, b, restricted_form(mat, at, b))
            if verify_certificate(mat, cert):
                first = int(np.searchsorted(al[ok], r))  # passes of the block's earlier a
                return (
                    cert,
                    start + int(r) + 1,
                    hits + 2 * int(counts[: r + 1].sum()),
                    checked + 2 * first + (n - first) + 1,
                )
        hits += 2 * len(code)
        checked += 2 * len(ok)
    return None, len(avecs), hits, checked


def _check_box_entries(dim: int, bound: int) -> None:
    """Raise ValueError when the box of a search in dimension dim at this
    bound holds more than MAX_BOX_ENTRIES entries."""
    entries = (2 * bound + 1) ** dim * dim
    if entries > MAX_BOX_ENTRIES:
        raise ValueError(
            f"curve search box too large: dimension {dim} at bound {bound} "
            f"holds {entries} entries, more than {MAX_BOX_ENTRIES}"
        )


def find_genus1_certificate(
    mat, bound: int, cap_seconds: float | None = None
) -> CurveCertificate | None:
    """Exhaustive search over the normalized box [-bound, bound]^(2 dim);
    returns the lexicographically first certificate (a before b), or None.

    Raises ValueError, before allocating anything, when the box holds more
    than MAX_BOX_ENTRIES entries.  Raises SearchBudgetExceeded when the
    optional cap_seconds > 0 wall-clock budget, counted from the call and
    read between blocks of a-vectors, runs out before the search finishes.
    A finished search logs one INFO record on the "knotgenus.curve_search"
    logger with the dimension, the bound, the verdict, the number of
    a-vectors scanned, the number of (a, b) pairs that passed the
    intersection filter, how many of them went to verify_certificate, and
    the time.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    deadline = search_deadline(cap_seconds)
    mat = as_matrix(mat)
    dim = len(mat)
    _check_box_entries(dim, bound)
    start = time.perf_counter()
    cert, scanned, hits, checked = _search(mat, bound, deadline)
    log.info(
        "curve search: dim %d, bound %d, %s, %d a-vectors, "
        "%d pairs with intersection +-1, %d verified, %.3f s",
        dim,
        bound,
        "absent" if cert is None else "found",
        scanned,
        hits,
        checked,
        time.perf_counter() - start,
    )
    return cert


def format_certificate(cert: CurveCertificate) -> str:
    a = ", ".join(str(x) for x in cert.a)
    b = ", ".join(str(x) for x in cert.b)
    f = cert.restricted_form
    form = f"[[{f[0][0]},{f[0][1]}],[{f[1][0]},{f[1][1]}]]"
    return f"a = ({a}) ; b = ({b}) ; form = {form}"
