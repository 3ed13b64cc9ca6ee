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
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .matrices import IntMatrix, as_matrix, bilinear
from .seifert import alexander_trivial_2x2
from .two_bridge import KnotParams

log = logging.getLogger(__name__)

# The half box of b-vectors, its bMb table and, per a-vector, one outer sum
# over the half box are materialized as int64 arrays; the box guard allows
# at most this many entries in the whole box.  At the largest box it accepts
# (dim 4, bound 18, 7,496,644 entries) `knot curve --matrix` peaks at 127 MB
# RSS, against 30 MB for the import alone (measured on 2-core x86-64).
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


_BOX_CACHE: dict[tuple[int, int], tuple] = {}


def _box(bound: int, k: int):
    """All vectors of [-bound, bound]^k as int64 rows in lex order; for
    k = 0, the one empty vector."""
    side = 2 * bound + 1
    box = np.indices((side,) * k, dtype=np.int64).reshape(k, side**k).T - bound
    return np.ascontiguousarray(box)


def _cached_boxes(bound: int, dim: int):
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
    if key not in _BOX_CACHE:
        n = (2 * bound + 1) ** dim // 2
        lo = _box(bound, dim - dim // 2)
        hi = _box(bound, dim // 2)[: n // len(lo) + 1]
        half = np.hstack((np.repeat(hi, len(lo), axis=0)[:n], np.tile(lo, (len(hi), 1))[:n]))
        primitive = np.gcd.reduce(np.abs(half), axis=1) == 1
        _BOX_CACHE[key] = (half, -half[primitive][::-1], hi, lo)
    return _BOX_CACHE[key]


def _wrap64(x: int) -> int:
    """x reduced mod 2^64 into the int64 range."""
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


def _search(mat: IntMatrix, bound: int) -> tuple[CurveCertificate | None, int, int, int]:
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
    pairs that pass; bMb is a table over the half, computed once per matrix.
    bMa = aMb - a(M - M^T)b, so the Alexander test aMa bMb == aMb bMa needs
    no product over b beyond these.

    The filters run in int64 on the matrix reduced mod 2^64.  Each is an
    equality of ring expressions, which reduction mod 2^64 preserves, so no
    true pair is dropped; a pair that only passes mod 2^64 is rejected by
    verify_certificate, which runs on the exact Python integers.  Splitting
    the sums and negating b change no residue, so every filter passes the
    same pairs as one product over the whole box.
    """
    dim = len(mat)
    h = dim // 2
    m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64)
    anti = m - m.T
    half, avecs, hi, lo = _cached_boxes(bound, dim)
    bmb = np.einsum("ij,ij->i", half @ m, half)
    hits = checked = 0
    for scanned, a in enumerate(avecs, 1):
        w = a @ anti
        p = ((hi @ w[:h])[:, None] + lo @ w[h:]).ravel()[: len(half)]  # a (M - M^T) b
        cols = np.flatnonzero(np.abs(p) == 1)
        if not len(cols):
            continue
        hits += 2 * len(cols)
        u = a @ m
        i, j = np.divmod(cols, len(lo))
        x = (hi @ u[:h])[i] + (lo @ u[h:])[j]  # a M b
        ok = cols[np.flatnonzero((u @ a) * bmb[cols] == x * (x - p[cols]))]
        at = tuple(int(v) for v in a)
        for n, c in enumerate(ok, 1):
            b = tuple(int(v) for v in half[c])
            cert = CurveCertificate(at, b, restricted_form(mat, at, b))
            if verify_certificate(mat, cert):
                return cert, scanned, hits, checked + n
        checked += 2 * len(ok)
    return None, len(avecs), hits, checked


def find_genus1_certificate(mat, bound: int) -> CurveCertificate | None:
    """Exhaustive search over the normalized box [-bound, bound]^(2 dim);
    returns the lexicographically first certificate (a before b), or None.

    Raises ValueError, before allocating anything, when the box holds more
    than MAX_BOX_ENTRIES entries.  A finished search logs one INFO record on
    the "knotgenus.curve_search" logger with the dimension, the bound, the
    verdict, the number of a-vectors scanned, the number of (a, b) pairs
    that passed the intersection filter, how many of them went to
    verify_certificate, and the time.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    mat = as_matrix(mat)
    dim = len(mat)
    entries = (2 * bound + 1) ** dim * dim
    if entries > MAX_BOX_ENTRIES:
        raise ValueError(
            f"curve search box too large: dimension {dim} at bound {bound} "
            f"holds {entries} entries, more than {MAX_BOX_ENTRIES}"
        )
    start = time.perf_counter()
    cert, scanned, hits, checked = _search(mat, bound)
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
