"""The box search for genus-1 reduction certificates: the test oracle of
`knotgenus.curve_search`, which constructs certificates in its place.

`box_certificate` scans the normalized box [-bound, bound]^(2 dim) of
pairs (a, b) and returns the lex-first pair that `verify_certificate`
accepts.  The tests check it against the unpruned `naive_double_loop` and
the one-product `full_box_search` of `test_curve_search`, and check the
constructor against it.

The search space is normalized: a is primitive with positive first nonzero
coordinate (flipping the sign of a or dividing out a common factor never
destroys a certificate, so nothing is lost).  Within that space the
enumeration is exhaustive in lexicographic order and the first valid pair
is returned, so results are deterministic.

The b of a certificate is normalized too: (a, b) is a certificate exactly
when (a, -b) is, so only the first half of the box [-bound, bound]^dim in
lex order is scanned, the b with negative first nonzero coordinate, and the
lex-first certificate of the whole box is found there.

The filters run in int64, and neither the half nor the a-vectors are
materialized: each b of the half is a row of the box hi of the first
dim // 2 coordinates followed by a row of the box lo of the rest, and the
a-vectors are kept as the indices of such rows.  Every bilinear form in b
is then a sum of one product over each part, and bMb is one outer sum over
hi and lo per matrix.  All of it is ring arithmetic mod 2^64, so the split
passes exactly the pairs one product over the whole box would; the exact
check is verify_certificate, on the pair that would be returned.

The pairs with intersection a(M - M^T)b = +-1 are the costly filter, and
they depend on nothing but the bound, the dimension and M - M^T mod 2^64.
So they are memoized under that key, the bytes of the int64 residue of
M - M^T, and shared by every matrix with the same key: every K(m,n) has the
Seifert matrix of K(0,0) less m E00 and n E11, so all of them share one
M - M^T.  The memo holds, in blocks of consecutive a-vectors in scan order,
each a's hit count and hits, so it is extended only as far as a search has
scanned, and a search that reads it scans the same pairs in the same order
as one that computes them; the Alexander filter and the exact check run per
search, on its own M, and read only the hits.  A hit is stored as its hi
row, with the sign of the intersection folded in, and its lo row: two int16
entries, 4 bytes, in every box of dim >= 2 that the box guard admits.  Each
a's hit count keeps the search statistics those of the scan one a at a
time.  The hits are found mod 2^16 first, in int16, and confirmed in int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from knotgenus.matrices import IntMatrix, as_matrix, as_vector
from knotgenus.seifert import CurveCertificate, restricted_form, verify_certificate

# The box is never built, but the search materializes int64 and int16
# arrays over its first half: the bMb table, once per matrix, and the int16
# intersection sum, once per a-vector; the box guard allows at most this
# many entries in the whole box.  At the largest box it accepts (dim 4,
# bound 18, 7,496,644 entries) a search on the Seifert matrix of K(0,0)
# peaked at 64.2 MB RSS.
MAX_BOX_ENTRIES = 1 << 23


# Blocks of this many consecutive a-vectors are the unit of the hit memo
# and of the Alexander filter; the hits themselves are generated one a at a
# time.
_A_BLOCK = 16

# The hit memo stores at most this many 4-byte entries over all its keys: one
# hit count per a-vector, one entry per hit (its two int16 row indices, see
# _boxes), and _BLOCK_HEADER per block for its array header.  Past
# it, blocks are computed and not stored.  The 121 knots K(m,n), m, n <= 10,
# need about 73,000 entries, the 961 of m, n <= 30 about 2.8 million, and
# K(100,100) at bound 12 about 7 million.
MAX_STORED_HITS = 1 << 19
_BLOCK_HEADER = 32


@dataclass
class _Box:
    """The boxes of one (bound, dim), see _boxes, and the hit memo of every
    M - M^T searched in them: per int64 residue of M - M^T (its bytes), the
    hit blocks of the first a-vectors in scan order, see _hit_block."""

    hi: np.ndarray
    lo: np.ndarray
    n: int  # the length of the box's first half
    arows: np.ndarray  # the half row of each a-vector, in scan order
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
    """The boxes hi of the first dim // 2 and lo of the other coordinates of
    [-bound, bound]^dim, the length n of the box's first half, and the
    a-vectors as rows of that half.  All are in lex order, so row
    i * len(lo) + j of the box is hi[i] followed by lo[j]; hi is cut to the
    rows that begin a row of the half, and neither the half nor the
    a-vectors are built.  The box is symmetric, row len - 1 - r being minus
    row r, and its middle row is the zero vector; so its first half holds
    the vectors with negative first nonzero coordinate, and the a-vectors
    are the primitive rows of the half negated and reversed.  Row
    i * len(lo) + j is primitive when the gcd of hi[i] and the gcd of lo[j]
    are coprime.

    A stored hit holds its two row indices as int16, see _hit_block: every
    box of dim >= 2 that the box guard admits has fewer than 2^15 hi and lo
    rows (at most 2,047 at dim 2, 19,321 at dim 3), and at dim 1 M - M^T is
    zero, so no hit is stored."""
    key = (bound, dim)
    if key not in _CACHE:
        n = (2 * bound + 1) ** dim // 2
        lo = _box(bound, dim - dim // 2)
        hi = _box(bound, dim // 2)[: n // len(lo) + 1]
        gcds = np.gcd.outer(np.gcd.reduce(np.abs(hi), axis=1), np.gcd.reduce(np.abs(lo), axis=1))
        arows = np.flatnonzero(gcds.ravel()[:n] == 1)[::-1].astype(np.int32)
        _CACHE[key] = _Box(hi, lo, n, arows)
    return _CACHE[key]


def _wrap64(x: int) -> int:
    """x reduced mod 2^64 into the int64 range."""
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


def _stored_entries() -> int:
    """The entries the hit memo holds, counted as MAX_STORED_HITS counts them."""
    return sum(box.stored for box in _CACHE.values())


def _hit_block(box: _Box, anti, avecs):
    """The pairs of the a-vectors avecs and the b of the half box with
    |a (M - M^T) b| = 1, in scan order, as one int32 array: the hit count of
    each a, then two runs of int16 entries, one holding each hit's
    (i + 1) p and one its j, for its half row i * len(lo) + j and its
    intersection p.

    The intersection is an outer sum of one product over hi and one over
    lo.  The sum is first taken mod 2^16, in int16, and only the pairs where
    it is +-1 there are summed in int64: +-1 mod 2^64 is +-1 mod 2^16, so no
    hit is lost, and the int64 test drops the others."""
    h = len(anti) // 2
    counts, codes, cols = [], [], []
    for a in avecs:
        w = a @ anti
        ph, pl = box.hi @ w[:h], box.lo @ w[h:]
        low = (ph.astype(np.int16)[:, None] + pl.astype(np.int16)).ravel()[: box.n]
        i, j = np.divmod(np.flatnonzero(np.abs(low) == 1), len(box.lo))
        p = ph[i] + pl[j]
        hit = np.abs(p) == 1
        counts.append(np.count_nonzero(hit))
        codes.append((i[hit] + 1) * p[hit])
        cols.append(j[hit])
    runs = [np.array(counts, np.int32).view(np.int16), np.concatenate(codes), np.concatenate(cols)]
    return np.concatenate(runs, dtype=np.int16, casting="unsafe").view(np.int32)


def _bmb_table(box: _Box, m) -> np.ndarray:
    """bMb mod 2^64 for each b of the half box, for the int64 matrix m.  For
    b = hi[i] followed by lo[j] it is hi[i] M_hh hi[i] + lo[j] M_ll lo[j] +
    hi[i] (M + M^T)_hl lo[j], with M split into the blocks of the first
    dim // 2 (h) and the other (l) coordinates: an outer sum of two tables
    and one product, cut at the half."""
    hi, lo, h = box.hi, box.lo, len(m) // 2
    table = hi @ ((m + m.T)[:h, h:] @ lo.T)
    table += np.einsum("ij,ij->i", lo @ m[h:, h:], lo)
    table += np.einsum("ij,ij->i", hi @ m[:h, :h], hi)[:, None]
    return table.ravel()[: box.n]


def _search(mat: IntMatrix, bound: int) -> tuple[CurveCertificate | None, int, int, int]:
    """The lex-first certificate (or None), the number of a-vectors scanned,
    the number of (a, b) pairs that passed the intersection filter and the
    number of them whose exact restricted form was checked.

    Only the first half of the box is scanned: the b with negative first
    nonzero coordinate.  Negating b negates aMb, bMa and the intersection
    and keeps bMb, so (a, b) passes each filter and verify_certificate
    exactly when (a, -b) does, and the lex-first b that passes for an a lies
    in the half.  The counts are those of the whole box: twice the half's,
    except that for the a of the certificate the pairs checked end at the
    certificate, so all of them lie in the half.

    Every b of the half is hi[i] followed by lo[j], for the boxes hi and lo
    of the first dim // 2 and the other coordinates, and every product runs
    on hi and lo alone.  For each a, the intersection a(M - M^T)b is an
    outer sum of one product over hi and one over lo, and so is aMb, taken
    at the pairs that pass; bMb is one table per call, see _bmb_table.
    bMa = aMb - a(M - M^T)b, so the Alexander test aMa bMb == aMb bMa needs
    no product over b beyond these.

    The filters run in int64 on the matrix reduced mod 2^64.  Each is an
    equality of ring expressions, which reduction mod 2^64 preserves, so no
    true pair is dropped; a pair that only passes mod 2^64 is rejected by
    the exact check: the pair, with its restricted form computed in Python
    integers, goes to verify_certificate.  Splitting the sums and negating
    b change no residue, so every filter passes the same pairs as one
    product over the whole box.

    The pairs that pass the intersection filter depend only on the bound,
    the dimension and the int64 residue of M - M^T, so they are memoized
    under that key, in blocks of _A_BLOCK a-vectors: every K(m,n) has the
    same M - M^T, and each call reuses the blocks that earlier calls
    computed, and stores the ones it computes past them, up to
    MAX_STORED_HITS entries.  A block holds the hit count of each of its
    a-vectors, so the counts stay those of the scan one a at a time, even
    where the block runs past the a of the certificate.  The Alexander
    filter runs on a block's hits at once, reading the products and the
    bMb table with flat takes, and the pairs that pass it go to the exact
    check in scan order.
    """
    dim = len(mat)
    h = dim // 2
    # reshaped: a 0x0 matrix would otherwise make a 1-D array
    m = np.array([[_wrap64(x) for x in row] for row in mat], dtype=np.int64).reshape(dim, dim)
    anti = m - m.T
    box = _boxes(bound, dim)
    hi, lo = box.hi, box.lo
    memo = box.memo.setdefault(anti.tobytes(), [])
    bmb = _bmb_table(box, m)
    hits = checked = 0
    for k, start in enumerate(range(0, len(box.arows), _A_BLOCK)):
        ai, aj = np.divmod(box.arows[start : start + _A_BLOCK], len(lo))
        block = -np.concatenate((hi.take(ai, axis=0), lo.take(aj, axis=0)), axis=1)
        nb = len(block)
        if k < len(memo):
            stored = memo[k]
        else:
            stored = _hit_block(box, anti, block)
            cost = len(stored) + _BLOCK_HEADER
            if k == len(memo) and _stored_entries() + cost <= MAX_STORED_HITS:
                memo.append(stored)
                box.stored += cost
        counts, runs = stored[:nb], stored[nb:].view(np.int16)
        if not len(runs):
            continue
        code, j = runs.astype(np.int64).reshape(2, -1)
        al = np.repeat(np.arange(nb), counts)  # the a of each hit
        i = np.abs(code) - 1
        p = np.sign(code)
        u = block @ m
        # a M b: the hi part at flat row i * nb + a, plus the lo part
        x = (hi @ u[:, :h].T).ravel().take(i * nb + al)
        x += (lo @ u[:, h:].T).ravel().take(j * nb + al)
        ama = np.einsum("ij,ij->i", u, block)
        ok = np.flatnonzero(ama.take(al) * bmb.take(i * len(lo) + j) == x * (x - p))
        for n, t in enumerate(ok):
            r = al[t]
            at = as_vector(block[r])
            b = as_vector(hi[i[t]]) + as_vector(lo[j[t]])
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
    return None, len(box.arows), hits, checked


def _check_box_entries(dim: int, bound: int) -> None:
    """Raise ValueError unless bound >= 1, or when the box of a search in
    dimension dim at this bound holds more than MAX_BOX_ENTRIES entries."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    entries = (2 * bound + 1) ** dim * dim
    if entries > MAX_BOX_ENTRIES:
        raise ValueError(
            f"curve search box too large: dimension {dim} at bound {bound} "
            f"holds {entries} entries, more than {MAX_BOX_ENTRIES}"
        )


def box_certificate(mat, bound: int) -> CurveCertificate | None:
    """The lex-first certificate of the normalized box [-bound, bound]^(2 dim)
    (a before b), or None.  Raises ValueError unless bound >= 1 or when the
    box holds more than MAX_BOX_ENTRIES entries."""
    mat = as_matrix(mat)
    _check_box_entries(len(mat), bound)
    return _search(mat, bound)[0]
