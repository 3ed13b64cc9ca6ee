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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt

from .matrices import IntMatrix, antisymmetrize, as_matrix, bilinear
from .seifert import alexander_trivial_2x2
from .two_bridge import KnotParams

try:
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


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


def _proportional(a, b) -> bool:
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i))


def verify_certificate(mat, cert: CurveCertificate) -> bool:
    """Check all certificate invariants against the Seifert matrix."""
    mat = as_matrix(mat)
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


def default_search_bound(k: KnotParams) -> int:
    """Search box guaranteed to contain the known certificate families:
    max coordinate sqrt(m+2), sqrt(n+3) or 2, plus one of margin."""
    def ceil_sqrt(x: int) -> int:
        s = isqrt(x)
        return s if s * s == x else s + 1

    return max(3, ceil_sqrt(k.m + 2), ceil_sqrt(k.n + 3)) + 1


def _normalized_a_vectors(bound: int, dim: int):
    """Primitive vectors with positive first nonzero coordinate, lex order."""
    for a in product(range(-bound, bound + 1), repeat=dim):
        nz = next((x for x in a if x != 0), None)
        if nz is None or nz < 0:
            continue
        g = 0
        for x in a:
            g = gcd(g, abs(x))
        if g != 1:
            continue
        yield a


def _search_python(mat: IntMatrix, bound: int) -> CurveCertificate | None:
    dim = len(mat)
    anti = antisymmetrize(mat)
    brange = range(-bound, bound + 1)
    for a in _normalized_a_vectors(bound, dim):
        for b in product(brange, repeat=dim):
            if abs(bilinear(a, anti, b)) != 1:
                continue
            form = restricted_form(mat, a, b)
            if form[0][0] * form[1][1] != form[0][1] * form[1][0]:
                continue
            cert = CurveCertificate(a, b, form)
            if verify_certificate(mat, cert):
                return cert
    return None


def _box_vectors(bound: int, dim: int):
    """All vectors of [-bound, bound]^dim as int64 rows, in lex order."""
    side = 2 * bound + 1
    grid = _np.indices((side,) * dim).reshape(dim, -1).T - bound
    return _np.ascontiguousarray(grid, dtype=_np.int64)


_BOX_CACHE: dict[tuple[int, int], tuple] = {}


def _cached_boxes(bound: int, dim: int):
    key = (bound, dim)
    if key not in _BOX_CACHE:
        bvecs = _box_vectors(bound, dim)
        first_nz = _np.zeros(len(bvecs), dtype=_np.int64)
        nonzero = bvecs != 0
        anyset = nonzero.any(axis=1)
        first_idx = nonzero.argmax(axis=1)
        first_nz[anyset] = bvecs[anyset, first_idx[anyset]]
        primitive = _np.gcd.reduce(_np.abs(bvecs), axis=1) == 1
        avecs = bvecs[(first_nz > 0) & primitive]
        _BOX_CACHE[key] = (bvecs, avecs)
    return _BOX_CACHE[key]


def _search_numpy(mat: IntMatrix, bound: int) -> CurveCertificate | None:
    dim = len(mat)
    m = _np.array(mat, dtype=_np.int64)
    bvecs, avecs = _cached_boxes(bound, dim)
    g = _np.einsum("ij,jk,ik->i", bvecs, m, bvecs)  # b M b per box vector
    inter = (m - m.T) @ bvecs.T  # column j holds (M - M^T) b_j
    # the chunk product holds about 2^21 int64 entries (16 MB) at any box size
    chunk = max(1, (1 << 21) // len(bvecs))
    for start in range(0, len(avecs), chunk):
        ac = avecs[start : start + chunk]
        hits = _np.abs(ac @ inter) == 1  # intersection +-1
        if not hits.any():
            continue
        for i in _np.flatnonzero(hits.any(axis=1)):
            a = ac[i]
            cols = _np.flatnonzero(hits[i])
            cand = bvecs[cols]
            alpha = int(a @ m @ a)
            x = cand @ (m.T @ a)  # a M b
            y = cand @ (m @ a)  # b M a
            ok = _np.flatnonzero(alpha * g[cols] == x * y)
            at = tuple(int(v) for v in a)
            for j in ok:
                b = tuple(int(v) for v in cand[j])
                cert = CurveCertificate(at, b, restricted_form(mat, at, b))
                if verify_certificate(mat, cert):
                    return cert
    return None


def find_genus1_certificate(mat, bound: int) -> CurveCertificate | None:
    """Exhaustive search over the normalized box [-bound, bound]^(2 dim);
    returns the lexicographically first certificate (a before b), or None."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    mat = as_matrix(mat)
    max_entry = max((abs(x) for row in mat for x in row), default=0)
    # int64 is exact up to 2^63; fall back to big-int Python beyond that
    if _np is not None and (len(mat) * max_entry * bound * bound) ** 2 < 2**62:
        return _search_numpy(mat, bound)
    return _search_python(mat, bound)


def format_certificate(cert: CurveCertificate) -> str:
    a = ", ".join(str(x) for x in cert.a)
    b = ", ".join(str(x) for x in cert.b)
    f = cert.restricted_form
    form = f"[[{f[0][0]},{f[0][1]}],[{f[1][0]},{f[1][1]}]]"
    return f"a = ({a}) ; b = ({b}) ; form = {form}"


def parse_certificate(text: str) -> CurveCertificate:
    parts = dict(
        item.strip().split(" = ", 1) for item in text.strip().split(";") if item.strip()
    )
    a = tuple(int(x) for x in parts["a"].strip("() ").split(","))
    b = tuple(int(x) for x in parts["b"].strip("() ").split(","))
    rows = parts["form"].strip()[2:-2].split("],[")
    form = tuple(tuple(int(x) for x in row.split(",")) for row in rows)
    return CurveCertificate(a, b, form)
