"""Construct genus-1 reduction certificates of a Seifert lattice.

The certificates and their one check, `verify_certificate`, are defined in
`seifert`; this module constructs them, in plain integers, and passes each
one it returns through that check.

A certificate exists iff some primitive c is isotropic, cMc = 0, and some
d has (Mc).d = 0 and (M^T c).d = +-1.  Then (c, d) is one: its restricted
form is [[0, +-1], [0, dMd]], which `verify_certificate` accepts.
Conversely, the quadratic form of a certificate's restricted form S has
discriminant (S01 + S10)^2 - 4 S00 S11 = (S01 - S10)^2 = 1, so it splits
over Z into two independent primitive isotropic classes of span(a, b), a
summand of Z^dim since the intersection form is unimodular on it.  In a
basis (c, d) of the span with c isotropic, the trivial Alexander test
leaves cMd dMc = 0: when dMc = 0, (c, d) has the shape above; when
cMd = 0, (d - (dMd / dMc) c, c) has it.

The constructor enumerates c by height.  One coordinate k, with the
smallest nonzero |M_kk| (the last on ties), is solved for: cMc is a
quadratic a c_k^2 + b c_k + uM'u in c_k, u the other coordinates, whose
integer roots come from an isqrt of its discriminant b^2 - 4a uM'u.  That
discriminant is a quadratic form in u, built once per search (at most six
terms for dim 4), so a candidate u costs one evaluation of it, and b is
read only when it is a square.  The other coordinates run over the shells
of height (largest |entry|) 0, 1, ..., bound, each in lex order, so the
bound caps the enumerated coordinates and not c_k.  With a zero diagonal
there is no coordinate to solve for, and every coordinate is enumerated.
When M + M^T is definite, no c is isotropic and the answer None is exact,
whatever the bound.

For each primitive isotropic c, an exact test on u = Mc and v = M^T c
decides first whether a d exists (`_partner_exists`: gcd(v) = 1 when
u = 0, else the gcd of the 2 x 2 minors u_i v_j - u_j v_i equals gcd(u)),
so a c without one costs no column operations; on the 11 x 11 grid, 77 of
the 198 c tried have none.  For the others, d comes from unimodular column
operations: a basis of Z^dim in which Mc is nonzero on at most one vector
gives the kernel of Mc, and the same reduction of M^T c on that kernel
gives a d0 with (M^T c).d0 = +-1, and a basis of the common kernel of Mc
and M^T c, which holds c.  d is d0 less the nearest kernel vector that one
Babai rounding finds on a pairwise reduced basis of the kernel (for two
vectors, Gauss's reduction), with the sign that makes cMd = 1.  The
certificate's form is then [[0, 1], [0, dMd]], so only dMd is computed;
`verify_certificate` recomputes all of it.
"""

from __future__ import annotations

import logging
import operator
import time
from itertools import chain, combinations, permutations, product
from math import gcd, isqrt

from .matrices import as_matrix, check_deadline, det, mat_vec, search_deadline, symmetrize, transpose
from .seifert import CurveCertificate, signature, verify_certificate

log = logging.getLogger(__name__)

# The size guard: a search enumerates at most this many vectors,
# (2 bound + 1)^(dim - 1), or (2 bound + 1)^dim with a zero diagonal.  The
# largest dim-4 search it admits, bound 39 (79^3 = 493,039 triples), takes
# about 0.4 s when absent, on diag(1, 1, 1, -7) (in process, 2-core x86-64).
MAX_SEARCH_VECTORS = 1 << 19


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _nearest(num: int, den: int) -> int:
    """The integer nearest num / den, for den > 0 (halves round up)."""
    return (2 * num + den) // (2 * den)


def _shell(k: int, h: int):
    """The vectors of Z^k of height (largest |entry|) h, in lex order: for
    each first entry x, x = +-h before every vector of [-h, h]^(k - 1), or
    |x| < h before the shell of Z^(k - 1).  Built from itertools, so no
    vector passes through a Python frame."""
    if k == 0:
        return [()] if h == 0 else []
    if k == 1:
        return [(-h,), (h,)] if h else [(0,)]
    entries = range(-h, h + 1)
    box = (entries,) * (k - 1)
    return chain.from_iterable(
        product((x,), *box) if abs(x) == h else map((x,).__add__, _shell(k - 1, h))
        for x in entries
    )


def _form_terms(q):
    """The nonzero terms (coefficient, i, j), i <= j, of the quadratic form
    x -> xQx: Q_ii for i = j, Q_ij + Q_ji for i < j."""
    n = len(q)
    terms = ((q[i][j] + q[j][i] if i < j else q[i][i], i, j) for i in range(n) for j in range(i, n))
    return [term for term in terms if term[0]]


def _discriminant(mat, k: int):
    """(lin, terms): cMc = a c_k^2 + b c_k + uM'u, with u the coordinates
    of c other than k, a = M_kk, b = lin.u and M' the rows and columns
    other than k; terms are those of u -> b^2 - 4a uM'u, its discriminant in
    c_k, the form of lin lin^T - 4a M' (at most six terms for dim 4)."""
    others = [i for i in range(len(mat)) if i != k]
    a = mat[k][k]
    lin = [mat[k][i] + mat[i][k] for i in others]
    q = [[x * y - 4 * a * mat[i][j] for j, y in zip(others, lin)] for i, x in zip(others, lin)]
    return lin, _form_terms(q)


def _completions(mat, k: int | None):
    """The function that takes u, the coordinates of c other than k, to the
    isotropic c with those coordinates, in ascending c_k; with k None, the
    one that takes c to (c,) when it is isotropic, else to ()."""
    if k is None:
        return lambda c: (c,) if _dot(c, mat_vec(mat, c)) == 0 else ()
    a = mat[k][k]
    lin, disc_terms = _discriminant(mat, k)

    def complete(u):
        disc = sum([t * u[i] * u[j] for t, i, j in disc_terms])
        if disc < 0:
            return ()
        s = isqrt(disc)
        if s * s != disc:
            return ()
        b = _dot(lin, u)
        roots = (divmod(num, 2 * a) for num in sorted({-b - s, -b + s}, reverse=a < 0))
        return [(*u[:k], t, *u[k:]) for t, r in roots if r == 0]

    return complete


def _split(basis, f):
    """Unimodular column operations on basis until the linear form f is
    zero on all its vectors but one: returns f on that one (0 when f is
    zero on every vector), that vector and the others."""
    basis = list(basis)
    vals = [_dot(f, v) for v in basis]
    while sum(map(bool, vals)) > 1:
        i = min((i for i, x in enumerate(vals) if x), key=lambda i: abs(vals[i]))
        for j, x in enumerate(vals):
            if j != i and x:
                q = x // vals[i]
                vals[j] -= q * vals[i]
                basis[j] = tuple(y - q * z for y, z in zip(basis[j], basis[i]))
    i = next((i for i, x in enumerate(vals) if x), 0)
    return vals[i], basis[i], basis[:i] + basis[i + 1 :]


def _pair_reduced(basis):
    """The basis with each vector shortened by the nearest multiple of
    another while one gets shorter; for two vectors, Gauss's reduction."""
    basis = list(basis)
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(len(basis)), 2):
            bi, bj = basis[i], basis[j]
            mu = _nearest(_dot(bi, bj), _dot(bi, bi))
            shorter = tuple(y - mu * x for x, y in zip(bi, bj))
            if _dot(shorter, shorter) < _dot(bj, bj):
                basis[j] = shorter
                changed = True
    return basis


def _babai(d, basis):
    """d less the lattice vector of the independent basis nearest it by
    Babai rounding: the coordinates of d's projection on its span, by
    Cramer's rule on the Gram matrix (whose determinant is > 0), rounded."""
    gram = [[_dot(u, v) for v in basis] for u in basis]
    rhs = [_dot(u, d) for u in basis]
    g = det(gram)
    for i, u in enumerate(basis):
        mu = _nearest(det([row[:i] + [y] + row[i + 1 :] for row, y in zip(gram, rhs)]), g)
        d = tuple(y - mu * z for y, z in zip(d, u))
    return d


def _partner_exists(u, v) -> bool:
    """Whether some d has u.d = 0 and v.d = +-1: when u = 0, iff gcd(v) = 1;
    else iff the gcd of the 2 x 2 minors u_i v_j - u_j v_i is gcd(u).

    The image of d -> (u.d, v.d) is a subgroup L of Z^2, and such a d
    exists iff (0, 1) is in L.  When u = 0, L is 0 x gcd(v)Z.  Else L
    projects onto gcd(u)Z in the first coordinate, and L meets 0 x Z in
    0 x hZ: d exists iff h = 1.  When v is a multiple of u over Q, every
    minor is 0 while gcd(u) > 0, and L, of rank 1, meets 0 x Z in 0 only.
    Else L has rank 2 and the Hermite normal form basis (gcd(u), x),
    (0, h), so its index in Z^2 is gcd(u) h; the index of the image of the
    2 x dim matrix with rows u and v is the gcd of its 2 x 2 minors (the
    product of its invariant factors).  So h = 1 iff that gcd is gcd(u).
    The two `_split`s of `_partners` reach the same h: the first leaves a
    basis of the kernel of u, on which v takes the values hZ."""
    g = gcd(*u)
    if not g:
        return gcd(*v) == 1
    return gcd(*[u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(len(u)), 2)]) == g


def _partners(mat):
    """The function that takes a primitive isotropic c to a short d with
    (Mc).d = 0 and cMd = (M^T c).d = 1, or to None when there is none."""
    dim = len(mat)
    cols = transpose(mat)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]

    def partner(c):
        u, v = mat_vec(mat, c), mat_vec(cols, c)
        if not _partner_exists(u, v):
            return None
        g, first, rest = _split(units, u)
        kernel = rest if g else [first, *rest]
        g, d, common = _split(kernel, v)
        return tuple(g * x for x in _babai(d, _pair_reduced(common)))

    return partner


def _construct(mat, k: int | None, bound: int, deadline: float | None):
    """The first certificate by the enumeration of the module docstring,
    solving for coordinate k, or None; the shells entered, none when
    M + M^T is definite; and the primitive isotropic c tried."""
    dim = len(mat)
    shells = tried = 0
    if abs(signature(symmetrize(mat))) == dim:
        return None, shells, tried
    complete, partner = _completions(mat, k), _partners(mat)
    for h in range(bound + 1):
        check_deadline(deadline)
        shells += 1
        for u in _shell(dim if k is None else dim - 1, h):
            for c in complete(u):
                if gcd(*c) == 1:
                    tried += 1
                    d = partner(c)
                    if d is not None:
                        # cMc = (Mc).d = 0 and cMd = 1, so only dMd is left
                        form = ((0, 1), (0, _dot(d, mat_vec(mat, d))))
                        return CurveCertificate(c, d, form), shells, tried
    return None, shells, tried


def _solved_coordinate(mat) -> int | None:
    """The coordinate with the smallest nonzero |M_kk|, the last on ties;
    None when the diagonal is zero."""
    diag = [abs(row[i]) for i, row in enumerate(mat)]
    return min((i for i, x in enumerate(diag) if x), key=lambda i: (diag[i], -i), default=None)


def _check_search_size(coordinates: int, bound: int) -> None:
    """Raise ValueError unless bound >= 1, or when the shells up to bound
    over this many enumerated coordinates hold more than MAX_SEARCH_VECTORS
    vectors."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    vectors = (2 * bound + 1) ** coordinates
    if vectors > MAX_SEARCH_VECTORS:
        raise ValueError(
            f"curve search box too large: {coordinates} coordinates at bound {bound} "
            f"hold {vectors} vectors, more than {MAX_SEARCH_VECTORS}"
        )


def find_genus1_certificate(
    mat, bound: int, cap_seconds: float | None = None
) -> CurveCertificate | None:
    """The first certificate the constructor of the module docstring finds
    with the enumerated coordinates of c at most bound in absolute value, or
    None: at once when M + M^T is definite, and no certificate exists, else
    when none is found within the bound.  A certificate is returned once
    `verify_certificate` has accepted it; one it rejects raises
    RuntimeError.

    Raises TypeError unless bound is an exact int (operator.index), and
    ValueError, before any search, unless bound >= 1 or when the box
    [-bound, bound] over the enumerated coordinates holds more than
    MAX_SEARCH_VECTORS vectors.  Raises SearchBudgetExceeded when the
    optional cap_seconds > 0 wall-clock budget, counted from the call and
    read before each shell, runs out before the search finishes.
    A finished search logs one INFO record on the "knotgenus.curve_search"
    logger with the dimension, the bound, the verdict (found, absent within
    the bound, or none: M + M^T definite), the shells entered, the
    primitive isotropic c tried and the time.
    """
    deadline = search_deadline(cap_seconds)
    mat = as_matrix(mat)
    bound = operator.index(bound)
    dim = len(mat)
    k = _solved_coordinate(mat)
    _check_search_size(dim if k is None else dim - 1, bound)
    start = time.perf_counter()
    cert, shells, tried = _construct(mat, k, bound, deadline)
    if cert is not None and not verify_certificate(mat, cert):
        raise RuntimeError("curve search returned an invalid certificate")
    verdict = "found" if cert is not None else "absent" if shells else "none"
    log.info(
        "curve search: dim %d, bound %d, %s, %d shells, %d isotropic c tried, %.3f s",
        dim,
        bound,
        verdict,
        shells,
        tried,
        time.perf_counter() - start,
    )
    return cert
