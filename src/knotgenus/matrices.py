"""Exact integer matrix utilities and the shared text format for square matrices.

Matrices are plain tuples of tuples of Python ints; all arithmetic is
arbitrary precision.  What counts as an integer is decided here, once:
`as_vector` and `as_matrix` convert each entry with `operator.index`, so
bools and numpy integers become exact ints, and floats, Fractions and
strings raise TypeError rather than being truncated.  Every constructor
that takes integers from a caller goes through them.

One fraction-free Bareiss elimination serves every determinant and every
signature, in one of three pivoting modes: "rows" (`det`) swaps rows,
"none" (`leading_principal_minors`) reads the minors off its pivots in one
pass, and "symmetric" (`seifert.signature`) moves rows and columns
together, so that the matrix eliminated stays congruent to the symmetric
input.  The elimination takes an optional deadline and reads
it after each pivot it yields, before the step that follows; the budget
helpers that every search, invariant and check shares (`search_deadline`,
`check_deadline`, `SearchBudgetExceeded`) live here, the bottom layer.  The
text format is: first line the size r, then r lines of r space-separated
integers.  Lines starting with '#' are comments.

The elimination skips zero entries.  Without swaps, entry (i, j) after step
k is the minor on rows 0..k, i and columns 0..k, j, and the pivot p_k is
the (k+1)-th leading principal minor (p_-1 = 1).  If row i is 0 in column
k, step k only multiplies the row by p_k / p_(k-1), so the row is left as
it is.  Each row keeps the pivot p_s its stored entries are exact at (1 at
the start, p_k once step k updates it): its true entries are the stored
ones x p_k / p_s.  An update divides by p_s in place of p_(k-1), and a
pivot row is first multiplied by p_(k-1) and divided by p_s, exact since
each true entry is a minor.  A stored zero is an exact zero, since every
scale is a nonzero pivot, so the zero tests and the swap choice read the
stored entries.  A row swap swaps the kept pivots with the rows.

`GramLattice` eliminates dicts of the nonzero entries of its sparse rows
inside their envelope, the last column where each row is nonzero.  Let
E[i] be the largest of those last columns over rows 0..i.  Elimination
without swaps stays inside the envelope that E bounds (George and Liu,
"Computer Solution of Large Sparse Positive Definite Systems", 1981): an
update of row i at step k < i combines it with row k, so row i stays 0
past column E[i]; and the remaining block is symmetric, so column k is 0
below row E[k].  Step k therefore updates only the rows up to E[k], and,
since E does not decrease, only their columns up to E[E[k]].  On a
tridiagonal (path) Gram matrix E[k] = k + 1, so a step updates two entries
of one row, and the pass costs O(n).  A dense caller (`det`, `signature`,
`alexander`) has the whole matrix as its envelope, E[k] = n - 1: every
step reaches the last row and column, which costs O(n^2) on a path (each
step updates one row) and O(n^3) on dense input.

The symmetric mode permutes rows and columns of the remaining block alike,
which permutes its bordered minors, so each pivot is a leading principal
minor of a symmetric permutation of the input.  When every remaining
diagonal entry is 0 but some a_ij (i < j) is not, it adds row j to row i
and column j to column i, a unimodular congruence that makes a_ii =
2 a_ij.  The remaining entries are bordered minors, linear in their last
row and in their last column, so after the addition they are the bordered
minors of the congruent integer matrix, and every later division is still
exact; rows i and j are first brought to the current pivot's scale, so
that their stored entries add.  The pass stops when the remaining block is
all zero.
"""

from __future__ import annotations

import logging
import operator
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress

log = logging.getLogger(__name__)

IntMatrix = tuple[tuple[int, ...], ...]


class SearchBudgetExceeded(Exception):
    """Raised when a computation runs out of its budget: the node or time
    budget of an embedding search, or the time budget of a curve search, of
    a positive-definiteness check, or of a signature, determinant or
    Alexander polynomial."""


def search_deadline(cap_seconds: float | None) -> float | None:
    """The time.monotonic() reading past which a search with a budget of
    cap_seconds from now stops, or None without a budget.  Raises ValueError
    unless cap_seconds > 0."""
    # `not cap_seconds > 0` also rejects nan, a deadline no clock reading passes
    if cap_seconds is not None and not cap_seconds > 0:
        raise ValueError("time budget must be > 0")
    return None if cap_seconds is None else time.monotonic() + cap_seconds


def check_deadline(deadline: float | None) -> None:
    """Raise SearchBudgetExceeded when the clock is past the deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchBudgetExceeded("time budget exceeded")


def as_vector(entries) -> tuple[int, ...]:
    """The entries as a tuple of exact ints, each through operator.index:
    a bool or a numpy integer converts, a float, a Fraction or a str raises
    TypeError."""
    return tuple(map(operator.index, entries))


def as_matrix(rows) -> IntMatrix:
    """The rows as a square matrix of exact ints, each row through
    as_vector (so a non-integer entry raises TypeError).  Raises ValueError
    unless it is square."""
    mat = tuple(map(as_vector, rows))
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    return mat


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def is_symmetric(m: IntMatrix) -> bool:
    return m == transpose(m)


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def symmetrize(m: IntMatrix) -> IntMatrix:
    """m + m^T."""
    return add(m, transpose(m))


def mat_vec(m: IntMatrix, v) -> tuple[int, ...]:
    return tuple([sum(map(operator.mul, row, v)) for row in m])


def _bareiss_pivots(m, pivoting: str, deadline: float | None = None, ends=None):
    """Fraction-free Bareiss elimination of m (Bareiss 1968), pivot by pivot.

    pivoting is "rows", "none" or "symmetric" (see the module docstring).
    Yields each pivot times the sign of the row swaps so far.  With
    "none" the k-th pivot is the k-th leading principal minor; with "rows"
    the last one yielded is det(m).  Both stop after a zero pivot.  With
    "symmetric" (m symmetric) the pivots are the nonzero leading principal
    minors of a matrix integrally congruent to m whose remaining block is
    zero, so their number is the rank of m, and the last is det(m) when m
    is nonsingular.  A row that is 0 in the pivot column is not rescaled
    (see the module docstring).  With a deadline (a time.monotonic
    reading), it is read once after each pivot yielded, before the step
    that follows, and SearchBudgetExceeded is raised when it is past.

    ends, for "none" on a symmetric m only, is its envelope: ends[i] is the
    last column where row i is nonzero.  The rows of m are then the pass's
    working rows, which it overwrites: dicts of the nonzero entries that
    read 0 at any other column.  Without ends m is dense: the pass works on
    list copies of its rows, and its envelope is the whole matrix, every
    end n - 1.  With E the running maximum of the ends, step k rescales row
    k up to column E[k] and updates the rows up to E[k] in the columns up
    to E[E[k]] (see the module docstring).
    """
    n = len(m)
    if ends is None:
        a = [list(row) for row in m]
        ends = [n - 1] * n
    else:
        a = m
        ends = list(accumulate(ends, max))
    # at[i]: the pivot that row i's stored entries are exact at
    at = [1] * n
    sign = 1
    prev = 1
    for k in range(n):
        if pivoting != "none" and a[k][k] == 0:
            if pivoting == "rows":
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        at[k], at[i] = at[i], at[k]
                        sign = -sign
                        break
            elif not _symmetric_pivot(a, at, k, prev):
                return
        row_k = a[k]
        if at[k] != prev:
            s = at[k]
            for j in range(k, ends[k] + 1):
                row_k[j] = row_k[j] * prev // s
        pivot = row_k[k]
        yield sign * pivot
        if deadline is not None:
            check_deadline(deadline)
        if pivot == 0:
            return
        end = ends[k]
        cols = range(k + 1, ends[end] + 1)
        for i in range(k + 1, end + 1):
            row_i = a[i]
            aik = row_i[k]
            if aik == 0:
                continue
            d = at[i]
            at[i] = pivot
            for j in cols:
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // d
        prev = pivot


def _symmetric_pivot(a, at, k: int, prev: int) -> bool:
    """Bring a nonzero diagonal entry to (k, k) by a congruence of the
    remaining block of a (rows and columns k..), at step k of the symmetric
    mode with prev the last pivot.  False when that block is all zero."""
    n = len(a)
    i = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
    if i is None:
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None)
        if pair is None:
            return False
        i, j = pair
        for r in pair:
            if at[r] != prev:
                s = at[r]
                a[r][k:] = [x * prev // s for x in a[r][k:]]
                at[r] = prev
        row_i, row_j = a[i], a[j]
        for c in range(k, n):
            row_i[c] += row_j[c]
        for r in range(k, n):
            a[r][i] += a[r][j]
    a[k], a[i] = a[i], a[k]
    at[k], at[i] = at[i], at[k]
    for r in range(k, n):
        row = a[r]
        row[k], row[i] = row[i], row[k]
    return True


def det(m: IntMatrix, deadline: float | None = None) -> int:
    """Exact integer determinant (Bareiss elimination with row swaps), the
    optional deadline read between its pivots."""
    d = 1
    for d in _bareiss_pivots(m, "rows", deadline):
        pass
    return d


def leading_principal_minors(m, deadline: float | None = None, ends=None) -> list[int]:
    """Leading principal minors of m in order of size, from one Bareiss pass
    without row swaps, the optional deadline read between its pivots.
    Stops after the first minor <= 0, so all n minors are returned exactly
    when m is positive definite.  With ends, m is symmetric, and its rows
    are working rows that the pass overwrites, as _bareiss_pivots takes
    them."""
    minors = []
    for minor in _bareiss_pivots(m, "none", deadline, ends):
        minors.append(minor)
        if minor <= 0:
            break
    return minors


SparseRows = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, init=False)
class GramLattice:
    """Symmetric positive-definite integer Gram matrix of a lattice basis.

    The lattice is kept as its sparse rows: rows[i] holds the nonzero
    entries (j, g[i][j]) of row i, in column order, so a path lattice holds
    O(rank) entries.  No lattice keeps a dense matrix: `gram` is built from
    the rows on first read.  Two lattices are equal when their rows are.

    GramLattice(gram) converts one row at a time through as_vector
    (TypeError on a non-integer entry), keeping its nonzero entries, and
    raises ValueError unless the matrix is square.  It and `_of_rows` share
    one builder: it refuses a matrix that is not symmetric, then checks
    positive definiteness once on dict rows inside the envelope of the
    sparse rows, so every search may rely on both, and logs one INFO record
    on the "knotgenus.matrices" logger with the rank, the verdict and the
    time.  The rank-0 lattice is positive definite.  cap_seconds (> 0, or
    None for no budget) bounds the build from the call: it is read between
    the pivots of the check, and SearchBudgetExceeded is raised when it
    has run out.  A bad value raises ValueError before any work.  The
    check's leading principal minors are kept, private, for the local test
    of `lattice.min_embedding_dim`; equality and the hash read the rows
    only.
    """

    rows: SparseRows

    def __init__(self, gram, cap_seconds: float | None = None):
        deadline = search_deadline(cap_seconds)
        rows, widths = [], set()
        for row in gram:
            row = as_vector(row)
            widths.add(len(row))
            rows.append(tuple(compress(enumerate(row), row)))
        if widths - {len(rows)}:
            raise ValueError("matrix must be square")
        self._build(rows, deadline)

    @classmethod
    def _of_rows(cls, rows) -> GramLattice:
        """The lattice of sparse rows of exact ints, without a budget."""
        lattice = cls.__new__(cls)
        lattice._build(rows, None)
        return lattice

    def _build(self, rows, deadline: float | None) -> None:
        """Keep rows, of a square matrix, once every entry (i, j, x) has its
        mirror (j, i, x) and every leading principal minor is positive."""
        rows = tuple(rows)
        work = [defaultdict(int, row) for row in rows]
        if any(work[j].get(i) != x for i, row in enumerate(rows) for j, x in row):
            raise ValueError("Gram matrix must be symmetric")
        start = time.perf_counter()
        ends = [row[-1][0] if row else 0 for row in rows]
        minors = leading_principal_minors(work, deadline, ends)
        definite = not minors or minors[-1] > 0
        log.info(
            "positive-definiteness check: rank %d, %s, %.3f s",
            len(rows),
            "positive definite" if definite else "not positive definite",
            time.perf_counter() - start,
        )
        if not definite:
            # past the interpreter's limit on int to str, a minor, here < 0,
            # is named by its size
            minor = minors[-1]
            shown = minor if minor > -(10**30) else f"negative, of {minor.bit_length()} bits"
            raise ValueError(
                f"Gram matrix is not positive definite: leading principal minor "
                f"{len(minors)} is {shown}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_minors", tuple(minors))

    @cached_property
    def gram(self) -> IntMatrix:
        """The Gram matrix, built from the sparse rows on first read."""
        dense = [[0] * len(self.rows) for _ in self.rows]
        for row, entries in zip(dense, self.rows):
            for j, x in entries:
                row[j] = x
        return tuple(map(tuple, dense))

    @property
    def rank(self) -> int:
        return len(self.rows)


def format_matrix_text(m) -> str:
    """The text parse_matrix_text reads back as m: its size, then one line
    per row.  m goes through as_matrix; the 0x0 matrix, which the reader
    refuses, raises ValueError."""
    m = as_matrix(m)
    if not m:
        raise ValueError("matrix size must be positive")
    lines = [str(len(m))]
    for row in m:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> IntMatrix:
    rows = []
    size = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if size is None:
            try:
                size = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: expected matrix size, got {line!r}")
            if size <= 0:
                raise ValueError(f"line {lineno}: matrix size must be positive")
            continue
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}")
        if len(row) != size:
            raise ValueError(f"line {lineno}: expected {size} entries, got {len(row)}")
        rows.append(row)
    if size is None:
        raise ValueError("empty matrix file")
    if len(rows) != size:
        raise ValueError(f"expected {size} rows, got {len(rows)}")
    return tuple(rows)
