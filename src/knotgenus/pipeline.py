"""Assembles invariants and search verdicts into slice-genus reports.

For each K(m,n): the signature gives g_top >= 1 and the genus-2 Seifert
surface gives g_sm <= 2.  A genus-1 reduction certificate pins g_top = 1.
Non-embeddability of the Goeritz lattice into Z^(rank - sigma) rules out
g_sm = 1, pinning g_sm = 2.  It is decided on the lattice's chain
contraction (`lattice.contract_chain`), whose non-embeddability implies that
of Q(m,n); when the contraction embeds, Q(m,n) itself is searched.
Budget-limited searches report "inconclusive" rather than guessing.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import json
import operator
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .curve_search import _check_search_size, find_genus1_certificate
from .lattice import (
    Embedding,
    SearchBudgetExceeded,
    _check_witness_entries,
    contract_chain,
    find_embedding,
)
from .matrices import symmetrize
from .seifert import (
    CurveCertificate,
    LaurentPolynomial,
    alexander,
    knot_determinant,
    signature,
)
from .two_bridge import (
    KnotParams,
    continued_fraction,
    crossing_count,
    knot_fraction,
    path_gram,
    plumbing_weights,
    qmn_gram,
    seifert_matrix,
)


@dataclass(frozen=True)
class EmbeddingVerdict:
    tested_dim: int
    embeddable: bool | str  # True, False, or "inconclusive"
    witness: Embedding | None = None


@dataclass(frozen=True)
class SliceReport:
    """The invariants and search results of one knot.  The genus bounds and
    the notes are derived from them, here and nowhere else."""

    params: KnotParams
    fraction: Fraction
    signature: int
    determinant: int
    alexander: LaurentPolynomial
    curve_bound: int | None = None  # the curve search's height cap, if it ran
    curve_certificate: CurveCertificate | None = None
    embedding_verdict: EmbeddingVerdict | None = None

    gsm_upper = 2  # the genus-2 Seifert surface

    @property
    def gtop_lower(self) -> int:
        """The signature bound |sigma| <= 2 g_top."""
        return (abs(self.signature) + 1) // 2

    @property
    def gtop_upper(self) -> int:
        """1 with a genus-1 certificate, else the Seifert surface's genus."""
        return 1 if self.curve_certificate is not None else self.gsm_upper

    @property
    def gsm_lower(self) -> int:
        """1 - sigma/2 once the Goeritz lattice misses Z^(rank - sigma)."""
        v = self.embedding_verdict
        if v is not None and v.embeddable is False:
            return 1 - self.signature // 2
        return self.gtop_lower

    @property
    def conclusive(self) -> bool:
        return (
            self.embedding_verdict is not None
            and self.embedding_verdict.embeddable != "inconclusive"
        )

    @property
    def notes(self) -> tuple[str, ...]:
        """The family notes of the params, then what each search that ran found."""
        notes = _family_notes(self.params)
        if self.curve_bound is not None:
            if self.curve_certificate is None:
                notes.append(f"curve search: no certificate within bound {self.curve_bound}")
            else:
                if not _certificate_families(self.params):
                    notes.append("certificate found by exhaustive search only")
                notes.append(f"curve search: certificate found within bound {self.curve_bound}")
        v = self.embedding_verdict
        if v is not None:
            outcome = {True: ": witness found", False: " exhaustive: no embedding",
                       "inconclusive": " hit its budget: inconclusive"}[v.embeddable]
            notes.append(f"embedding search at dim {v.tested_dim}{outcome}")
        return tuple(notes)


def obstruction_dim(rank: int, sigma: int) -> int:
    """Ambient dimension rank - sigma at which non-embeddability of the
    Goeritz lattice obstructs g_sm = -sigma/2.  rank and sigma are exact
    ints (TypeError otherwise, by operator.index)."""
    rank, sigma = operator.index(rank), operator.index(sigma)
    if sigma > 0:
        raise ValueError("proposition requires sigma <= 0")
    return rank - sigma


def _is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


def _certificate_families(k: KnotParams) -> list[str]:
    """The cases of the paper's certificate families that k lies in."""
    m, n = k.m, k.n
    cases = [
        ("m = n = 0", m == 0 and n == 0),
        (f"m + 2 = {m + 2} is a perfect square", _is_square(m + 2)),
        (f"n + 3 = {n + 3} is a perfect square", _is_square(n + 3)),
    ]
    return [case for case, holds in cases if holds]


def default_search_bound(k: KnotParams) -> int:
    """The curve search's height cap for k: the largest of sqrt(m+2),
    sqrt(n+3) and 2, rounded up, plus one of margin, as the box search
    that the constructor replaced needed to hold the certificate families
    above.  The constructor finds a certificate of every K(m,n) with
    m, n <= 100 at height 7 or less."""
    # ceil(sqrt(x)) is isqrt(x - 1) + 1 for x >= 1
    return max(3, isqrt(k.m + 1) + 1, isqrt(k.n + 2) + 1) + 1


def _family_notes(k: KnotParams) -> list[str]:
    m, n = k.m, k.n
    notes = ["appears in knot tables as 12a255"] if m == 0 and n == 0 else []
    notes += [f"certificate family case: {case}" for case in _certificate_families(k)]
    if _is_square(m + 3) and not _is_square(m + 2):
        notes.append(
            f"stated-condition discrepancy: m + 3 = {m + 3} is a perfect square "
            "but m + 2 is not; certificate presence is determined empirically"
        )
    if _is_square(n + 2) and not _is_square(n + 3):
        notes.append(
            f"stated-condition discrepancy: n + 2 = {n + 2} is a perfect square "
            "but n + 3 is not; certificate presence is determined empirically"
        )
    return notes


def genus_bounds(k: KnotParams) -> SliceReport:
    """Invariants and a-priori bounds only; no searches."""
    mat = seifert_matrix(k)
    return SliceReport(
        params=k,
        fraction=knot_fraction(k),
        signature=signature(symmetrize(mat)),
        determinant=knot_determinant(mat),
        alexander=alexander(mat),
    )


def _search_sizes(k: KnotParams, curve_bound: int | None, sigma: int) -> tuple[int, int]:
    """The curve bound (default_search_bound(k) when None) and the
    obstruction dimension of the searches of one row, from m and n alone:
    Q(m,n) has rank 2m + 2n + 8, so nothing is built.  Raises the ValueError
    of the curve-search size guard or of the witness guard."""
    if curve_bound is None:
        curve_bound = default_search_bound(k)
    _check_search_size(3, curve_bound)  # K(m,n) is 4x4, and c3 is solved for (M33 = 1)
    rank = 2 * k.m + 2 * k.n + 8
    dim = obstruction_dim(rank, sigma)
    _check_witness_entries(rank, dim)
    return curve_bound, dim


@functools.lru_cache(maxsize=1)
def _contracted_lattice(weights: tuple[int, ...]):
    """path_gram(weights), kept for the last weights: every row of a grid
    contracts to the weights of Q(0,0), so a process builds that lattice
    once."""
    return path_gram(weights)


def full_report(
    k: KnotParams,
    curve_bound: int | None = None,
    embed_cap_seconds: float | None = None,
) -> SliceReport:
    """Run both searches and assemble the final verdicts.  The embedding
    search runs on the chain contraction of Q(m,n) at the contracted
    dimension, Q(0,0) in Z^10 for every K(m,n): an absent result is exact by
    the lemma of `contract_chain`, and a found one is not, so then Q(m,n)
    itself is searched at the obstruction dimension.  Each search checks
    what it returns, the certificate and the witness, and raises
    RuntimeError on one its check rejects.  find_embedding remembers its
    last search, and `_contracted_lattice` the last contracted lattice, so
    in one process the first report builds and searches Q(0,0) and every
    later one is answered from that memo.
    embed_cap_seconds is the time budget of each embedding search, checked
    by find_embedding.  Raises the ValueError of the curve-search size guard
    or of the witness guard from m and n alone, before any search runs or
    any lattice is built.  A curve_bound that is not an exact int raises
    TypeError."""
    if curve_bound is not None:
        curve_bound = operator.index(curve_bound)
    base = genus_bounds(k)
    curve_bound, dim = _search_sizes(k, curve_bound, base.signature)
    mat = seifert_matrix(k)
    cert = find_genus1_certificate(mat, curve_bound)

    # Q(m,n) in Z^dim contracts to Q(0,0) in Z^10, which the search rules
    # out in 14 nodes; the lemma runs one way, so only Q(m,n) itself at dim
    # may give a witness
    weights, small_dim = contract_chain(plumbing_weights(k), dim)
    try:
        witness = find_embedding(
            _contracted_lattice(weights), small_dim, cap_seconds=embed_cap_seconds
        )
        if witness is not None:
            witness = find_embedding(qmn_gram(k), dim, cap_seconds=embed_cap_seconds)
    except SearchBudgetExceeded:
        verdict = EmbeddingVerdict(dim, "inconclusive", None)
    else:
        verdict = EmbeddingVerdict(dim, witness is not None, witness)

    return replace(base, curve_bound=curve_bound, curve_certificate=cert, embedding_verdict=verdict)


def verify_theorem(
    m_max: int,
    n_max: int,
    curve_bound: int | None = None,
    embed_cap_seconds: float | None = None,
    jobs: int | None = None,
) -> list[SliceReport]:
    """One report per (m, n) <= (m_max, n_max), in lexicographic order.

    Rows are independent; with jobs > 1 they run in a pool of at most jobs
    workers (and no more than the rows or the CPUs), in deterministic order.
    Raises the ValueError of the curve-search size guard or of the witness
    guard before any row runs when the last row, K(m_max, n_max), would
    raise it: both guards grow with m and n, and the check is the one each
    row's full_report makes, from m and n alone.  m_max, n_max, curve_bound
    and jobs are exact ints (TypeError otherwise, by operator.index).
    """
    m_max, n_max = operator.index(m_max), operator.index(n_max)
    if curve_bound is not None:
        curve_bound = operator.index(curve_bound)
    if jobs is not None:
        jobs = operator.index(jobs)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
    if m_max < 0 or n_max < 0:
        raise ValueError("ranges must be >= 0")
    last = KnotParams(m_max, n_max)
    _search_sizes(last, curve_bound, signature(symmetrize(seifert_matrix(last))))
    grid = [KnotParams(m, n) for m in range(m_max + 1) for n in range(n_max + 1)]
    report = functools.partial(
        full_report, curve_bound=curve_bound, embed_cap_seconds=embed_cap_seconds
    )
    # the pool starts all its workers at the first submit
    workers = min(jobs or 1, len(grid), os.cpu_count() or 1)
    if workers > 1:
        # about four chunks per worker: one row is too little work to ship
        chunksize = -(-len(grid) // (4 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(report, grid, chunksize=chunksize))
    return [report(k) for k in grid]


# ---------------------------------------------------------------------------
# serialization

def report_to_dict(r: SliceReport) -> dict:
    cert = None
    if r.curve_certificate is not None:
        cert = {
            "a": list(r.curve_certificate.a),
            "b": list(r.curve_certificate.b),
            "restricted_form": [list(row) for row in r.curve_certificate.restricted_form],
        }
    verdict = None
    if r.embedding_verdict is not None:
        witness = None
        if r.embedding_verdict.witness is not None:
            witness = [list(v) for v in r.embedding_verdict.witness.vectors]
        verdict = {
            "tested_dim": r.embedding_verdict.tested_dim,
            "embeddable": r.embedding_verdict.embeddable,
            "witness": witness,
        }
    return {
        "params": {"m": r.params.m, "n": r.params.n},
        "fraction": f"{r.fraction.numerator}/{r.fraction.denominator}",
        "continued_fraction": continued_fraction(r.params),
        "crossings": crossing_count(r.params),
        "signature": r.signature,
        "determinant": r.determinant,
        "alexander": str(r.alexander),
        "gtop_lower": r.gtop_lower,
        "gtop_upper": r.gtop_upper,
        "gsm_lower": r.gsm_lower,
        "gsm_upper": r.gsm_upper,
        "curve_certificate": cert,
        "embedding_verdict": verdict,
        "notes": list(r.notes),
    }


def format_certificate(cert: CurveCertificate) -> str:
    a = ", ".join(str(x) for x in cert.a)
    b = ", ".join(str(x) for x in cert.b)
    f = cert.restricted_form
    form = f"[[{f[0][0]},{f[0][1]}],[{f[1][0]},{f[1][1]}]]"
    return f"a = ({a}) ; b = ({b}) ; form = {form}"


def report_to_text(r: SliceReport) -> str:
    """The human form of a report, one line per field and note."""
    lines = [
        f"K(m={r.params.m}, n={r.params.n})",
        f"  fraction            = {r.fraction.numerator}/{r.fraction.denominator}",
        f"  continued fraction  = {continued_fraction(r.params)}",
        f"  crossings           = {crossing_count(r.params)}",
        f"  sigma = {r.signature}",
        f"  det = {r.determinant}",
        f"  alexander           = {r.alexander}",
    ]
    bounds = (("g_top", r.gtop_lower, r.gtop_upper), ("g_sm ", r.gsm_lower, r.gsm_upper))
    for name, lo, hi in bounds:
        lines.append(f"  {name} = {lo}" if lo == hi else f"  {name} in [{lo}, {hi}]")
    if r.curve_certificate is not None:
        lines.append(f"  certificate: {format_certificate(r.curve_certificate)}")
    v = r.embedding_verdict
    if v is not None:
        lines.append(f"  embedding at dim {v.tested_dim}: {v.embeddable}")
    lines += [f"  note: {note}" for note in r.notes]
    return "".join(line + "\n" for line in lines)


def render_json(obj) -> str:
    """Canonical JSON rendering (stable key order, fixed layout)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = [
    "m",
    "n",
    "fraction",
    "signature",
    "determinant",
    "gtop_lower",
    "gtop_upper",
    "gsm_lower",
    "gsm_upper",
    "certificate_found",
    "embedding_verdict",
]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        verdict = ""
        if r.embedding_verdict is not None:
            verdict = str(r.embedding_verdict.embeddable).lower()
        writer.writerow(
            [
                r.params.m,
                r.params.n,
                f"{r.fraction.numerator}/{r.fraction.denominator}",
                r.signature,
                r.determinant,
                r.gtop_lower,
                r.gtop_upper,
                r.gsm_lower,
                r.gsm_upper,
                "yes" if r.curve_certificate is not None else "no",
                verdict,
            ]
        )
    return buf.getvalue()
