import concurrent.futures
import json
import os
import time
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from knotgenus import curve_search, lattice, pipeline
from knotgenus.curve_search import find_genus1_certificate
from knotgenus.lattice import find_embedding, verify_embedding
from knotgenus.matrices import det
from knotgenus.pipeline import (
    EmbeddingVerdict,
    SliceReport,
    default_search_bound,
    full_report,
    genus_bounds,
    obstruction_dim,
    render_json,
    report_to_dict,
    reports_to_csv,
    verify_theorem,
)
from knotgenus.two_bridge import KnotParams, knot_fraction, path_gram, qmn_gram, seifert_matrix
from knotgenus.seifert import CurveCertificate, alexander, knot_determinant
from test_lattice import unit_vector_run


def test_genus_bounds_k00():
    r = genus_bounds(KnotParams(0, 0))
    assert (r.gtop_lower, r.gtop_upper, r.gsm_lower, r.gsm_upper) == (1, 2, 1, 2)
    assert r.signature == -2
    assert r.determinant == 107
    assert r.fraction == Fraction(107, 28)
    assert any("12a255" in note for note in r.notes)


def test_genus_bounds_far_from_origin():
    r = genus_bounds(KnotParams(3, 7))
    assert r.signature == -2
    assert (r.gtop_lower, r.gtop_upper, r.gsm_lower, r.gsm_upper) == (1, 2, 1, 2)


def test_gtop_lower_always_one():
    for m in range(0, 11, 5):
        for n in range(0, 11, 5):
            assert genus_bounds(KnotParams(m, n)).gtop_lower == 1


# the certificate that the curve search finds for K(0,0)
CERT = CurveCertificate((0, 0, 1, 0), (-1, -1, -4, -2), ((-1, 4), (5, -20)))


K00_FAMILY_NOTES = (
    "appears in knot tables as 12a255",
    "certificate family case: m = n = 0",
)

EMBEDDING_NOTES = {
    None: (),
    False: ("embedding search at dim 10 exhaustive: no embedding",),
    True: ("embedding search at dim 10: witness found",),
    "inconclusive": ("embedding search at dim 10 hit its budget: inconclusive",),
}


@pytest.mark.parametrize("cert", [None, CERT])
@pytest.mark.parametrize("embeddable", [None, False, True, "inconclusive"])
def test_genus_bounds_follow_the_evidence(cert, embeddable):
    # sigma = -2: g_top >= 1, a certificate gives g_top <= 1, the genus-2
    # surface g_sm <= 2, and only an exhaustive non-embedding g_sm >= 2
    verdict = None if embeddable is None else EmbeddingVerdict(10, embeddable)
    r = replace(genus_bounds(KnotParams(0, 0)), curve_certificate=cert, embedding_verdict=verdict)
    gtop_upper = 2 if cert is None else 1
    gsm_lower = 2 if embeddable is False else 1
    assert (r.gtop_lower, r.gtop_upper, r.gsm_lower, r.gsm_upper) == (1, gtop_upper, gsm_lower, 2)
    assert r.conclusive == (embeddable in (False, True))
    # a curve note only when the search ran, and it says what it found
    assert r.notes == K00_FAMILY_NOTES + EMBEDDING_NOTES[embeddable]
    found = "no certificate" if cert is None else "certificate found"
    curve_note = f"curve search: {found} within bound 4"
    assert replace(r, curve_bound=4).notes == (
        K00_FAMILY_NOTES + (curve_note,) + EMBEDDING_NOTES[embeddable]
    )


def test_a_report_with_a_witness_serializes_it():
    # no K(m,n) embeds at its obstruction dimension, so full_report never
    # holds a witness; Q(0,0), of rank 8, embeds one dimension higher, in Z^11
    g = qmn_gram(KnotParams(0, 0))
    witness = find_embedding(g, 11)
    assert witness is not None and verify_embedding(g, witness)
    r = replace(
        genus_bounds(KnotParams(0, 0)),
        curve_bound=4,
        curve_certificate=CERT,
        embedding_verdict=EmbeddingVerdict(11, True, witness),
    )
    d = report_to_dict(r)
    assert d["embedding_verdict"] == {
        "tested_dim": 11,
        "embeddable": True,
        "witness": [list(v) for v in witness.vectors],
    }
    assert len(d["embedding_verdict"]["witness"]) == 8
    assert all(len(v) == 11 for v in d["embedding_verdict"]["witness"])
    assert d["curve_certificate"] == {
        "a": [0, 0, 1, 0],
        "b": [-1, -1, -4, -2],
        "restricted_form": [[-1, 4], [5, -20]],
    }
    assert d["notes"][-1] == "embedding search at dim 11: witness found"
    assert json.loads(render_json(d)) == d
    assert reports_to_csv([r]).splitlines()[1] == "0,0,107/28,-2,107,1,1,1,2,yes,true"


def test_notes_follow_a_replaced_certificate():
    r = replace(full_report(KnotParams(0, 0)), curve_certificate=None)
    assert r.gtop_upper == 2
    assert "curve search: no certificate within bound 4" in r.notes
    assert not any("certificate found" in note for note in r.notes)
    assert report_to_dict(r)["notes"] == list(r.notes)


def test_slice_report_stores_only_evidence():
    assert [f.name for f in fields(SliceReport)] == [
        "params",
        "fraction",
        "signature",
        "determinant",
        "alexander",
        "curve_bound",
        "curve_certificate",
        "embedding_verdict",
    ]
    report = genus_bounds(KnotParams(0, 0))
    with pytest.raises(AttributeError):
        report.notes = ()


def test_obstruction_dim():
    assert obstruction_dim(8, -2) == 10
    assert obstruction_dim(10, -2) == 12
    assert obstruction_dim(5, 0) == 5
    with pytest.raises(ValueError, match="sigma <= 0"):
        obstruction_dim(5, 2)


def test_full_report_k00():
    r = full_report(KnotParams(0, 0))
    assert (r.gtop_lower, r.gtop_upper) == (1, 1)
    assert (r.gsm_lower, r.gsm_upper) == (2, 2)
    assert r.curve_certificate is not None
    assert r.embedding_verdict.tested_dim == 10
    assert r.embedding_verdict.embeddable is False
    assert r.conclusive


def test_full_report_k21():
    r = full_report(KnotParams(2, 1))
    assert r.gtop_upper == 1  # m+2 = 4 is a perfect square
    assert (r.gsm_lower, r.gsm_upper) == (2, 2)


def test_full_report_inconclusive_on_tiny_budget():
    r = full_report(KnotParams(0, 0), embed_cap_seconds=1e-9)
    assert r.embedding_verdict.embeddable == "inconclusive"
    assert not r.conclusive
    assert (r.gsm_lower, r.gsm_upper) == (1, 2)


@pytest.mark.parametrize("seconds", [float("nan"), 0, -1])
def test_full_report_rejects_bad_time_budget(seconds):
    with pytest.raises(ValueError, match="time budget must be > 0"):
        full_report(KnotParams(0, 0), embed_cap_seconds=seconds)


@pytest.mark.parametrize("jobs", [0, -3])
def test_verify_theorem_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        verify_theorem(0, 0, jobs=jobs)


def test_search_sizes_match_the_built_lattice():
    # the closed form rank 2m + 2n + 8 stands in for the Gram matrix
    for m, n in ((0, 0), (3, 1), (0, 7), (12, 5)):
        k = KnotParams(m, n)
        sigma = genus_bounds(k).signature
        assert pipeline._search_sizes(k, None, sigma) == (
            default_search_bound(k),
            obstruction_dim(qmn_gram(k).rank, sigma),
        )
        assert pipeline._search_sizes(k, 2, sigma)[0] == 2


def test_full_report_refuses_an_oversized_row_before_any_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a search or the Gram build ran before the row was refused")

    for name in ("find_genus1_certificate", "contract_chain", "path_gram", "qmn_gram"):
        monkeypatch.setattr(pipeline, name, never)
    # Q(1444,0) has rank 2896, and its witness in Z^2898 more than 2^23 entries
    with pytest.raises(ValueError, match="embedding too large: rank 2896 in dimension 2898"):
        full_report(KnotParams(1444, 0), curve_bound=3)
    # the default curve bound of K(1443,0) is 40: 81^3 vectors
    with pytest.raises(ValueError, match="curve search box too large"):
        full_report(KnotParams(1443, 0))


def test_verify_theorem_refuses_a_huge_range_from_m_and_n():
    # no plumbing weight or Gram entry of the last row is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="embedding too large"):
        verify_theorem(10**9, 0, curve_bound=1)
    assert time.perf_counter() - start < 0.5


def test_verify_theorem_refuses_an_oversized_range_before_any_row(monkeypatch):
    # both guards grow with m and n, so the last row decides before the grid
    # is built; a row that ran would fail here
    def no_row(*args, **kwargs):
        raise AssertionError("a row ran before the range was refused")

    monkeypatch.setattr(pipeline, "full_report", no_row)
    # the default curve bound of K(1443,0) is 40: 81^3 vectors
    last = seifert_matrix(KnotParams(1443, 0))
    with pytest.raises(ValueError) as refused:
        find_genus1_certificate(last, default_search_bound(KnotParams(1443, 0)))
    with pytest.raises(ValueError, match="curve search box too large") as early:
        verify_theorem(1443, 0)
    assert str(early.value) == str(refused.value)
    # Q(1444,0) has rank 2896, and its witness in Z^2898 more than 2^23 entries
    with pytest.raises(ValueError, match="embedding too large: rank 2896 in dimension 2898"):
        verify_theorem(1444, 0, curve_bound=3)
    with pytest.raises(ValueError, match="embedding too large"):
        verify_theorem(0, 1444, curve_bound=3)
    # one row less passes both guards, and every row runs
    ran = []
    monkeypatch.setattr(pipeline, "full_report", lambda k, **options: ran.append(k))
    assert len(verify_theorem(1442, 0)) == 1443
    assert len(verify_theorem(1443, 0, curve_bound=3)) == 1444
    assert ran[-1] == KnotParams(1443, 0)


def test_full_report_rechecks_search_results(monkeypatch):
    # each search checks what it returns, so a bogus certificate or witness
    # stops the report; the checks raise, not assert, so that python -O
    # keeps them
    k = KnotParams(0, 0)
    bogus_cert = CurveCertificate((1, 0, 0, 0), (0, 1, 0, 0), ((0, 0), (0, 0)))
    monkeypatch.setattr(
        curve_search, "_construct", lambda mat, k, bound, deadline: (bogus_cert, 1, 1)
    )
    with pytest.raises(RuntimeError, match="invalid certificate"):
        full_report(k)
    monkeypatch.undo()

    # the contraction's search, not answered from the memo, "finds" unit
    # vectors, whose dot products are not those of the path lattice
    monkeypatch.setattr(lattice, "_last_search", None)
    monkeypatch.setattr(lattice._EmbedSearch, "run", unit_vector_run)
    with pytest.raises(RuntimeError, match="invalid witness"):
        full_report(k)


def test_full_report_searches_qmn_only_when_its_contraction_embeds(monkeypatch):
    # the contraction's absence decides: Q(m,n) is not even built
    searches = []

    def recorded(g, dim, **budget):
        witness = find_embedding(g, dim, **budget)
        searches.append((g.rank, dim, witness is not None))
        return witness

    def never(k):
        raise AssertionError("Q(m,n) was built after its contraction was found absent")

    monkeypatch.setattr(pipeline, "find_embedding", recorded)
    monkeypatch.setattr(pipeline, "qmn_gram", never)
    r = full_report(KnotParams(3, 2))
    assert searches == [(8, 10, False)]
    assert r.embedding_verdict == EmbeddingVerdict(20, False, None)
    monkeypatch.undo()

    # one dimension up the lemma's converse fails: Q(0,0) embeds in Z^11,
    # Q(1,0) not in Z^13; a found contraction runs the full search at dim,
    # and its verdict is the report's
    sizes = pipeline._search_sizes

    def one_dimension_up(*args):
        bound, dim = sizes(*args)
        return bound, dim + 1

    monkeypatch.setattr(pipeline, "find_embedding", recorded)
    monkeypatch.setattr(pipeline, "_search_sizes", one_dimension_up)
    searches.clear()
    r = full_report(KnotParams(1, 0))
    assert searches == [(8, 11, True), (10, 13, False)]
    assert r.embedding_verdict == EmbeddingVerdict(13, False, None)
    assert r.notes[-1] == "embedding search at dim 13 exhaustive: no embedding"


def test_one_contracted_search_decides_a_grid(monkeypatch):
    # every K(m,n) contracts to Q(0,0) in Z^10, so a serial grid searches
    # it once and answers every later row from the memo of find_embedding
    built = []

    class Counted(lattice._EmbedSearch):
        def __init__(self, g, ambient_dim, **budget):
            built.append((g.rank, ambient_dim))
            super().__init__(g, ambient_dim, **budget)

    monkeypatch.setattr(lattice, "_EmbedSearch", Counted)
    monkeypatch.setattr(lattice, "_last_search", None)
    remembered = verify_theorem(5, 5)
    assert built == [(8, 10)]

    def forgetting(k, **options):
        monkeypatch.setattr(lattice, "_last_search", None)
        return full_report(k, **options)

    built.clear()
    monkeypatch.setattr(pipeline, "full_report", forgetting)
    searched = verify_theorem(5, 5)
    assert built == [(8, 10)] * 36
    assert remembered == searched


def test_a_grid_builds_the_contracted_lattice_once(monkeypatch):
    # every row contracts to the weights of Q(0,0), and the last contracted
    # lattice is kept, so a serial grid builds it once
    built = []

    def counted(weights):
        built.append(weights)
        return path_gram(weights)

    monkeypatch.setattr(pipeline, "path_gram", counted)
    pipeline._contracted_lattice.cache_clear()
    verify_theorem(5, 5)
    assert built == [(2, 2, 3, 2, 2, 2, 3, 3)]


def test_verify_theorem_grid():
    reports = verify_theorem(1, 1)
    assert [(r.params.m, r.params.n) for r in reports] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    for r in reports:
        assert (r.gsm_lower, r.gsm_upper) == (2, 2)
        assert r.conclusive


def test_verify_theorem_jobs_deterministic():
    seq = verify_theorem(1, 0)
    par = verify_theorem(1, 0, jobs=2)
    assert [report_to_dict(r) for r in seq] == [report_to_dict(r) for r in par]


def test_verify_theorem_starts_no_more_workers_than_rows_or_cpus(monkeypatch):
    # the pool starts all its workers at the first submit, so --jobs is an
    # upper bound; a fake pool records its size and starts no process
    serial = [report_to_dict(r) for r in verify_theorem(1, 1)]
    started, chunks = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    reports = verify_theorem(1, 1, jobs=10**6)
    assert all(w <= min(4, os.cpu_count()) for w in started)
    assert [report_to_dict(r) for r in reports] == serial
    for cpus, expected in [(None, []), (1, []), (3, [3]), (64, [4])]:
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        started.clear()
        reports = verify_theorem(1, 1, jobs=10**6)
        assert started == expected
        assert [report_to_dict(r) for r in reports] == serial
    # about four chunks per worker, the rows in order
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    chunks.clear()
    reports = verify_theorem(3, 3, jobs=2)
    assert chunks == [2]
    assert [(r.params.m, r.params.n) for r in reports] == [(m, n) for m in range(4) for n in range(4)]


def test_cross_invariant_consistency():
    for m in range(4):
        for n in range(4):
            k = KnotParams(m, n)
            mat = seifert_matrix(k)
            d = knot_determinant(mat)
            at_minus_one = sum(-c if e % 2 else c for e, c in alexander(mat).coeffs.items())
            assert abs(at_minus_one) == d
            assert knot_fraction(k).numerator == d
            assert abs(det(qmn_gram(k).gram)) == d


def test_verdict_soundness():
    r = full_report(KnotParams(0, 0))
    if r.gtop_upper == 1:
        assert r.curve_certificate is not None
    if r.gsm_lower == 2:
        assert r.embedding_verdict.embeddable is False
        assert r.embedding_verdict.tested_dim == qmn_gram(r.params).rank + 2


def test_report_json_round_trip():
    r = full_report(KnotParams(0, 0))
    text = render_json(report_to_dict(r))
    assert render_json(json.loads(text)) == text


def test_reports_csv_shape():
    reports = verify_theorem(0, 0)
    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("m,n,fraction")
    assert lines[1].split(",")[:3] == ["0", "0", "107/28"]
