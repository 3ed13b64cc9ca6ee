import inspect
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import knotgenus
from knotgenus.cli import main
from knotgenus.matrices import format_matrix_text
from knotgenus.two_bridge import KnotParams, qmn_gram, seifert_matrix
from test_lattice import e8_gram, unit_vector_run
from test_matrices import BAD_MATRIX_TEXTS


@pytest.fixture
def q00_file(tmp_path):
    path = tmp_path / "q00.txt"
    path.write_text(format_matrix_text(qmn_gram(KnotParams(0, 0)).gram))
    return str(path)


@pytest.fixture
def s00_file(tmp_path):
    path = tmp_path / "s00.txt"
    path.write_text(format_matrix_text(seifert_matrix(KnotParams(0, 0))))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.txt"
    path.write_text("# A2 chain\n2\n2 -1\n-1 2\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_human(capsys):
    code, out, _ = run(capsys, ["info", "--m", "0", "--n", "0"])
    assert code == 0
    assert "107/28" in out
    assert "sigma = -2" in out
    assert "det = 107" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, ["info", "--m", "1", "--n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["fraction"] == "283/48"


def test_info_rejects_negative(capsys):
    code, _, err = run(capsys, ["info", "--m", "-1", "--n", "0"])
    assert code == 1
    assert "m must be >= 0" in err


def test_json_round_trip_byte_identical(capsys):
    from knotgenus.pipeline import render_json

    code, out, _ = run(capsys, ["info", "--m", "0", "--n", "0", "--format", "json"])
    assert code == 0
    assert render_json(json.loads(out)) == out


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, ["verify", "--m-max", "0", "--n-max", "0", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,0,107/28")


def test_verify_exit_two_when_inconclusive(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--m-max",
            "0",
            "--n-max",
            "0",
            "--embed-cap-seconds",
            "1e-9",
            "--format",
            "csv",
        ],
    )
    assert code == 2
    assert "inconclusive" in out


def test_lattice_not_embeddable(capsys, q00_file):
    code, out, _ = run(capsys, ["lattice", q00_file, "--dim", "10"])
    assert code == 0
    assert out.strip() == "NOT EMBEDDABLE dim=10"


def test_lattice_witness(capsys, q00_file):
    from knotgenus.lattice import Embedding, verify_embedding

    code, out, _ = run(capsys, ["lattice", q00_file, "--dim", "11"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "EMBEDDABLE dim=11"
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert len(rows) == 8 and all(len(r) == 11 for r in rows)
    assert verify_embedding(qmn_gram(KnotParams(0, 0)), Embedding(rows, 11))


def test_lattice_mindim(capsys, a2_file):
    code, out, _ = run(capsys, ["lattice", a2_file, "--mindim", "--cap", "5"])
    assert code == 0
    assert out.strip() == "MINDIM=3"


def test_lattice_rechecks_the_witness_it_reports(capsys, monkeypatch, q00_file, a2_file):
    # find_embedding checks every witness it finds, so a search that returns
    # wrong dot products stops --dim and --mindim before anything is
    # printed; the check raises, not asserts, so that python -O keeps it
    from knotgenus import lattice

    monkeypatch.setattr(lattice, "_last_search", None)
    monkeypatch.setattr(lattice._EmbedSearch, "run", unit_vector_run)
    for argv in ([q00_file, "--dim", "11"], [a2_file, "--mindim"]):
        with pytest.raises(RuntimeError, match="invalid witness"):
            main(["lattice", *argv])
        assert capsys.readouterr().out == ""
    assert lattice._last_search is None


def test_lattice_mode_is_exactly_one_of_dim_or_mindim(capsys, a2_file):
    for mode in (["--dim", "5", "--mindim"], []):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", a2_file, *mode])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, ["lattice", a2_file, "--mindim"])
    assert code == 0 and out == "MINDIM=3\n"


def test_lattice_no_embedding_message_names_the_library_default_cap(
    capsys, monkeypatch, a2_file
):
    from knotgenus import lattice

    # A2 needs dimension 3; a default cap of rank + 0 = 2 finds nothing
    monkeypatch.setattr(lattice, "default_dim_cap", lambda g: g.rank)
    code, out, _ = run(capsys, ["lattice", a2_file, "--mindim"])
    assert code == 2 and out == "NO EMBEDDING up to cap=2\n"
    assert lattice.min_embedding_dim(lattice.GramLattice([[2, -1], [-1, 2]])) is None


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_verify_json_matches_the_reference(capsys, fmt):
    suffix = {"json": "json", "human": "txt"}[fmt]
    reference = Path(__file__).parent / "reference" / f"verify_m3_n3.{suffix}"
    code, out, _ = run(capsys, ["verify", "--m-max", "3", "--n-max", "3", "--format", fmt])
    assert code == 0
    assert out == reference.read_text()


@pytest.mark.parametrize("fmt, suffix", [("human", "txt"), ("json", "json"), ("csv", "csv")])
def test_info_matches_the_reference(capsys, fmt, suffix):
    # the a-priori bounds of K(1,2), byte for byte, with its discrepancy notes
    reference = Path(__file__).parent / "reference" / f"info_m1_n2.{suffix}"
    code, out, _ = run(capsys, ["info", "--m", "1", "--n", "2", "--format", fmt])
    assert code == 0
    assert out == reference.read_text()


def test_lattice_budget_exceeded_exits_two(capsys, q00_file):
    for budget in (["--max-nodes", "3"], ["--cap-seconds", "1e-9"]):
        for mode in (["--dim", "10"], ["--mindim"]):
            code, out, err = run(capsys, ["lattice", q00_file, *mode, *budget])
            assert code == 2
            assert out == ""
            assert err.startswith("knot: search stopped:") and err.count("\n") == 1


def test_lattice_search_depth_not_bound_by_recursion_limit(capsys, tmp_path):
    path = tmp_path / "id60.txt"
    path.write_text(format_matrix_text([[int(i == j) for j in range(60)] for i in range(60)]))
    argv = ["lattice", str(path), "--dim", "60"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("EMBEDDABLE dim=60")
    limit = sys.getrecursionlimit()
    # room for the command up to the search, not for 60 nested levels
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out == out


def test_lattice_rejects_bad_budget(capsys, q00_file):
    code, _, err = run(capsys, ["lattice", q00_file, "--dim", "10", "--max-nodes", "0"])
    assert code == 1 and "node budget" in err
    for cap in ("0", "nan"):
        code, out, err = run(capsys, ["lattice", q00_file, "--dim", "10", "--cap-seconds", cap])
        assert code == 1 and out == ""
        assert "time budget" in err and err.count("\n") == 1


def test_lattice_budget_bounds_the_positive_definiteness_check(capsys, tmp_path):
    # a seeded dense Gram whose check alone takes seconds at this size
    rng = random.Random(250)
    rows = [[3 * 250 + 1] * 250 for _ in range(250)]
    for i in range(250):
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    path = tmp_path / "g250.txt"
    path.write_text(format_matrix_text(rows))
    code, out, err = run(capsys, ["lattice", str(path), "--dim", "3", "--cap-seconds", "1e-9"])
    assert code == 2 and out == ""
    assert err == "knot: search stopped: time budget exceeded\n"
    # a bad budget is refused before the check runs
    start = time.perf_counter()
    code, out, err = run(capsys, ["lattice", str(path), "--dim", "3", "--cap-seconds", "0"])
    assert code == 1 and out == ""
    assert err.startswith("knot: error: time budget must be") and err.count("\n") == 1
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--jobs", "0"),
        ("--jobs", "-3"),
        ("--embed-cap-seconds", "0"),
        ("--embed-cap-seconds", "-1"),
        ("--embed-cap-seconds", "nan"),
    ],
)
def test_verify_rejects_bad_option(capsys, option, value):
    code, out, err = run(capsys, ["verify", "--m-max", "0", "--n-max", "0", option, value])
    assert code == 1 and out == ""
    expected = "jobs must be" if option == "--jobs" else "time budget must be"
    assert err.startswith(f"knot: error: {expected}") and err.count("\n") == 1


def test_lattice_rejects_indefinite(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n2 3\n3 2\n")
    code, _, err = run(capsys, ["lattice", str(path), "--dim", "4"])
    assert code == 1
    assert "minor 2" in err


def test_lattice_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 x\n0 1\n")
    code, _, err = run(capsys, ["lattice", str(path), "--dim", "4"])
    assert code == 1


def test_seifert_invariants(capsys, s00_file):
    code, out, _ = run(capsys, ["seifert", s00_file, "--sig"])
    assert code == 0 and out.strip() == "-2"
    code, out, _ = run(capsys, ["seifert", s00_file, "--det"])
    assert code == 0 and out.strip() == "107"
    code, out, _ = run(capsys, ["seifert", s00_file, "--alex"])
    assert code == 0 and out.strip() == "-2:6 -1:-27 0:41 1:-27 2:6"


def test_seifert_budget_exceeded_exits_two(capsys, tmp_path, s00_file):
    path = tmp_path / "m40.txt"
    rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(40)] for i in range(40)]
    path.write_text(format_matrix_text(rows))
    for flags in (["--sig", "--alex"], ["--sig"], ["--det"]):
        code, out, err = run(capsys, ["seifert", str(path), *flags, "--cap-seconds", "1e-9"])
        assert code == 2 and out == ""
        assert err.startswith("knot: search stopped: time budget exceeded") and err.count("\n") == 1
    for cap in ("0", "-1", "nan"):
        code, out, err = run(capsys, ["seifert", s00_file, "--sig", "--alex", "--cap-seconds", cap])
        assert code == 1 and out == ""
        assert err.startswith("knot: error: time budget must be") and err.count("\n") == 1
    code, out, _ = run(capsys, ["seifert", s00_file, "--sig", "--cap-seconds", "60"])
    assert code == 0 and out == "-2\n"
    code, out, _ = run(capsys, ["seifert", s00_file, "--det", "--cap-seconds", "60"])
    assert code == 0 and out == "107\n"
    argv = ["seifert", s00_file, "--sig", "--det", "--alex", "--cap-seconds", "60"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == "-2\n107\n-2:6 -1:-27 0:41 1:-27 2:6\n"


def _decimal(n: int) -> str:
    """str(n) past the interpreter's limit on the digits of an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_seifert_prints_invariants_past_the_digit_limit(capsys, tmp_path):
    # [[3x, 1], [0, 3x]], x = 10^2200, has entries of 2,201 digits, which
    # are read under the limit; its determinant 36 x^2 - 1 and Alexander
    # polynomial 9 x^2 t^-1 - (18 x^2 - 1) + 9 x^2 t have 4,402 and 4,401
    x = 10**2200
    path = tmp_path / "huge.txt"
    path.write_text(format_matrix_text([[3 * x, 1], [0, 3 * x]]))
    limit = sys.get_int_max_str_digits()
    det = f"{_decimal(36 * x * x - 1)}\n"
    alex = f"-1:{_decimal(9 * x * x)} 0:{_decimal(1 - 18 * x * x)} 1:{_decimal(9 * x * x)}\n"
    assert len(det) > limit
    for flags, expected in ((["--det"], det), (["--alex"], alex), (["--sig", "--det", "--alex"], "2\n" + det + alex)):
        code, out, err = run(capsys, ["seifert", str(path), *flags])
        assert (code, err) == (0, "") and out == expected, flags
        assert sys.get_int_max_str_digits() == limit
    # the input itself is still read under the limit
    path.write_text(f"1\n{'1' * (limit + 1)}\n")
    code, out, err = run(capsys, ["seifert", str(path), "--det"])
    assert code == 1 and out == ""
    assert err.startswith(f"knot: error: {path}: line 2: expected integers")


def test_info_prints_a_report_past_the_digit_limit(capsys):
    # K(x, x), x = 10^2200: m and n have 2,201 digits, which are read under
    # the limit; the determinant 20 x^2 + 96 x + 107 has 4,403
    x = 10**2200
    det = _decimal(20 * x * x + 96 * x + 107)
    limit = sys.get_int_max_str_digits()
    assert len(det) > limit
    for fmt, shown in (("human", f"  det = {det}\n"), ("json", f'"determinant": {det},'), ("csv", f",-2,{det},")):
        code, out, err = run(capsys, ["info", "--m", str(x), "--n", str(x), "--format", fmt])
        assert (code, err) == (0, "") and shown in out, fmt
        assert sys.get_int_max_str_digits() == limit


def test_lattice_names_a_huge_failing_minor_by_its_size(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"2\n1{'0' * 2200} 0\n0 -1{'0' * 2200}\n")
    code, out, err = run(capsys, ["lattice", str(path), "--dim", "3"])
    assert code == 1 and out == ""
    assert err == (
        "knot: error: Gram matrix is not positive definite: leading principal minor 2 "
        f"is negative, of {(10**4400).bit_length()} bits\n"
    )


def test_curve_family(capsys):
    code, out, _ = run(capsys, ["curve", "--m", "0", "--n", "0", "--bound", "3"])
    assert code == 0
    assert out.startswith("a = (")


def test_curve_restricted_form_case(capsys):
    from knotgenus.curve_search import find_genus1_certificate
    from knotgenus.pipeline import default_search_bound, format_certificate
    from knotgenus.seifert import verify_certificate

    code, out, _ = run(capsys, ["curve", "--m", "2", "--n", "0"])
    assert code == 0
    k = KnotParams(2, 0)
    mat = seifert_matrix(k)
    cert = find_genus1_certificate(mat, default_search_bound(k))
    assert cert is not None and out == format_certificate(cert) + "\n"
    assert verify_certificate(mat, cert)


def test_curve_without_a_certificate_in_the_bound(capsys, tmp_path):
    # the identity has M + M^T definite, so no class is isotropic
    path = tmp_path / "id4.txt"
    path.write_text("4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run(capsys, ["curve", "--matrix", str(path), "--bound", "1"])
    assert (code, out, err) == (0, "NONE within bound 1\n", "")


@pytest.mark.parametrize("text, message", BAD_MATRIX_TEXTS.values(), ids=BAD_MATRIX_TEXTS.keys())
def test_lattice_refuses_a_bad_matrix_file(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["lattice", str(path), "--dim", "4"])
    assert (code, out, err) == (1, "", f"knot: error: {path}: {message}\n")


def test_curve_bound_zero_is_usage_error(capsys):
    code, _, err = run(capsys, ["curve", "--m", "0", "--n", "0", "--bound", "0"])
    assert code == 1
    assert "bound" in err


def test_curve_box_too_large_is_usage_error(capsys, tmp_path):
    path = tmp_path / "m8.txt"
    path.write_text(format_matrix_text([[(i * j) % 5 - 2 for j in range(8)] for i in range(8)]))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["curve", "--matrix", str(path), "--bound", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("knot: error: curve search box too large") and err.count("\n") == 1
    assert peak < 1 << 20  # refused before any of the 7^7 vectors is enumerated


def test_curve_budget_exceeded_exits_two(capsys, tmp_path):
    # an absent search: diag(1, 1, 1, -7) is indefinite, and no class is
    # isotropic (7 w^2 is a sum of three squares only at w = 0)
    path = tmp_path / "q7.txt"
    path.write_text("4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 -7\n")
    argv = ["curve", "--matrix", str(path), "--bound", "39", "--cap-seconds", "0.05"]
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 2  # the whole search takes about 0.4 s
    assert code == 2 and out == ""
    assert err.startswith("knot: search stopped:") and err.count("\n") == 1
    for cap in ("0", "-1", "nan"):
        code, out, err = run(capsys, ["curve", "--matrix", str(path), "--cap-seconds", cap])
        assert code == 1 and out == ""
        assert err.startswith("knot: error: time budget must be") and err.count("\n") == 1
    code, out, _ = run(capsys, ["curve", "--m", "2", "--n", "0", "--cap-seconds", "60"])
    assert code == 0 and out.startswith("a = (")


def test_verify_curve_box_too_large_is_usage_error(capsys):
    for bound in ("0", "40"):
        code, out, err = run(
            capsys, ["verify", "--m-max", "0", "--n-max", "0", "--curve-bound", bound]
        )
        assert code == 1 and out == ""
        assert err.startswith("knot: error:") and err.count("\n") == 1
    assert "box too large" in err


def test_verify_huge_range_is_usage_error(capsys):
    # refused from m and n: Q(10^9, 0) is never built
    argv = ["verify", "--m-max", "1000000000", "--n-max", "0", "--curve-bound", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("knot: error: embedding too large") and err.count("\n") == 1


def test_lattice_mindim_huge_cap_is_usage_error(capsys, tmp_path):
    # refused from the rank and the cap, before the first of about a
    # million absent searches of E8
    path = tmp_path / "e8.txt"
    path.write_text(format_matrix_text(e8_gram().gram))
    start = time.monotonic()
    code, out, err = run(capsys, ["lattice", str(path), "--mindim", "--cap", "100000000"])
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("knot: error: embedding too large") and err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["info", "--m", "zero", "--n", "0"])
    assert exc.value.code == 1


MATRIX_FILES = {
    "garbage.txt": "2\n1 x\n0 1\n",
    "nonsym.txt": "2\n2 1\n0 2\n",
    "indefinite.txt": "2\n2 3\n3 2\n",
    "q00.txt": format_matrix_text(qmn_gram(KnotParams(0, 0)).gram),
    "nonsquare.txt": "2\n1 2 3\n4 5 6\n",
    "m8.txt": format_matrix_text([[(i * j) % 5 - 2 for j in range(8)] for i in range(8)]),
    "m00.txt": format_matrix_text(seifert_matrix(KnotParams(0, 0))),
    "a3.txt": "3\n2 -1 0\n-1 2 -1\n0 -1 2\n",
}


def _fresh_interpreter(tmp_path, args, knot_log=None):
    """Run `python *args` in a fresh interpreter, in tmp_path with the
    matrix files above, on this checkout's knotgenus, with KNOT_LOG unset
    or set to knot_log."""
    for name, text in MATRIX_FILES.items():
        (tmp_path / name).write_text(text)
    src = str(Path(knotgenus.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("KNOT_LOG", None)
    if knot_log is not None:
        env["KNOT_LOG"] = knot_log
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["info", "--m", "-1", "--n", "0"], "m must be >= 0"),
        (["verify", "--m-max", "-1", "--n-max", "0"], "ranges must be >= 0"),
        (["verify", "--m-max", "0", "--n-max", "0", "--curve-bound", "0"], "bound must be >= 1"),
        (["lattice", "missing.txt", "--dim", "4"], "cannot read"),
        (["lattice", "garbage.txt", "--dim", "4"], "expected integers"),
        (["lattice", "nonsym.txt", "--dim", "4"], "must be symmetric"),
        (["lattice", "indefinite.txt", "--dim", "4"], "not positive definite"),
        (["lattice", "q00.txt", "--dim", "0"], "dimension must be positive"),
        (["seifert", "nonsquare.txt", "--sig"], "expected 2 entries"),
        (["curve"], "provide either --matrix"),
        (["curve", "--m", "0", "--n", "0", "--bound", "0"], "bound must be >= 1"),
        (["curve", "--matrix", "m8.txt", "--bound", "3"], "box too large"),
        (["lattice", "q00.txt", "--dim", "11", "--cap", "3"], "--cap applies only with --mindim"),
        (["seifert", "m00.txt"], "provide at least one of --sig, --det, --alex"),
        (["curve", "--matrix", "m00.txt", "--m", "5", "--n", "5"], "provide either --matrix"),
        (["lattice", "q00.txt", "--dim", "100000000"], "embedding too large"),
        (["verify", "--m-max", "0", "--n-max", "0", "--curve-bound", "-100"], "bound must be >= 1"),
    ],
)
def test_bad_input_exits_one_through_the_entry_point(tmp_path, argv, message):
    # the real entry point, `python -m knotgenus.cli`, in a fresh interpreter
    proc = _fresh_interpreter(tmp_path, ["-m", "knotgenus.cli", *argv])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("knot: error:") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


@pytest.mark.parametrize(
    "args, status",
    [
        (["-c", "import knotgenus"], 0),
        (["-c", "import knotgenus.cli"], 0),
        (["-m", "knotgenus.cli", "seifert", "m00.txt", "--sig", "--det", "--alex"], 0),
        (["-m", "knotgenus.cli", "lattice", "a3.txt", "--mindim"], 0),
        (["-m", "knotgenus.cli", "--help"], 0),
        (["-m", "knotgenus.cli", "seifert", "missing.txt", "--sig"], 1),
        (["-m", "knotgenus.cli", "curve", "--m", "0", "--n", "0"], 0),
        (["-m", "knotgenus.cli", "info", "--m", "0", "--n", "0"], 0),
        (["-m", "knotgenus.cli", "verify", "--m-max", "1", "--n-max", "1"], 0),
    ],
    ids=[
        "import", "import-cli", "seifert", "lattice", "help", "missing-file", "curve", "info",
        "verify",
    ],
)
def test_no_command_loads_numpy(tmp_path, args, status):
    # `-X importtime` lists every module the run imported
    proc = _fresh_interpreter(tmp_path, ["-X", "importtime", *args])
    assert proc.returncode == status
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "knotgenus" in imported
    assert "numpy" not in imported


def test_lattice_mindim_searches_each_dimension_once(tmp_path):
    # the search at the dimension found checked its witness, so --mindim
    # makes no call after min_embedding_dim, and nothing is answered from
    # the memo; the local invariants rule out dims 8 (det 107) and 9 (at
    # p = 2 and 107) with no search
    argv = ["-m", "knotgenus.cli", "lattice", "q00.txt", "--mindim"]
    proc = _fresh_interpreter(tmp_path, argv, "info")
    assert proc.returncode == 0 and proc.stdout == "MINDIM=11\n"
    records = [
        line.removeprefix("INFO:knotgenus.lattice:")
        for line in proc.stderr.splitlines()
        if line.startswith("INFO:knotgenus.lattice:")
    ]
    assert records[:2] == [
        "local obstruction: rank 8, dim 8, determinant 107 is not a square",
        "local obstruction: rank 8, dim 9, at p = 2",
    ]
    searches = [r.rsplit(", ", 1) for r in records[2:]]
    assert [s for s, _ in searches] == [
        "embedding search: rank 8, dim 10, absent, 14 nodes",
        "embedding search: rank 8, dim 11, found, 15 nodes",
    ]
    assert all(t.endswith(" s") for _, t in searches)
    assert "memo" not in proc.stderr


@pytest.mark.parametrize("value", ["inof", "verbose", "1", " info", "warning", "debug", "DEBUG"])
def test_unknown_knot_log_is_refused_before_the_command_runs(tmp_path, value):
    argv = ["-m", "knotgenus.cli", "lattice", "a3.txt", "--mindim"]
    proc = _fresh_interpreter(tmp_path, argv, value)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"knot: error: KNOT_LOG must be off or info, not {value!r}\n"


@pytest.mark.parametrize("value", [None, "", "off", "OFF", "info", "Info"])
def test_knot_log_accepts_its_levels_in_any_case(tmp_path, value):
    argv = ["-m", "knotgenus.cli", "lattice", "a3.txt", "--mindim"]
    proc = _fresh_interpreter(tmp_path, argv, value)
    assert proc.returncode == 0 and proc.stdout == "MINDIM=3\n"
    logged = "positive-definiteness check: rank 3, positive definite" in proc.stderr
    assert logged is (value is not None and value.lower() == "info")
