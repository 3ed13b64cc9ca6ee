import ast
import fractions
import types
from pathlib import Path

import knotgenus

SOURCES = sorted(Path(knotgenus.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so no check of the library may be one
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_search_budget_reads_the_clock():
    # lattice's budget helpers alone turn a seconds budget into a
    # time.monotonic deadline and read it; both searches go through them
    calls = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Attribute, ast.alias))
        and (node.attr if isinstance(node, ast.Attribute) else node.name) == "monotonic"
    }
    assert calls == {"lattice.py"}


def test_public_names_are_the_contract():
    # the names knotgenus exports are its public contract: a change shows here
    names = sorted(
        name
        for name, value in vars(knotgenus).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "CurveCertificate",
        "Embedding",
        "Fraction",
        "GramLattice",
        "KnotParams",
        "LaurentPolynomial",
        "SearchBudgetExceeded",
        "SliceReport",
        "alexander",
        "alexander_trivial_2x2",
        "cf_to_fraction",
        "continued_fraction",
        "crossing_count",
        "default_search_bound",
        "find_embedding",
        "find_genus1_certificate",
        "format_matrix_text",
        "fraction_to_cf",
        "full_report",
        "genus_bounds",
        "knot_determinant",
        "knot_fraction",
        "min_embedding_dim",
        "obstruction_dim",
        "parse_matrix_text",
        "plumbing_weights",
        "qmn_gram",
        "restricted_form",
        "seifert_matrix",
        "signature",
        "verify_certificate",
        "verify_embedding",
        "verify_theorem",
    ]
    assert knotgenus.Fraction is fractions.Fraction
