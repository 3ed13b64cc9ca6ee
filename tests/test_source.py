import ast
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


def test_only_the_embedding_search_reads_the_budget_clock():
    # find_embedding alone turns a seconds budget into a time.monotonic deadline
    calls = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Attribute, ast.alias))
        and (node.attr if isinstance(node, ast.Attribute) else node.name) == "monotonic"
    }
    assert calls == {"lattice.py"}
