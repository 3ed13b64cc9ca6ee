import ast
import os
import subprocess
import sys
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
    # the budget helpers of matrices alone turn a seconds budget into a
    # time.monotonic deadline and read it; every budget goes through them
    calls = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Attribute, ast.alias))
        and (node.attr if isinstance(node, ast.Attribute) else node.name) == "monotonic"
    }
    assert calls == {"matrices.py"}


def test_public_names_are_the_contract():
    # the names knotgenus exports are its public contract: a change shows
    # here.  The names of pipeline and curve_search are resolved on first
    # access, so resolve every exported name before reading the module.
    assert set(knotgenus.__all__) <= set(dir(knotgenus))
    for name in knotgenus.__all__:
        getattr(knotgenus, name)
    names = sorted(
        name
        for name, value in vars(knotgenus).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert knotgenus.__all__ == names == [
        "CurveCertificate",
        "Embedding",
        "GramLattice",
        "KnotParams",
        "LaurentPolynomial",
        "SearchBudgetExceeded",
        "SliceReport",
        "alexander",
        "alexander_trivial_2x2",
        "continued_fraction",
        "crossing_count",
        "default_search_bound",
        "find_embedding",
        "find_genus1_certificate",
        "format_matrix_text",
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
    star = {}
    exec("from knotgenus import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names


def _imports(tree, module_level_only):
    """The modules that the import statements of `tree` name, relative ones
    without their dots; with module_level_only, not those in a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if module_level_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                yield node.module
            if node.level and node.module is None:
                yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy():
    # and `import knotgenus` and `import knotgenus.cli` do not import
    # pipeline or curve_search, whose names are resolved on first use
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    numpy = {
        name
        for name, tree in trees.items()
        if any(m.split(".")[0] == "numpy" for m in _imports(tree, module_level_only=False))
    }
    assert numpy == set()
    for name in ("__init__.py", "cli.py"):
        top = {m.split(".")[-1] for m in _imports(trees[name], module_level_only=True)}
        assert not {"pipeline", "curve_search"} & top


def test_a_certificate_is_checked_without_numpy():
    # the certificate type, its restricted form and its one check live in
    # seifert: K(0,0)'s certificate is built and checked in a fresh
    # interpreter that never loads numpy
    code = (
        "import sys\n"
        "import knotgenus as kg\n"
        "mat = kg.seifert_matrix(kg.KnotParams(0, 0))\n"
        "a, b = (0, 0, 1, 0), (-1, -1, -4, -2)\n"
        "cert = kg.CurveCertificate(a, b, kg.restricted_form(mat, a, b))\n"
        "print(cert.restricted_form, kg.verify_certificate(mat, cert), 'numpy' in sys.modules)\n"
    )
    src = str(Path(knotgenus.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "((-1, 4), (5, -20)) True False\n"


def _defined(stmt):
    """The names a top-level statement defines: a function, a class or the
    names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt):
    """The names a statement reads, looks up as an attribute or imports."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_library_name_has_a_caller_or_is_exported():
    # a top-level name that no other statement of the library uses and that
    # knotgenus does not export is dead code: it serves no caller
    stmts = [
        (path.stem, stmt)
        for path in SOURCES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    refs = [_referenced(stmt) for _, stmt in stmts]
    unused = [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _defined(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in knotgenus.__all__
        and not any(name in r for j, r in enumerate(refs) if j != i)
    ]
    assert unused == []


def test_each_result_is_checked_by_the_function_that_finds_it():
    # the one check of a witness and the one check of a certificate are each
    # called by the search that finds the result and nowhere else, so every
    # caller of the library gets checked results and none checks them again
    callers = {"verify_embedding": set(), "verify_certificate": set()}
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callers:
                    callers[name].add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert callers == {
        "verify_embedding": {"lattice.find_embedding"},
        "verify_certificate": {"curve_search.find_genus1_certificate"},
    }
