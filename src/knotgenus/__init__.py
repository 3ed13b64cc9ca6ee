"""Exact-arithmetic slice-genus toolkit for the K(m,n) family of 2-bridge
knots: Seifert invariants, genus-1 reduction certificates, and integral
lattice embedding obstructions.

The names of `pipeline` and `curve_search` are resolved on first access
(PEP 562): compiled from source, as without bytecode caches, the two
modules and the csv, json and concurrent.futures imports of `pipeline`
add about 22 ms to the 63 ms of `import knotgenus.cli`, which the `knot`
commands that run no report (lattice, seifert) would pay for nothing.
`__all__` lists every exported name, the lazy ones included.
"""

import importlib

from .lattice import Embedding, find_embedding, min_embedding_dim, verify_embedding
from .matrices import GramLattice, SearchBudgetExceeded, format_matrix_text, parse_matrix_text
from .seifert import (
    CurveCertificate,
    LaurentPolynomial,
    alexander,
    alexander_trivial_2x2,
    knot_determinant,
    restricted_form,
    signature,
    verify_certificate,
)
from .two_bridge import (
    KnotParams,
    continued_fraction,
    crossing_count,
    knot_fraction,
    plumbing_weights,
    qmn_gram,
    seifert_matrix,
)

# name -> the module that defines it, imported on the name's first access
_LAZY = {
    "default_search_bound": "pipeline",
    "find_genus1_certificate": "curve_search",
    "SliceReport": "pipeline",
    "full_report": "pipeline",
    "genus_bounds": "pipeline",
    "obstruction_dim": "pipeline",
    "verify_theorem": "pipeline",
}

__all__ = [
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

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
