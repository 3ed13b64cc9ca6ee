"""Exact-arithmetic slice-genus toolkit for the K(m,n) family of 2-bridge
knots: Seifert invariants, genus-1 reduction certificates, and integral
lattice embedding obstructions."""

from fractions import Fraction

from .curve_search import (
    CurveCertificate,
    default_search_bound,
    find_genus1_certificate,
    restricted_form,
    verify_certificate,
)
from .lattice import (
    Embedding,
    SearchBudgetExceeded,
    find_embedding,
    min_embedding_dim,
    verify_embedding,
)
from .matrices import GramLattice, format_matrix_text, parse_matrix_text
from .pipeline import (
    SliceReport,
    full_report,
    genus_bounds,
    obstruction_dim,
    verify_theorem,
)
from .seifert import (
    LaurentPolynomial,
    alexander,
    alexander_trivial_2x2,
    knot_determinant,
    signature,
)
from .two_bridge import (
    KnotParams,
    cf_to_fraction,
    continued_fraction,
    crossing_count,
    fraction_to_cf,
    knot_fraction,
    plumbing_weights,
    qmn_gram,
    seifert_matrix,
)

__version__ = "0.1.0"
