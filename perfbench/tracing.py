"""Spans around the calls into each layer of knotgenus, recorded from the
benchmark's side: the package's public functions (and the positive-
definiteness kernel) are swapped for timing wrappers in every knotgenus
module that refers to them, so calls between layers are seen too.  Nothing
inside src/ is changed.

A span is (name, layer, item, parent, start, end); `item` is the id shared
by every call made for one knot, lattice or matrix.  Spans stay in memory
until the pass ends.  A layer's self time is its spans' durations minus the
durations of their direct children.  Durations exclude the speed probes
(speed.py) that ran inside a span.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from itertools import product
from math import gcd

from knotgenus.matrices import as_matrix

LAYERS = ("cli", "pipeline", "two_bridge", "seifert", "curve_search", "lattice", "matrices")

# layer -> functions of knotgenus.<layer> that get a span.  The
# positive-definiteness check is leading_principal_minors, called by
# find_embedding; its span is the matrices layer's share of a report.
INSTRUMENTED = {
    "pipeline": ("full_report", "genus_bounds", "reports_to_csv", "render_json", "report_to_dict"),
    "two_bridge": ("seifert_matrix", "qmn_gram", "knot_fraction"),
    "seifert": ("signature", "knot_determinant", "alexander"),
    "curve_search": ("find_genus1_certificate", "verify_certificate"),
    "lattice": ("find_embedding", "min_embedding_dim", "verify_embedding"),
    "matrices": ("leading_principal_minors",),
}

NAME, LAYER, ITEM, PARENT, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._item = None
        self._patched = []
        self.embed_calls = []  # (gram, ambient_dim) of every find_embedding
        self.curve_calls = []  # (matrix, bound, certificate) of every search

    @contextmanager
    def span(self, name, layer, item=None):
        if item is not None:
            self._item = item
        rec = [name, layer, self._item, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, name, fn):
        span_name = f"{layer}.{name}"
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(span_name, layer):
                result = fn(*args, **kwargs)
            if name in ("find_embedding", "find_genus1_certificate"):
                # the first two parameters: (lattice, dimension) or (matrix, bound)
                first, second = list(signature.bind(*args, **kwargs).arguments.values())[:2]
                if name == "find_embedding":
                    self.embed_calls.append((first.gram, second))
                else:
                    self.curve_calls.append((as_matrix(first), second, result))
            return result

        return traced

    def install(self):
        """Swap each instrumented function for its wrapper, wherever a
        knotgenus module holds a reference to it."""
        modules = [m for n, m in sys.modules.items() if n == "knotgenus" or n.startswith("knotgenus.")]
        for layer, names in INSTRUMENTED.items():
            home = sys.modules[f"knotgenus.{layer}"]
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def _count_nodes(embed_calls):
    """Search nodes of every embedding search of the pass, from an untimed
    re-run of the private search class; None if that class is gone."""
    try:
        from knotgenus.lattice import _EmbedSearch
    except ImportError:
        return None
    nodes = 0
    try:
        for gram, dim in embed_calls:
            if dim >= len(gram):
                search = _EmbedSearch(gram, dim)
                search.run()
                nodes += search.nodes
    except (TypeError, AttributeError):
        return None
    return nodes


def _is_normalized_a(v):
    """Primitive with positive first nonzero coordinate (the curve search's
    normalization of a)."""
    first = next((x for x in v if x != 0), 0)
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return first > 0 and g == 1


def _a_lex_index(a, bound, dim):
    """Position of `a` among the normalized a-vectors of [-bound, bound]^dim
    in lexicographic order, or their count when `a` is None."""
    index = 0
    for v in product(range(-bound, bound + 1), repeat=dim):
        if a is not None and v == tuple(a):
            return index
        index += _is_normalized_a(v)
    return index


def layer_metrics(tracer, sampler):
    """Per-layer metrics of one traced pass (all but the cli and trace ones,
    which the parent measures); `sampler` timed the speed probes."""
    spans = tracer.spans
    dur = [s[END] - s[START] - sampler.inside(s[START], s[END]) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur[i]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[NAME] == name)

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[NAME] == name)

    item_s = total("bench.item")
    pd = total("matrices.leading_principal_minors")
    search = self_time("lattice.find_embedding")
    nodes = _count_nodes(tracer.embed_calls)
    m = {
        "matrices.pd_check_s": pd,
        "matrices.pd_share": pd / item_s if item_s else 0.0,
        "lattice.search_s": search,
        "lattice.nodes": nodes,
        "lattice.us_per_node": search / nodes * 1e6 if nodes else 0.0,
        "lattice.dims_tried": sum(
            1
            for s in spans
            if s[NAME] == "lattice.find_embedding"
            and s[PARENT] is not None
            and spans[s[PARENT]][NAME] == "lattice.min_embedding_dim"
        ),
        "lattice.verify_embedding_s": total("lattice.verify_embedding"),
        "curve_search.find_s": total("curve_search.find_genus1_certificate"),
        "curve_search.verify_s": total("curve_search.verify_certificate"),
        "seifert.alexander_s": total("seifert.alexander"),
        "seifert.signature_s": total("seifert.signature"),
        "seifert.determinant_s": total("seifert.knot_determinant"),
        "pipeline.genus_bounds_s": total("pipeline.genus_bounds"),
        "pipeline.report_self_s": self_time("pipeline.full_report"),
        "pipeline.serialize_s": sum(
            total(f"pipeline.{n}") for n in ("reports_to_csv", "render_json", "report_to_dict")
        ),
    }
    # computed from inputs and outputs, not measured: the box of b-vectors,
    # the a-vectors scanned before the certificate's, and the box plus one
    # 256-row chunk product at 8 bytes per entry
    boxes = [(len(mat), (2 * bound + 1) ** len(mat), bound, cert) for mat, bound, cert in tracer.curve_calls]
    m["curve_search.box_vectors"] = sum(n for _, n, _, _ in boxes)
    m["curve_search.a_scanned"] = sum(
        _a_lex_index(cert.a if cert else None, bound, dim) for dim, _, bound, cert in boxes
    )
    m["curve_search.box_bytes_computed"] = max(
        (n * dim * 8 + 256 * n * 8 for dim, n, _, _ in boxes), default=0
    )
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(
            d - c for s, d, c in zip(spans, dur, child) if s[LAYER] == layer
        )
    return m


def span_records(tracer):
    return [
        {"name": s[NAME], "layer": s[LAYER], "item": s[ITEM], "parent": s[PARENT],
         "start": s[START], "end": s[END]}
        for s in tracer.spans
    ]
