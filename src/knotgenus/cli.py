"""Command-line front end: `knot` with subcommands info, verify, lattice,
seifert and curve.

Exit codes: 0 success / conclusive, 1 usage or input error, 2 inconclusive
search.  Every input error is a ValueError, raised by the function that
consumes the value, which `main` turns into one stderr line and exit 1; an
option that a command would ignore is refused the same way.  Budgets are per
search and checked by the library: a seconds budget must be > 0 and a node
budget >= 1; each embedding search gets the whole of both, the
positive-definiteness check of `knot lattice` its own seconds budget, the
curve search of `knot curve` its own, and each invariant that `knot
seifert` computes (--sig, --det, --alex) its own.  A spent budget is a
SearchBudgetExceeded, which `main` turns into one `knot: search stopped:`
line on stderr and exit 2.  The KNOT_LOG environment variable sets the
level of the log records written to stderr: unset, empty or off, or info,
in any case; any other value is an input error, refused before the command
runs.  At info every embedding search logs its rank, dimension,
verdict, node count and time, or `memo` for a call that repeats the last
search (see `lattice.find_embedding`), every curve search its dimension,
bound, verdict, shells entered, isotropic c tried and time, every
positive-definiteness check its rank, verdict and time, and every
signature and Alexander polynomial its matrix size and time.  The
signature, the determinant and the Alexander polynomial of one Seifert
matrix share one symmetric elimination of M + M^T (see `seifert`), so
after --sig the --det and --alex of `knot seifert` read their budget once
for it, and a signature that reuses it logs the time of the lookup.
Stdout does not change.

Each search checks what it returns: `find_genus1_certificate` with
`verify_certificate`, `find_embedding` with `verify_embedding`, so `knot
curve` and `knot lattice` print only what that check accepted, and a
rejected certificate or witness raises RuntimeError before anything is
printed.  Only info, verify and curve import `pipeline` (see
`knotgenus/__init__.py` for its cost); lattice, seifert and the argument
parser start without it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager

from . import lattice
from .lattice import find_embedding, format_embedding, min_embedding_dim
from .matrices import GramLattice, SearchBudgetExceeded, parse_matrix_text, symmetrize
from .seifert import alexander, knot_determinant, signature
from .two_bridge import KnotParams, seifert_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# KNOT_LOG value, in any case -> logging level; unset is ""
LOG_LEVELS = {
    "": logging.WARNING,
    "off": logging.WARNING,
    "info": logging.INFO,
}


def _setup_logging():
    value = os.environ.get("KNOT_LOG", "")
    level = LOG_LEVELS.get(value.lower())
    if level is None:
        raise ValueError(f"KNOT_LOG must be off or info, not {value!r}")
    logging.basicConfig(level=level)


def _read_matrix(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    try:
        return parse_matrix_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def cmd_info(args) -> int:
    from .pipeline import genus_bounds, render_json, report_to_dict, report_to_text, reports_to_csv

    report = genus_bounds(KnotParams(args.m, args.n))
    with _unlimited_digits():
        if args.format == "json":
            text = render_json(report_to_dict(report))
        elif args.format == "csv":
            text = reports_to_csv([report])
        else:
            text = report_to_text(report)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .pipeline import (
        render_json,
        report_to_dict,
        report_to_text,
        reports_to_csv,
        verify_theorem,
    )

    reports = verify_theorem(
        args.m_max,
        args.n_max,
        curve_bound=args.curve_bound,
        embed_cap_seconds=args.embed_cap_seconds,
        jobs=args.jobs,
    )
    if args.format == "json":
        sys.stdout.write(render_json([report_to_dict(r) for r in reports]))
    elif args.format == "csv":
        sys.stdout.write(reports_to_csv(reports))
    else:
        sys.stdout.write("".join(report_to_text(r) + "\n" for r in reports))
    if any(not r.conclusive for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_lattice(args) -> int:
    if args.cap is not None and not args.mindim:
        raise ValueError("--cap applies only with --mindim")
    g = GramLattice(_read_matrix(args.gram_path), cap_seconds=args.cap_seconds)
    budget = {"max_nodes": args.max_nodes, "cap_seconds": args.cap_seconds}
    if args.mindim:
        cap = args.cap if args.cap is not None else lattice.default_dim_cap(g)
        dim = min_embedding_dim(g, cap=cap, **budget)
        if dim is None:
            print(f"NO EMBEDDING up to cap={cap}")
            return EXIT_INCONCLUSIVE
        print(f"MINDIM={dim}")
    else:
        witness = find_embedding(g, args.dim, **budget)
        if witness is None:
            print(f"NOT EMBEDDABLE dim={args.dim}")
        else:
            print(f"EMBEDDABLE dim={args.dim}")
            sys.stdout.write(format_embedding(witness))
    return EXIT_OK


def cmd_seifert(args) -> int:
    if not (args.sig or args.det or args.alex):
        raise ValueError("provide at least one of --sig, --det, --alex")
    mat = _read_matrix(args.matrix_path)
    cap = args.cap_seconds
    # every value is computed and formatted before any is printed, so an
    # error or a spent budget leaves stdout empty
    values = []
    if args.sig:
        values.append(signature(symmetrize(mat), cap_seconds=cap))
    if args.det:
        values.append(knot_determinant(mat, cap_seconds=cap))
    if args.alex:
        values.append(alexander(mat, cap_seconds=cap))
    with _unlimited_digits():
        text = "".join(f"{value}\n" for value in values)
    sys.stdout.write(text)
    return EXIT_OK


@contextmanager
def _unlimited_digits():
    """Lift the interpreter's limit on the digits of an int in str (4,300
    by default) for the formatting of results already computed under the
    command's budget: the determinant of a matrix with entries of 2,200
    digits has more, as have the determinant and the Alexander
    coefficients of K(m,n) for m = n = 10^2200.  The limit is restored
    after, so the input is still read under it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7, no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_curve(args) -> int:
    from .curve_search import find_genus1_certificate
    from .pipeline import default_search_bound, format_certificate

    if args.matrix_path is not None and args.m is None and args.n is None:
        mat = _read_matrix(args.matrix_path)
        bound = args.bound if args.bound is not None else 3
    elif args.matrix_path is None and args.m is not None and args.n is not None:
        k = KnotParams(args.m, args.n)
        mat = seifert_matrix(k)
        bound = args.bound if args.bound is not None else default_search_bound(k)
    else:
        raise ValueError("provide either --matrix or both --m and --n")
    cert = find_genus1_certificate(mat, bound, cap_seconds=args.cap_seconds)
    if cert is None:
        print(f"NONE within bound {bound}")
    else:
        print(format_certificate(cert))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="knot", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", parents=[], help="invariants and genus bounds, no searches")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["human", "json", "csv"], default="human")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="slice-genus verdicts over a parameter grid")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--curve-bound", type=int, default=None)
    p.add_argument("--embed-cap-seconds", type=float, default=None,
                   help="time budget of each row's embedding search")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--format", choices=["human", "json", "csv"], default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice", help="embed a Gram lattice into Z^M")
    p.add_argument("gram_path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dim", type=int)
    mode.add_argument("--mindim", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None, help="node budget of each search")
    p.add_argument("--cap-seconds", type=float, default=None,
                   help="time budget of the positive-definiteness check and of each search")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("seifert", help="invariants of a Seifert matrix file")
    p.add_argument("matrix_path")
    p.add_argument("--sig", action="store_true")
    p.add_argument("--det", action="store_true")
    p.add_argument("--alex", action="store_true")
    p.add_argument("--cap-seconds", type=float, default=None,
                   help="time budget of each invariant")
    p.set_defaults(func=cmd_seifert)

    p = sub.add_parser("curve", help="search for a genus-1 reduction certificate")
    p.add_argument("--matrix", dest="matrix_path", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--cap-seconds", type=float, default=None, help="time budget of the search")
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"knot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"knot: search stopped: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
