"""Command-line front end.

Subcommands mirror the certificate suites:

    cox245 verify cayley-certs [--certs FILE]
    cox245 verify dihedral --order {4,5}
    cox245 verify pentagon [--max-n N] [--radius R]
    cox245 discs enumerate --boundary B --max-triangles T
           [--locally-6-large] [--min-angle K] [--no-chords]
    cox245 search d10 [--depth D] [--radius R]

Each subcommand runs one suite function of :mod:`cox245.certificates` or
:mod:`cox245.discs`; this module only parses arguments and prints reports.
Output is a human summary, or with --json one JSON report per line on
stdout (summary moves to stderr).  Exit code 0 means every selected suite
reported "verified"; inconclusive results exit nonzero by design, so the
exploratory d10 search never returns 0.  Bad arguments and malformed
certificate files exit 2; a certificate error names its file line.
"""

from __future__ import annotations

import argparse
import sys

from .certificates import (
    auto_search_d10,
    verify_connecting_list,
    verify_dihedral_suite,
    verify_pentagon_suite,
)
from .discs import discs_suite
from .reports import Report, timed_suite

__all__ = ["main", "run_args"]


def _fixed_width(prog: str) -> argparse.HelpFormatter:
    """Help wraps at 78 columns, the default's width off a terminal: the
    default reads the terminal's width through ``shutil``, which pulls in
    ``bz2`` and ``lzma``, and argparse builds a formatter for each argument
    added, so every run would import them."""
    return argparse.HelpFormatter(prog, width=78)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` with the fixed-width help; its subparsers are
    built with its class, so they share it."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_fixed_width, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    # common flags accepted either before or after the subcommand; the leaf
    # copies use SUPPRESS so they never clobber a value given up front
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON report per line on stdout")
    parser = _Parser(
        prog="cox245",
        description="verify the finite combinatorial certificates of the "
                    "(2,4,5) triangle Coxeter group")
    parser.set_defaults(json=False)
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON report per line on stdout")
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run a certificate suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    cayley = vsub.add_parser("cayley-certs", parents=[common],
                             help="replay the connecting-cliques list")
    cayley.add_argument("--certs", default=None, metavar="FILE",
                        help="external certificate file (JSON lines); default: built-in")

    dihedral = vsub.add_parser("dihedral", parents=[common],
                               help="chord-seed closures of the dihedral orbits")
    dihedral.add_argument("--order", type=int, choices=(4, 5), required=True,
                          help="rotation order: 4 = 8-gon orbit, 5 = 10-gon orbit")

    pentagon = vsub.add_parser("pentagon", parents=[common],
                               help="pentagon string families, chain, distances")
    pentagon.add_argument("--max-n", type=int, default=3)
    pentagon.add_argument("--radius", type=int, default=10)

    discs = top.add_parser("discs", help="triangulated disc enumeration")
    dsub = discs.add_subparsers(dest="action", required=True)
    enum = dsub.add_parser("enumerate", parents=[common])
    enum.add_argument("--boundary", type=int, required=True)
    enum.add_argument("--max-triangles", type=int, required=True)
    enum.add_argument("--locally-6-large", action="store_true")
    enum.add_argument("--min-angle", type=int, default=0)
    enum.add_argument("--no-chords", action="store_true")

    search = top.add_parser("search", help="exploratory searches")
    ssub = search.add_subparsers(dest="target", required=True)
    d10 = ssub.add_parser("d10", parents=[common],
                          help="implication closure from the dual-tiling edge")
    d10.add_argument("--depth", type=int, default=3)
    d10.add_argument("--radius", type=int, default=5)

    return parser


_PARSER = _build_parser()


def run_args(args: argparse.Namespace) -> list[Report]:
    if args.command == "verify" and args.suite == "cayley-certs":
        config = {"suite": "cayley-certs", "certs": args.certs}
        return [timed_suite(config, verify_connecting_list, args.certs)]
    if args.command == "verify" and args.suite == "dihedral":
        config = {"suite": "dihedral", "order": args.order}
        return [timed_suite(config, verify_dihedral_suite, args.order)]
    if args.command == "verify" and args.suite == "pentagon":
        # "threads" is kept: perfbench/golden.json pins the --json schema
        config = {"suite": "pentagon", "max_n": args.max_n,
                  "radius": args.radius, "threads": 1}
        return [timed_suite(config, verify_pentagon_suite, args.max_n, args.radius)]
    if args.command == "discs":
        config = {"suite": "discs", "boundary": args.boundary,
                  "max_triangles": args.max_triangles,
                  "locally_6_large": args.locally_6_large,
                  "min_angle": args.min_angle, "no_chords": args.no_chords}
        return [timed_suite(config, discs_suite, args.boundary, args.max_triangles,
                            args.locally_6_large, args.min_angle, args.no_chords)]
    if args.command == "search":
        config = {"suite": "d10-search", "depth": args.depth, "radius": args.radius}
        return [timed_suite(config, auto_search_d10, args.depth, args.radius)]
    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        reports = run_args(args)
    except Exception as exc:  # config/cap errors land on stderr, nonzero exit
        print(f"cox245: error: {exc}", file=sys.stderr)
        return 2
    summary_stream = sys.stderr if args.json else sys.stdout
    for rep in reports:
        if args.json:
            print(rep.to_json())
        print(rep.summary(), file=summary_stream)
        if not args.json and rep.status != "verified":
            for step in rep.steps:
                if isinstance(step, dict) and step.get("status") not in (None, "verified"):
                    print(f"    step: {step}", file=summary_stream)
    return 0 if all(r.status == "verified" for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
