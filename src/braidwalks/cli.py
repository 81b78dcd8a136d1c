"""Command-line front end for the braid invariant engine."""

from __future__ import annotations

import argparse
import json
import sys

from .braid import NotAKnotError, parse_braid
from .jones import (
    PipelineMismatchError,
    bracket_jones_oracle,
    colored_jones,
    positive_braid_report,
)
from .qdet import rho
from .walks import enumerate_walks, walk_weight


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidwalks",
        description="Exact colored Jones polynomials of knots from braid closures.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, color=False):
        p.add_argument("--braid", required=True, help="signed generator indices, e.g. '1 -2 1 -2'")
        p.add_argument("--strands", required=True, type=int)
        if color:
            p.add_argument("--color", required=True, type=int, help="color N >= 2")
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("compute", help="compute the colored Jones polynomial")
    common(p, color=True)
    p.add_argument("--method", choices=("walks", "qdet", "both"), default="both")

    p = sub.add_parser("walks", help="dump the walks along the braid")
    common(p)
    p.add_argument("--all", action="store_true", help="include nonsimple walks")

    p = sub.add_parser("matrix", help="dump the operator matrix rho")
    common(p)

    p = sub.add_parser("check-positive", help="positive-braid leading-coefficient check")
    common(p, color=True)

    p = sub.add_parser("oracle", help="Jones polynomial via the Kauffman bracket state sum")
    common(p)

    # walks and matrix always print JSON, so they take no --format
    for name in ("compute", "check-positive", "oracle"):
        sub.choices[name].add_argument("--format", choices=("text", "json"), default=None)
    return parser


def _dispatch(args: argparse.Namespace) -> str:
    b = parse_braid(args.braid, args.strands)

    if args.subcommand == "compute":
        result = colored_jones(b, args.color, args.method)
        if args.format == "json":
            return json.dumps(result.to_json(), sort_keys=True)
        return str(result.polynomial)

    if args.subcommand == "walks":
        walks = enumerate_walks(b, simple_only=not args.all)
        dump = [
            {**walk.to_json(), "weight": walk_weight(walk, b).to_json()}
            for walk in walks
        ]
        return json.dumps(dump, sort_keys=True)

    if args.subcommand == "matrix":
        return json.dumps(rho(b).to_json(), sort_keys=True)

    if args.subcommand == "check-positive":
        report = positive_braid_report(b, args.color)
        if args.format == "text":
            lines = [
                f"L_N = {report.L_N}",
                f"lowest degree = {report.lowest_degree}",
                f"leading coefficients = {list(report.leading_coefficients)}",
                f"verdict = {'true' if report.verdict else 'false'}",
            ]
            return "\n".join(lines)
        return json.dumps(report.to_json(), sort_keys=True)

    if args.subcommand == "oracle":
        poly = bracket_jones_oracle(b)
        if args.format == "json":
            return json.dumps(poly.to_json(), sort_keys=True)
        return str(poly)

    raise ValueError(f"unknown subcommand {args.subcommand!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = _dispatch(args)
    except PipelineMismatchError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except NotAKnotError as exc:
        print(f"error: closure is not a knot: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
