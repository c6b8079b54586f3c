"""Command-line interface: ``repspect analyze`` and ``repspect catalog``.

Exit codes: 0 when the analysis ran to completion (whatever the verdict),
1 for config errors, 2 for numerical failures (verdict conflict,
non-stabilized commutant dimension, or a singular value too close to the
nullspace cutoff).
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BadMeasureSpec,
    BadParams,
    ClosureOverflow,
    NonInvertibleGenerator,
    ParseError,
    RepspectError,
    UnknownName,
    ValidationError,
)
from .report import emit_outputs, parse_config, run_analysis
from .representations import CATALOG

CONFIG_ERRORS = (
    ParseError,
    ValidationError,
    UnknownName,
    BadParams,
    BadMeasureSpec,
    NonInvertibleGenerator,
    ClosureOverflow,
    FileNotFoundError,
)

CATALOG_TEMPLATE = """\
groups:
  symmetric(n)            all permutations of n points
  cyclic(n)               planar rotations by multiples of 2*pi/n
  dihedral(n)             rotations plus a reflection
  quaternion8             the eight unit quaternions (4x4 matrices)
  orthogonal(n)           all n x n orthogonal matrices (continuous)
  special_orthogonal(n)   orthogonal matrices of determinant +1 (continuous)
  permutation_generators  explicit permutations (one-line images)
  matrix_generators       explicit invertible real matrices

representations:
{representations}

measures:
  orbit                   push-forward of the group's invariant
                          distribution through g -> rho(g) base
  uniform_sphere          uniform on the unit sphere
  uniform_subsphere       uniform on the sphere of a subspace
  discrete                finitely many weighted unit points
"""


def catalog_text() -> str:
    """The ``repspect catalog`` listing, representations read from the catalog table."""
    lines = []
    for entry in CATALOG.values():
        help_lines = entry.help.split("\n")
        help_lines[-1] = f"{help_lines[-1]:<41}(dim {entry.dim_help})"
        for i, line in enumerate(help_lines):
            lines.append(f"  {entry.name if i == 0 else '':<24}{line}")
    return CATALOG_TEMPLATE.format(representations="\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repspect",
        description="Certify irreducibility of real compact-group representations "
        "and verify the invariant-measure moment identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a full analysis from a JSON config")
    analyze.add_argument("--config", required=True, help="path to the JSON config")
    analyze.add_argument("--samples", type=int, help="override: Monte Carlo pair count")
    analyze.add_argument("--seed", type=int, help="override: master seed")
    analyze.add_argument("--workers", type=int, help="override: worker stream count")
    analyze.add_argument("--format", choices=("json", "text"), help="override: report format")
    analyze.add_argument("--trace", help="override: convergence CSV path")

    sub.add_parser("catalog", help="list built-in groups, representations and measures")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        print(catalog_text(), end="")
        return 0

    try:
        cfg = parse_config(args.config)
        if args.samples is not None:
            if args.samples < 2:
                raise ValidationError("--samples must be >= 2")
            cfg.samples = args.samples
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ValidationError("--seed must fit in an unsigned 64-bit integer")
            cfg.seed = args.seed
        if args.workers is not None:
            if args.workers < 1:
                raise ValidationError("--workers must be >= 1")
            cfg.workers = args.workers
        if args.format is not None:
            cfg.format = args.format
        if args.trace is not None:
            cfg.trace_path = args.trace
    except CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        report = run_analysis(cfg)
    except CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except RepspectError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2

    written = emit_outputs(report, cfg)
    if written["report_path"] is None:
        print(written["report_text"], end="")
    else:
        print(f"report written to {written['report_path']}")
    if written["trace_path"]:
        print(f"trace written to {written['trace_path']}")

    if report.commutant.ambiguous_sigma is not None:
        print(
            "numerical failure: a singular value sits within a decade of the "
            "nullspace cutoff; the commutant dimension is not trustworthy",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
