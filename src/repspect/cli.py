"""Command-line interface: ``repspect analyze`` and ``repspect catalog``.

The command line is read with ``getopt`` (see ``parse_command_line``).
Flag values go to ``parse_config`` as config overrides, so the config's
validation is also theirs.

Exit codes: 0 when the analysis ran to completion (whatever the verdict)
or the usage was asked for; 1 for a malformed command line (the usage and
the reason go to stderr), for config errors, for problems refused by size
before they are allocated (``TooLarge``, printed as "too large: ...") and
for a report or trace that cannot be written (printed as "output error:
..." with the path); 2 for numerical failures (verdict conflict,
disagreeing dimension counts, or a singular value too close to the
nullspace cutoff).  A trace asked for when no measure is sampled is not
written, which stderr says; the exit code is not changed by it.
"""

from __future__ import annotations

import getopt
import sys
from pathlib import Path

from .errors import (
    BadMeasureSpec,
    BadParams,
    ClosureOverflow,
    NonInvertibleGenerator,
    ParseError,
    RepspectError,
    TooLarge,
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
)

COMMAND_FLAGS = {
    "analyze": ("config=", "samples=", "seed=", "workers=", "format=", "trace="),
    "catalog": (),
}

USAGE = """\
usage: repspect analyze --config PATH [--samples N] [--seed N] [--workers N]
                        [--format json|text] [--trace PATH]
       repspect catalog
       repspect -h | --help

Certify irreducibility of real compact-group representations and verify
the invariant-measure moment identities.

commands:
  analyze               run a full analysis from a JSON config
  catalog               list built-in groups, representations and measures

analyze flags:
  --config PATH         path to the JSON config (required)
  --samples N           override: Monte Carlo pair count
  --seed N              override: master seed
  --workers N           override: worker stream count
  --format json|text    override: report format
  --trace PATH          override: convergence CSV path

Flags take "--name VALUE" or "--name=VALUE" and may be shortened to a
unique prefix.  Exit codes: 0 analysis completed (whatever the verdict);
1 malformed command line, config error, problem too large, or output not
writable; 2 numerical failure.
"""

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


def parse_command_line(argv: list[str]) -> tuple[str, dict]:
    """The command of a ``repspect`` command line with its flags, by full
    name: ``("help", {})``, ``("catalog", {})`` or ``("analyze", flags)``.

    Long flags take ``--name VALUE`` or ``--name=VALUE`` and may be
    shortened to a unique prefix; the last of a repeated flag wins.
    Raises getopt.GetoptError on a malformed command line.
    """
    opts, args = getopt.getopt(argv, "h", ["help"])
    if opts:
        return "help", {}
    if not args:
        raise getopt.GetoptError("a command is required: analyze or catalog")
    command = args[0]
    if command not in COMMAND_FLAGS:
        raise getopt.GetoptError(f"unknown command {command!r}: use analyze or catalog")
    opts, args = getopt.getopt(args[1:], "h", ["help", *COMMAND_FLAGS[command]])
    flags = {name.lstrip("-"): value for name, value in opts}
    if "h" in flags or "help" in flags:
        return "help", {}
    if args:
        raise getopt.GetoptError(f"unexpected argument {args[0]!r}")
    if command == "analyze" and "config" not in flags:
        raise getopt.GetoptError("analyze needs --config PATH")
    return command, flags


def flag_overrides(flags: dict) -> dict:
    """The config fields that the ``analyze`` flags given replace.  A number
    flag that does not read as an integer stays text, for validation to
    refuse like a config value."""
    overrides = {key: _integer(flags[key]) for key in ("samples", "seed", "workers") if key in flags}
    outputs = {key: flags[key] for key in ("format", "trace") if key in flags}
    return dict(overrides, outputs=outputs) if outputs else overrides


def _integer(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    try:
        command, flags = parse_command_line(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as e:
        print(f"{USAGE}\nrepspect: error: {e.msg}", file=sys.stderr)
        return 1
    if command == "help":
        print(USAGE, end="")
        return 0
    if command == "catalog":
        print(catalog_text(), end="")
        return 0

    try:
        cfg = parse_config(Path(flags["config"]), flag_overrides(flags))
        report = run_analysis(cfg)
    except CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except TooLarge as e:
        print(f"too large: {e}", file=sys.stderr)
        return 1
    except RepspectError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2

    written = emit_outputs(report, cfg)
    if cfg.report_path is None:
        print(written["report_text"], end="")
    elif written["report_path"]:
        print(f"report written to {written['report_path']}")
    if written["trace_path"]:
        print(f"trace written to {written['trace_path']}")
    elif cfg.trace_path and report.trace_rows is None:
        print("no trace written: no measure is sampled", file=sys.stderr)
    if written["error"]:
        print(f"output error: {written['error']}", file=sys.stderr)
        return 1

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
