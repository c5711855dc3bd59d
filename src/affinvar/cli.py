"""Command-line front end.

Subcommands: validate, canonicalize, decompose, classify, simulate.  The
function of the same name in `report.py` makes each one's report and
verdict; this module parses the arguments, checks --t, --x0 and --tol, loads
the model, writes the report (JSON, schema 1) to stdout or --out, writes
--model-out and --csv, and maps the report to its exit code: 0 passed,
1 checks failed, 2 parse error, 3 internal error or inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, report
from .core import to_json
from .errors import (AffinvarError, NotAdmissibleError, NotRepresentableError,
                     ParseError, PreconditionFailedError)
from .modelio import load_model
from .tolerances import tolerances

EXIT_OK, EXIT_CHECKS, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3


def _start_point(text: str | None, dimension: int) -> np.ndarray | None:
    """The --x0 point: `dimension` comma-separated finite numbers."""
    if not text:
        return None
    try:
        x0 = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ParseError(f"--x0 must be comma-separated numbers: {exc}") from exc
    if not np.all(np.isfinite(x0)):
        raise ParseError(f"--x0 must be finite, got {text!r}")
    if x0.shape != (dimension,):
        raise ParseError(f"--x0 must have {dimension} coordinates, got {text!r}")
    return x0


def _dump(obj, path: str | None = None) -> None:
    """obj as indented JSON, to the file at path or to stdout: `to_json`,
    the text of ``json.dumps(obj, indent=2, sort_keys=True,
    default=jsonable)``."""
    text = to_json(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(args) -> report.Report:
    """The report of the subcommand, with its --model-out or --csv file
    written."""
    if args.command != "simulate":
        rep = getattr(report, args.command)(load_model(args.model))
        if args.command == "canonicalize" and args.model_out:
            _dump(rep.blocks["transformed_model"], args.model_out)
        return rep
    if not math.isfinite(args.t):
        raise ParseError(f"--t must be finite, got {args.t!r}")
    model = load_model(args.model)
    rep = report.simulate(model, args.t, args.steps, args.paths, args.seed,
                          _start_point(args.x0, model.dimension), args.scheme,
                          csv=bool(args.csv))
    if args.csv:
        _write_csv(args.csv, rep.ensemble)
    return rep


def _write_csv(path: str, ens) -> None:
    """The paths of ``ens`` as CSV rows t,path,x1,...,xp, each number the
    repr of its float: one block per path, filled into a template of the
    whole path in which the times are formatted once."""
    n, k, p = ens.states.shape      # paths, grid times, coordinates
    row = ",".join(["%r"] * p) + "\n"
    template = "".join(f"{t!r},{{path}}," + row for t in ens.times.tolist())
    with open(path, "w") as fh:
        fh.write("t,path," + ",".join(f"x{i+1}" for i in range(p)) + "\n")
        for ipath, values in enumerate(ens.states.reshape(n, k * p).tolist()):
            fh.write(template.replace("{path}", str(ipath)) % tuple(values))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="affinvar",
        description="Validate, canonicalize, decompose, classify and simulate "
                    "affine diffusions on polyhedral and quadratic state spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model JSON file")
        sp.add_argument("--out", help="write the JSON report to this file")
        sp.add_argument("--tol", type=float, default=None,
                        help="rescale the check tolerances for this call")

    sp = sub.add_parser("validate", help="run the admissibility suite")
    common(sp)

    sp = sub.add_parser("canonicalize", help="block-diagonalize the diffusion")
    common(sp)
    sp.add_argument("--model-out", help="write the transformed model here")

    sp = sub.add_parser("decompose", help="PSD facet / parabolic / conical decomposition")
    common(sp)

    sp = sub.add_parser("classify", help="canonical form of the quadric boundary")
    common(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo path simulation")
    common(sp)
    sp.add_argument("--t", type=float, default=1.0, help="horizon")
    sp.add_argument("--steps", type=int, default=0,
                    help="steps (default 1000 per unit time)")
    sp.add_argument("--paths", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--x0", help="comma-separated start point; write "
                    "--x0=-2,0.5,0 when the first coordinate is negative")
    sp.add_argument("--scheme", choices=["full-truncation", "plain"],
                    default="full-truncation")
    sp.add_argument("--csv", help="dump paths to CSV (t,path,x1,...)")
    return parser


def _run(args) -> int:
    """Run the subcommand and print its report to stdout or --out."""
    rep = _report(args)
    _dump(rep.to_dict(), args.out)
    return EXIT_OK if rep.passed else \
        EXIT_INTERNAL if rep.inconclusive else EXIT_CHECKS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tol is None:
            return _run(args)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ParseError(f"--tol must be finite and positive, got {args.tol!r}")
        with tolerances(feasibility=args.tol):
            return _run(args)
    except Exception as exc:  # noqa: BLE001
        if isinstance(exc, ParseError):
            error, code = "parse", EXIT_PARSE
        elif isinstance(exc, AffinvarError):
            error, code = type(exc).__name__, EXIT_CHECKS if isinstance(
                exc, (NotAdmissibleError, NotRepresentableError,
                      PreconditionFailedError)) else EXIT_INTERNAL
        else:
            error, code = "internal", EXIT_INTERNAL
        print(json.dumps({"schema": 1, "error": error, "detail": str(exc)}),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
