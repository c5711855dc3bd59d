"""Command-line front end.

Subcommands: validate, canonicalize, decompose, classify, simulate.  Reports
are JSON (schema 1) written to stdout or --out; exit codes: 0 all required
checks passed, 1 checks failed, 2 parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .core import Check, Polyhedron, QuadraticSpace, jsonable
from .errors import (AffinvarError, NotAdmissibleError, NotRepresentableError,
                     ParseError, PreconditionFailedError)
from .modelio import load_model, model_to_dict, save_model
from .polyhedral import canonical_transform
from .quadratic import canonical_quadric_model, classify_quadric
from .report import Report, decomposition_status, validate
from .simulate import (Scheme, SimConfig, mean_ode, simulate_paths,
                       simulate_summary, simulation_frame)
from .tolerances import tolerances

EXIT_OK, EXIT_CHECKS, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3


# Each subcommand returns its report and exit code; `main` prints the report,
# which has passed exactly when the code is 0.

def cmd_validate(args) -> tuple[Report, int]:
    report = validate(load_model(args.model))
    return report, EXIT_OK if report.passed else EXIT_CHECKS


# ---------------------------------------------------------------------------
# canonicalize / decompose / classify
# ---------------------------------------------------------------------------

def cmd_canonicalize(args) -> tuple[Report, int]:
    model = load_model(args.model)
    if not isinstance(model.state_space, Polyhedron):
        raise PreconditionFailedError("canonicalize applies to polyhedral models")
    ct = canonical_transform(model)
    if args.model_out:
        save_model(ct.model, args.model_out)
    transform = {
        "L": ct.map.L.tolist(), "ell": ct.map.ell.tolist(), "m": ct.m,
        "n": ct.n,
        "M": ct.facet_order[:ct.m].tolist(),
        "N": ct.facet_order[ct.m:ct.m + ct.n].tolist(),
        "facet_order": ct.facet_order.tolist(),
        "facet_scale": ct.facet_scale.tolist(),
        "psi": {"A0": ct.psi.A0.tolist(), "A": [M.tolist() for M in ct.psi.A]},
        "B": ct.B.tolist(),
    }
    return Report("canonicalize", model,
                  (Check("block-identity", True, margin=ct.block_residual),),
                  {"transform": transform,
                   "transformed_model": model_to_dict(ct.model)}), EXIT_OK


def cmd_decompose(args) -> tuple[Report, int]:
    model = load_model(args.model)
    blocks = {}
    if isinstance(model.state_space, Polyhedron):
        dec, blocks["decomposition"] = decomposition_status(model)
        if dec is None:
            code = EXIT_CHECKS if blocks["decomposition"]["status"] == \
                "not-representable" else EXIT_INTERNAL
            return Report("decompose", model, blocks=blocks), code
        blocks["decomposition"].update(B0=dec.B0.tolist(),
                                       Bi=[M.tolist() for M in dec.Bi])
    else:
        frame = canonical_quadric_model(model)
        blocks["classification"] = frame.classification.to_dict()
        dec = frame.fitted()
        if frame.classification.kind == "parabolic":
            blocks["decomposition"] = {
                "status": "ok", "kind": "parabolic", "c": dec.c,
                "A1": dec.A1.tolist(), "A2": dec.A2.tolist(),
                "B": {"A0": dec.B.A0.tolist(),
                      "A": [M.tolist() for M in dec.B.A]},
            }
        else:
            blocks["decomposition"] = {
                "status": "ok", "kind": "conical",
                "coeff_zeta": dec.coeff_zeta,
                "coeff_rho": dec.coeff_rho.tolist(),
            }
    return Report("decompose", model, blocks=blocks), EXIT_OK


def cmd_classify(args) -> tuple[Report, int]:
    model = load_model(args.model)
    if not isinstance(model.state_space, QuadraticSpace):
        raise PreconditionFailedError("classify applies to quadratic models")
    cls = classify_quadric(model.state_space.form)
    return Report("classify", model,
                  blocks={"classification": cls.to_dict()}), EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

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


def cmd_simulate(args) -> tuple[Report, int]:
    if not math.isfinite(args.t):
        raise ParseError(f"--t must be finite, got {args.t!r}")
    model = load_model(args.model)
    x0 = _start_point(args.x0, model.dimension)
    canon, sigma, f, default_x0 = simulation_frame(model)
    start = default_x0 if x0 is None else x0
    steps = args.steps if args.steps else max(1, int(round(1000 * args.t)))
    scheme = Scheme.FULL_TRUNCATION_EULER if args.scheme == "full-truncation" \
        else Scheme.PLAIN_EULER
    cfg = SimConfig(f.apply(start), args.t, steps, args.paths, args.seed, scheme)
    if args.csv:
        ens = simulate_paths(canon, sigma, cfg)
        final, exit_steps, nonfinite = ens.states[:, -1], ens.exit_flags, \
            ens.nonfinite
    else:  # the same kernel and exit tolerance, without storing the paths
        summ = simulate_summary(canon, sigma, cfg)
        final, exit_steps, nonfinite = summ.final_states, \
            summ.exit_stats.exit_steps, summ.nonfinite
    exited = exit_steps >= 0
    final = f.preimage(final)
    _, means_m = mean_ode(model, start, args.t, n_steps=1)  # only t is reported
    simulation = {
        "t": args.t, "steps": steps, "paths": args.paths, "seed": args.seed,
        "scheme": scheme.value, "x0": start.tolist(),
        "exit_fraction": float(np.count_nonzero(exited)) / args.paths,
        "nonfinite_paths": int(np.count_nonzero(nonfinite)),
        "final_mean": final.mean(axis=0).tolist(),
        "final_std": final.std(axis=0).tolist(),
        "mean_ode_final": means_m[-1].tolist(),
    }
    if args.csv:
        original = f.preimage(ens.states.reshape(-1, model.dimension)) \
            .reshape(ens.states.shape)
        with open(args.csv, "w") as fh:
            fh.write("t,path," + ",".join(f"x{i+1}" for i in range(model.dimension))
                     + "\n")
            for ipath in range(original.shape[0]):
                for it, t in enumerate(ens.times):
                    row = ",".join(repr(float(v)) for v in original[ipath, it])
                    fh.write(f"{float(t)!r},{ipath},{row}\n")
    return Report("simulate", model, blocks={"simulation": simulation}), EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--x0", help="comma-separated start point")
    sp.add_argument("--scheme", choices=["full-truncation", "plain"],
                    default="full-truncation")
    sp.add_argument("--csv", help="dump paths to CSV (t,path,x1,...)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def _command(name: str):
    """The handler of a subcommand, looked up when the call is made."""
    return {"validate": cmd_validate, "canonicalize": cmd_canonicalize,
            "decompose": cmd_decompose, "classify": cmd_classify,
            "simulate": cmd_simulate}[name]


def _run(args) -> int:
    """Run the subcommand and print its report to stdout or --out."""
    report, code = _command(args.command)(args)
    text = json.dumps(report.to_dict() | {"passed": code == EXIT_OK}, indent=2,
                      sort_keys=True, default=jsonable)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.tol is None:
            return _run(args)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ParseError(f"--tol must be finite and positive, got {args.tol!r}")
        with tolerances(feasibility=args.tol):
            return _run(args)
    except ParseError as exc:
        print(json.dumps({"schema": 1, "error": "parse", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_PARSE
    except AffinvarError as exc:
        print(json.dumps({"schema": 1, "error": type(exc).__name__,
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_CHECKS if isinstance(
            exc, (NotAdmissibleError, NotRepresentableError,
                  PreconditionFailedError)) else EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001
        print(json.dumps({"schema": 1, "error": "internal", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
