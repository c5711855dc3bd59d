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
from .convex import interior_point
from .core import ModelSpec, Polyhedron, QuadraticSpace, spot_check_psd
from .errors import (AffinvarError, NotAdmissibleError, NotRepresentableError,
                     NumericalFailureError, ParseError, PreconditionFailedError)
from .modelio import load_model, model_hash, model_to_dict, save_model
from .polyhedral import (_require_polyhedron, canonical_transform,
                         check_polyhedral_admissibility, psd_decompose)
from .quadratic import (QuadricClassification, canonical_quadric_model,
                        check_cone_admissibility, check_parabolic_drift,
                        check_parabolic_psd_condition, classify_quadric)
from .simulate import (Scheme, SimConfig, mean_ode, simulate_paths,
                       simulate_summary, simulation_frame)
from .tolerances import tolerances

EXIT_OK, EXIT_CHECKS, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3


def _tolist(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _check(name: str, passed: bool, margin=None, certificate=None,
           witness=None, info=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if margin is not None:
        entry["margin"] = _tolist(margin)
    if certificate is not None:
        entry["certificate"] = _tolist(certificate)
    if witness is not None:
        entry["witness"] = _tolist(witness)
    if info is not None:
        entry["info"] = info
    return entry


def _report_base(command: str, model: ModelSpec) -> dict:
    kind = "polyhedral" if isinstance(model.state_space, Polyhedron) else "quadratic"
    return {
        "schema": 1,
        "version": __version__,
        "command": command,
        "model": {"hash": model_hash(model), "dimension": model.dimension,
                  "kind": kind},
        "checks": [],
    }


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_tolist)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _classification_dict(cls: QuadricClassification) -> dict:
    return {"kind": cls.kind, "q": cls.q, "d": cls.d, "sign": cls.sign,
            "admissible": cls.admissible, "T": cls.map.L.tolist(),
            "t": cls.map.ell.tolist()}


def _decomposition(model: ModelSpec):
    """``psd_decompose``'s outcome: the decomposition (None when there is
    none) and a report entry whose status is "ok", "not-representable" (no
    PSD decomposition exists) or "inconclusive" (the search failed)."""
    try:
        return psd_decompose(model), {"status": "ok"}
    except NotRepresentableError as exc:
        return None, {"status": "not-representable", "detail": str(exc)}
    except NumericalFailureError as exc:
        return None, {"status": "inconclusive", "detail": str(exc)}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_polyhedral(model: ModelSpec, report: dict) -> None:
    checks = report["checks"]
    poly = _require_polyhedron(model)
    model = ModelSpec(model.dimension, model.drift, model.diffusion, poly)
    x0 = interior_point(poly)
    checks.append(_check("interior-nonempty", x0 is not None,
                         witness=x0))
    if x0 is None:
        return
    rng = np.random.default_rng(5)
    pts = x0 + 0.05 * rng.standard_normal((32, model.dimension))
    pts = pts[np.asarray(poly.contains(pts))]
    ok, worst = spot_check_psd(model, np.vstack([x0[None], pts]))
    checks.append(_check("theta-psd-on-interior-samples", ok, margin=worst))

    adm = check_polyhedral_admissibility(model)
    for fc in adm.facets:
        checks.append(_check(
            f"facet-{fc.index}-diffusion", fc.diffusion_ok,
            margin=fc.diffusion_multiple,
            certificate=None if fc.coupling_row is None else fc.coupling_row,
            info=fc.message or None))
        checks.append(_check(
            f"facet-{fc.index}-drift", fc.drift_ok,
            certificate=None if fc.drift_certificate is None else
            {"lambda": fc.drift_certificate.lam.tolist(),
             "c": fc.drift_certificate.c},
            witness=fc.witness))

    if adm.admissible:
        a_bar, b_bar = adm.lifted_drift
        report["lifted_drift"] = {"a_bar": a_bar.tolist(), "b_bar": b_bar.tolist()}
        ct = canonical_transform(model)
        report["canonical"] = {"m": ct.m, "n": ct.n}
        dec, report["decompose"] = _decomposition(model)
        if dec is not None:
            report["decompose"]["min_eigenvalue"] = dec.min_eigenvalue()


def _validate_quadratic(model: ModelSpec, report: dict) -> None:
    checks = report["checks"]
    frame = canonical_quadric_model(model)
    cls, dec, exc = frame.classification, frame.structure, frame.refutation
    report["classification"] = _classification_dict(cls)
    checks.append(_check("quadric-admissible-kind", cls.admissible,
                         info=f"{cls.kind}(q={cls.q}, d={cls.d})"))
    if not cls.admissible:
        return
    if frame.model.state_space.component != "positive":
        checks.append(_check("state-space-side", False,
                             info="state space is the outside of the quadric"))
        return
    p, q = model.dimension, cls.q
    if cls.kind == "parabolic":
        if dec is None:
            checks.append(_check("parabolic-structure", False,
                                 margin=exc.margin, info=str(exc)))
            return
        checks.append(_check("parabolic-structure", True, margin=dec.c))
        if not dec.carries_root:
            checks.append(_check("square-root-block-present", False,
                                 info="c = 0; diffusion degenerate on the parabola"))
            return
        normal = frame.normalized()
        rng = np.random.default_rng(6)
        ys = rng.standard_normal((64, q - 1))
        samples = np.hstack([(np.sum(ys ** 2, axis=1) +
                              np.abs(rng.standard_normal(64)))[:, None], ys,
                             rng.standard_normal((64, p - q))])
        psd_ok, structural = check_parabolic_psd_condition(normal.structure, samples)
        checks.append(_check("parabolic-psd-condition", psd_ok,
                             info="structural" if structural else "sampled"))
        drift_rep = check_parabolic_drift(normal.model.drift, q)
        checks.append(_check("parabolic-drift-structure", drift_rep.structure_ok))
        checks.append(_check("parabolic-drift-psd", drift_rep.psd_ok))
        checks.append(_check("parabolic-drift-degenerate-match", drift_rep.q2_ok))
        checks.append(_check("parabolic-drift-lower-bound", drift_rep.closed_ok,
                             margin=drift_rep.closed_margin))
        report["open_invariance"] = {"passed": drift_rep.open_invariant,
                                     "margin": drift_rep.open_margin}
    else:  # cone
        if q != p:
            checks.append(_check("cone-full-dimension", False,
                                 info="only p = q conical models are supported"))
            return
        if dec is None:
            checks.append(_check("conical-structure", False, info=str(exc)))
            return
        checks.append(_check("conical-structure", True,
                             certificate={"zeta": dec.coeff_zeta,
                                          "rho": dec.coeff_rho.tolist()}))
        if not dec.normalized:
            checks.append(_check("cone-zeta-form", False,
                                 info="strong-solution route needs theta = zeta"))
            return
        rep = check_cone_admissibility(frame.model.drift, p, q)
        checks.append(_check("cone-drift-symmetry", rep.symmetry_ok))
        checks.append(_check("cone-drift-psd", rep.psd_ok))
        checks.append(_check("cone-drift-lower-bound", rep.drift_ok,
                             margin=rep.drift_margin))


def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = _report_base("validate", model)
    if isinstance(model.state_space, Polyhedron):
        _validate_polyhedral(model, report)
    else:
        _validate_quadratic(model, report)
    passed = all(c["passed"] for c in report["checks"])
    report["passed"] = passed
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_CHECKS


# ---------------------------------------------------------------------------
# canonicalize / decompose / classify
# ---------------------------------------------------------------------------

def cmd_canonicalize(args) -> int:
    model = load_model(args.model)
    if not isinstance(model.state_space, Polyhedron):
        raise PreconditionFailedError("canonicalize applies to polyhedral models")
    report = _report_base("canonicalize", model)
    ct = canonical_transform(model)
    report["transform"] = {
        "L": ct.map.L.tolist(), "ell": ct.map.ell.tolist(), "m": ct.m,
        "n": ct.n,
        "M": ct.facet_order[:ct.m].tolist(),
        "N": ct.facet_order[ct.m:ct.m + ct.n].tolist(),
        "facet_order": ct.facet_order.tolist(),
        "facet_scale": ct.facet_scale.tolist(),
        "psi": {"A0": ct.psi.A0.tolist(), "A": [M.tolist() for M in ct.psi.A]},
        "B": ct.B.tolist(),
    }
    report["transformed_model"] = model_to_dict(ct.model)
    report["checks"].append(_check("block-identity", True,
                                   margin=ct.block_residual))
    report["passed"] = True
    if args.model_out:
        save_model(ct.model, args.model_out)
    _emit(report, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    model = load_model(args.model)
    report = _report_base("decompose", model)
    if isinstance(model.state_space, Polyhedron):
        dec, report["decomposition"] = _decomposition(model)
        if dec is None:
            report["passed"] = False
            _emit(report, args.out)
            return EXIT_CHECKS if report["decomposition"]["status"] == \
                "not-representable" else EXIT_INTERNAL
        report["decomposition"].update(
            B0=dec.B0.tolist(), Bi=[M.tolist() for M in dec.Bi],
            min_eigenvalue=dec.min_eigenvalue())
    else:
        frame = canonical_quadric_model(model)
        report["classification"] = _classification_dict(frame.classification)
        dec = frame.fitted()
        if frame.classification.kind == "parabolic":
            report["decomposition"] = {
                "status": "ok", "kind": "parabolic", "c": dec.c,
                "A1": dec.A1.tolist(), "A2": dec.A2.tolist(),
                "B": {"A0": dec.B.A0.tolist(),
                      "A": [M.tolist() for M in dec.B.A]},
            }
        else:
            report["decomposition"] = {
                "status": "ok", "kind": "conical",
                "coeff_zeta": dec.coeff_zeta,
                "coeff_rho": dec.coeff_rho.tolist(),
            }
    report["passed"] = True
    _emit(report, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if not isinstance(model.state_space, QuadraticSpace):
        raise PreconditionFailedError("classify applies to quadratic models")
    report = _report_base("classify", model)
    cls = classify_quadric(model.state_space.form)
    report["classification"] = _classification_dict(cls)
    report["passed"] = True
    _emit(report, args.out)
    return EXIT_OK


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


def cmd_simulate(args) -> int:
    if not math.isfinite(args.t):
        raise ParseError(f"--t must be finite, got {args.t!r}")
    model = load_model(args.model)
    x0 = _start_point(args.x0, model.dimension)
    report = _report_base("simulate", model)
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
    report["simulation"] = {
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
    report["passed"] = True
    _emit(report, args.out)
    return EXIT_OK


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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.tol is None:
            return _command(args.command)(args)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ParseError(f"--tol must be finite and positive, got {args.tol!r}")
        with tolerances(feasibility=args.tol):
            return _command(args.command)(args)
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
