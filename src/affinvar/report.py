"""The report (schema 1) and the verdict of every subcommand.

Each of `validate`, `canonicalize`, `decompose`, `classify` and `simulate`
runs the deciders of `convex`, `polyhedral`, `quadratic` and `simulate` on
a model and returns a `Report`: its checks, each a `core.Check` from its
decider, and the blocks around them, the JSON that the CLI prints.  The
`Report` alone decides whether the outcome passed or is inconclusive; the
CLI (`cli.py`) parses the arguments, loads the model, writes the files and
maps the report to its exit code.  Each function imports the deciders it
calls when it runs, so a subcommand loads only the modules it reaches: a
polyhedral model never loads `quadratic`, a quadric never `convex` or
`polyhedral`, and only `simulate` loads `simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core import Check, ModelSpec, Polyhedron, QuadraticSpace, spot_check_psd
from .errors import (NotRepresentableError, NumericalFailureError,
                     PreconditionFailedError)
from .modelio import model_hash, model_to_dict

if TYPE_CHECKING:
    from .simulate import PathEnsemble


@dataclass(frozen=True)
class Report:
    """The report (schema 1) of ``command`` on ``model``: its checks, in
    order, and the blocks of its output, as JSON values.  On an admissible
    polyhedral model `validate` adds the blocks ``lifted_drift``,
    ``canonical`` and ``decompose``, on a quadric ``classification`` and,
    on a parabola that passes every gate, ``open_invariance``.  A
    `simulate` report that keeps its paths holds them, in the model's
    coordinates, as ``ensemble``, which the JSON leaves out."""

    command: str
    model: ModelSpec
    checks: tuple[Check, ...] = ()
    blocks: dict = field(default_factory=dict)
    ensemble: PathEnsemble | None = None

    @property
    def passed(self) -> bool:
        """Every check passed, and a decomposition asked for exists."""
        return all(c.passed for c in self.checks) and \
            self.blocks.get("decomposition", {}).get("status", "ok") == "ok"

    @property
    def inconclusive(self) -> bool:
        """The decomposition search failed without refuting one."""
        return self.blocks.get("decomposition", {}).get("status") == \
            "inconclusive"

    def to_dict(self) -> dict:
        """The report as the CLI prints it."""
        model = self.model
        kind = "polyhedral" if isinstance(model.state_space, Polyhedron) \
            else "quadratic"
        return {"schema": 1, "version": __version__, "command": self.command,
                "model": {"hash": model_hash(model),
                          "dimension": model.dimension, "kind": kind},
                "checks": [c.to_dict() for c in self.checks], **self.blocks,
                "passed": self.passed}


def validate(model: ModelSpec) -> Report:
    """The admissibility suite of a polyhedral or quadric model.  A model
    that no check can be posed for raises, as the deciders do."""
    if isinstance(model.state_space, Polyhedron):
        return _validate_polyhedral(model)
    return _validate_quadric(model)


def _validate_polyhedral(model: ModelSpec) -> Report:
    from .convex import interior_point
    from .polyhedral import (_require_polyhedron, canonical_transform,
                             check_polyhedral_admissibility)
    poly = _require_polyhedron(model)
    minimal = ModelSpec(model.dimension, model.drift, model.diffusion, poly)
    x0 = interior_point(poly)
    checks = [Check("interior-nonempty", x0 is not None, witness=x0,
                    info=None if x0 is not None else "empty interior")]
    if x0 is None:
        return Report("validate", model, tuple(checks))
    rng = np.random.default_rng(5)
    pts = x0 + 0.05 * rng.standard_normal((32, model.dimension))
    pts = pts[np.asarray(poly.contains(pts))]
    ok, worst = spot_check_psd(minimal, np.vstack([x0[None], pts]))
    checks.append(Check("theta-psd-on-interior-samples", ok, margin=worst))
    adm = check_polyhedral_admissibility(minimal)
    checks += adm.checks
    if not adm.admissible:
        return Report("validate", model, tuple(checks))
    ct = canonical_transform(minimal)
    a_bar, b_bar = adm.lifted_drift
    return Report("validate", model, tuple(checks), {
        "lifted_drift": {"a_bar": a_bar.tolist(), "b_bar": b_bar.tolist()},
        "canonical": {"m": ct.m, "n": ct.n},
        "decompose": {key: value for key, value in
                      decompose(minimal).blocks["decomposition"].items()
                      if key not in ("B0", "Bi")}})


def _validate_quadric(model: ModelSpec) -> Report:
    from .quadratic import (canonical_quadric_model, check_cone_admissibility,
                            check_parabolic_drift,
                            check_parabolic_psd_condition)
    frame = canonical_quadric_model(model)
    cls = frame.classification
    blocks = {"classification": cls.to_dict()}
    checks = [check for check, _ in frame.gates()]
    if not all(c.passed for c in checks):
        return Report("validate", model, tuple(checks), blocks)
    normal = frame.normalized()
    p, q = model.dimension, cls.q
    if cls.kind != "parabolic":
        checks += check_cone_admissibility(normal.model.drift, p, q)
        return Report("validate", model, tuple(checks), blocks)
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((64, q - 1))
    samples = np.hstack([(np.sum(ys ** 2, axis=1) +
                          np.abs(rng.standard_normal(64)))[:, None], ys,
                         rng.standard_normal((64, p - q))])
    psd_ok, structural = check_parabolic_psd_condition(normal.structure, samples)
    checks.append(Check("parabolic-psd-condition", psd_ok,
                        info="structural" if structural else "sampled"))
    *drift, open_ = check_parabolic_drift(normal.model.drift, q)
    blocks["open_invariance"] = {"passed": open_.passed, "margin": open_.margin}
    return Report("validate", model, tuple(checks + drift), blocks)


def canonicalize(model: ModelSpec) -> Report:
    """The canonical transform of a polyhedral model and the model in its
    coordinates (`polyhedral.canonical_transform`)."""
    if not isinstance(model.state_space, Polyhedron):
        raise PreconditionFailedError("canonicalize applies to polyhedral models")
    from .polyhedral import canonical_transform
    ct = canonical_transform(model)
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
                   "transformed_model": model_to_dict(ct.model)})


def decompose(model: ModelSpec) -> Report:
    """The PSD facet decomposition of a polyhedral model's diffusion, or the
    parabolic or conical decomposition of a quadric's.  The polyhedral
    block's status is "ok", with the least eigenvalue of the blocks,
    "not-representable" (no PSD decomposition exists: the report fails) or
    "inconclusive" (the search failed)."""
    if isinstance(model.state_space, Polyhedron):
        from .polyhedral import psd_decompose
        try:
            dec = psd_decompose(model)
        except NotRepresentableError as exc:
            block = {"status": "not-representable", "detail": str(exc)}
        except NumericalFailureError as exc:
            block = {"status": "inconclusive", "detail": str(exc)}
        else:
            block = {"status": "ok", "min_eigenvalue": dec.min_eigenvalue(),
                     "B0": dec.B0.tolist(), "Bi": [M.tolist() for M in dec.Bi]}
        return Report("decompose", model, blocks={"decomposition": block})
    from .quadratic import canonical_quadric_model
    frame = canonical_quadric_model(model)
    cls, dec = frame.classification, frame.fitted()
    if cls.kind == "parabolic":
        block = {"kind": "parabolic", "c": dec.c, "A1": dec.A1.tolist(),
                 "A2": dec.A2.tolist(),
                 "B": {"A0": dec.B.A0.tolist(), "A": dec.B.A.tolist()}}
    else:
        block = {"kind": "conical", "coeff_zeta": dec.coeff_zeta,
                 "coeff_rho": dec.coeff_rho.tolist()}
    return Report("decompose", model, blocks={
        "classification": cls.to_dict(),
        "decomposition": {"status": "ok", **block}})


def classify(model: ModelSpec) -> Report:
    """The canonical form of a quadratic model's boundary quadric."""
    if not isinstance(model.state_space, QuadraticSpace):
        raise PreconditionFailedError("classify applies to quadratic models")
    from .quadratic import classify_quadric
    return Report("classify", model, blocks={
        "classification": classify_quadric(model.state_space.form).to_dict()})


def simulate(model: ModelSpec, t: float = 1.0, steps: int = 0,
             paths: int = 1000, seed: int = 0, x0=None,
             scheme: str = "full-truncation", csv: bool = False) -> Report:
    """Monte Carlo paths to time ``t``, with the options and defaults of
    `affinvar simulate` (``steps=0``: 1000 per unit time; ``x0=None``: the
    start of `simulation_frame`), run in the canonical frame.  With ``csv``
    the report keeps them, in the model's coordinates, as ``ensemble``;
    otherwise they are streamed and never stored, and the report is the
    same."""
    from .simulate import (Scheme, SimConfig, mean_ode, simulate_paths,
                           simulate_summary, simulation_frame)
    canon, sigma, f, default_x0 = simulation_frame(model)
    start = default_x0 if x0 is None else np.asarray(x0, dtype=float)
    steps = steps or max(1, int(round(1000 * t)))
    cfg = SimConfig(f.apply(start), t, steps, paths, seed, Scheme(scheme))
    if csv:
        ens = simulate_paths(canon, sigma, cfg)
        final, exit_steps, nonfinite = ens.states[:, -1], ens.exit_flags, \
            ens.nonfinite
        ens = replace(ens, states=f.preimage(
            ens.states.reshape(-1, model.dimension)).reshape(ens.states.shape))
    else:
        ens, summ = None, simulate_summary(canon, sigma, cfg)
        final, exit_steps, nonfinite = summ.final_states, \
            summ.exit_stats.exit_steps, summ.nonfinite
    final = f.preimage(final)
    _, means_m = mean_ode(model, start, t, n_steps=1)  # only t is reported
    simulation = {
        "t": t, "steps": steps, "paths": paths, "seed": seed,
        "scheme": cfg.scheme.value, "x0": start.tolist(),
        "exit_fraction": float(np.count_nonzero(exit_steps >= 0)) / paths,
        "nonfinite_paths": int(np.count_nonzero(nonfinite)),
        "final_mean": final.mean(axis=0).tolist(),
        "final_std": final.std(axis=0).tolist(),
        "mean_ode_final": means_m[-1].tolist(),
    }
    return Report("simulate", model, blocks={"simulation": simulation},
                  ensemble=ens)
