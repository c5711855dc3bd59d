"""Reports of schema 1, which the CLI prints as JSON, and the verdict of
`validate`: the checks of a model's polyhedral or quadric route, each a
`core.Check` from its decider, and the blocks of the report around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .convex import interior_point
from .core import Check, ModelSpec, Polyhedron, spot_check_psd
from .errors import NotRepresentableError, NumericalFailureError
from .modelio import model_hash
from .polyhedral import (_require_polyhedron, canonical_transform,
                         check_polyhedral_admissibility, psd_decompose)
from .quadratic import (canonical_quadric_model, check_cone_admissibility,
                        check_parabolic_drift, check_parabolic_psd_condition)


def decomposition_status(model: ModelSpec):
    """``psd_decompose``'s outcome: the decomposition (None when there is
    none) and a report entry whose status is "ok", with the least eigenvalue
    of its blocks, "not-representable" (no PSD decomposition exists) or
    "inconclusive" (the search failed)."""
    try:
        dec = psd_decompose(model)
        return dec, {"status": "ok", "min_eigenvalue": dec.min_eigenvalue()}
    except NotRepresentableError as exc:
        return None, {"status": "not-representable", "detail": str(exc)}
    except NumericalFailureError as exc:
        return None, {"status": "inconclusive", "detail": str(exc)}


@dataclass(frozen=True)
class Report:
    """The report (schema 1) of ``command`` on ``model``: its checks, in
    order, and the blocks of its output, as JSON values.  On an admissible
    polyhedral model `validate` adds the blocks ``lifted_drift``,
    ``canonical`` and ``decompose``, on a quadric ``classification`` and,
    on a parabola that passes every gate, ``open_invariance``."""

    command: str
    model: ModelSpec
    checks: tuple[Check, ...] = ()
    blocks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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
        "decompose": decomposition_status(minimal)[1]})


def _validate_quadric(model: ModelSpec) -> Report:
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
