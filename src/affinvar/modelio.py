"""Model file I/O.

A model file is a JSON object:

    {
      "dimension": p,
      "drift": {"a": [[...]], "b": [...]},
      "diffusion": {"A0": [[...]], "A": [[[...]], ...]},
      "state_space":
          {"kind": "polyhedral", "gamma": [[...]], "delta": [...]}
        | {"kind": "quadratic", "A": [[...]], "b": [...], "c": 0.0,
           "component": "positive"|"negative", "closed": true|false}
    }

All nested arrays are row-major.  ``diffusion.A`` lists one symmetric p x p
matrix per coordinate.  ``dimension`` is an integer and ``closed`` (true when
absent) a boolean, or the file is a ParseError.  A written polyhedral state space also carries
``"minimal"``; it is not read back, since a file cannot vouch that its facets
are irredundant: only ``minimalize`` establishes that.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import (AffineMatrixField, AffineVectorField, ModelSpec, Polyhedron,
                   QuadraticForm, QuadraticSpace, to_json)
from .errors import ParseError


def _array(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"invalid model file: {name} has non-finite entries")
    return arr


def _typed(value, kind: type, name: str):
    """value when its type is kind, int or bool: true is no int here."""
    if type(value) is not kind:
        raise ParseError(f"invalid model file: {name} must be a JSON "
                         f"{kind.__name__}, not {value!r}")
    return value


def model_from_dict(obj: dict) -> ModelSpec:
    try:
        p = _typed(obj["dimension"], int, "dimension")
        drift = AffineVectorField(_array(obj["drift"]["a"], "drift.a"),
                                  _array(obj["drift"]["b"], "drift.b"))
        diff = AffineMatrixField(_array(obj["diffusion"]["A0"], "diffusion.A0"),
                                 _array(obj["diffusion"]["A"], "diffusion.A"))
        ss = obj["state_space"]
        kind = ss["kind"]
        if kind == "polyhedral":
            gamma = _array(ss["gamma"], "gamma")
            if gamma.shape == (0,):  # "gamma": [] is R^p, with no facet row
                gamma = gamma.reshape(0, p)
            space = Polyhedron(gamma, _array(ss["delta"], "delta"))
        elif kind == "quadratic":
            space = QuadraticSpace(
                QuadraticForm(_array(ss["A"], "A"), _array(ss["b"], "b"),
                              float(_array(ss["c"], "c"))),
                component=ss.get("component", "positive"),
                closed=_typed(ss.get("closed", True), bool, "closed"))
        else:
            raise ParseError(f"unknown state_space kind {kind!r}")
        return ModelSpec(p, drift, diff, space)
    except ParseError:
        raise
    except Exception as exc:  # noqa: BLE001 - wrap any schema violation
        raise ParseError(f"invalid model file: {exc}") from exc


def model_to_dict(model: ModelSpec) -> dict:
    ss = model.state_space
    if isinstance(ss, Polyhedron):
        space = {"kind": "polyhedral", "gamma": ss.gamma.tolist(),
                 "delta": ss.delta.tolist(), "minimal": ss.minimal}
    else:
        space = {"kind": "quadratic", "A": ss.form.A.tolist(), "b": ss.form.b.tolist(),
                 "c": ss.form.c, "component": ss.component, "closed": ss.closed}
    return {
        "dimension": model.dimension,
        "drift": {"a": model.drift.a.tolist(), "b": model.drift.b.tolist()},
        "diffusion": {"A0": model.diffusion.A0.tolist(),
                      "A": [M.tolist() for M in model.diffusion.A]},
        "state_space": space,
    }


def load_model(path: str | Path) -> ModelSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(obj)


def save_model(model: ModelSpec, path: str | Path) -> None:
    """The model file of model, written by `core.to_json`: the text of
    ``json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)`` and a
    newline."""
    with open(path, "w") as fh:
        fh.write(to_json(model_to_dict(model)) + "\n")


def model_hash(model: ModelSpec) -> str:
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / f"{name}.json"


def load_fixture(name: str) -> ModelSpec:
    return load_model(fixture_path(name))
