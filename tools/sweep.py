"""Falsification sweeps: the generators of the oracle property tests, run
over a fixed seed range against each property's independent oracle.

Tier-1's property tests draw fresh examples each run, so a rare defect
shows up there as a flake.  These sweeps draw a fixed set and count what
fails:

- `certificates`: `convex._certificate` against `lp_certificate_exists`
  (scipy's LP) on the draws of
  `test_convex.py::test_minimalize_rank_deficient_matches_lp_oracle`:
  3 kinds x p 1-4 x 7 scales x SEEDS x a certified functional or not x
  `free` None or 0, each draw `default_rng(seed)` as the test makes it;
- `minimalize`: `convex.minimalize` against `_minimalize_by_lp`, the
  LP-only sequential rule of `test_convex.py`, on the polyhedra of the
  `certificates` sweep for MINIMALIZE_SEEDS: 3 kinds x p 1-4 x 7 scales x
  seeds, a disagreement when the rows kept differ;
- `classify`: `quadratic.classify_quadric` against the kind, q and
  admissibility of the draws of
  `test_quadratic.py::test_classification_invariant_under_affine_images`:
  3 kinds x p 2-5 x q 2..p x through the origin or not x CLASSIFY_SEEDS,
  each `_random_canonical_quadric` and its image by `random_affine_map`;
- `interior`: `convex.interior_point` against the Chebyshev radius of
  `_max_slack` (scipy's LP) and the KKT residual of
  `_least_distance_failure` on the draws of
  `test_convex.py::test_interior_point_least_distance_kkt`: p 1-4 x every
  choice of `_random_polyhedron` x INTERIOR_SEEDS; the draws the test
  assumes away (gamma ill-conditioned, radius within 1e-6 of 1) are counted
  as `skipped`;
- `nnls`: `convex._nnls` against `scipy.optimize.nnls` on N_NNLS problems
  drawn from `default_rng(1)` (`_dependent_columns`), whose columns from the
  third on are, with probability 1/2, combinations of two earlier ones plus
  noise of 1e-12 to 1e-5.  A result counts as `above_reference` when its
  residual is more than ABOVE |b| above scipy's.

The generators are imported from `tests/`, not copied, so the package,
scipy, pytest and hypothesis must import (the `dev` extra).  Prints one JSON
object: per sweep the calls, the raises by message, the disagreements with
the oracle, and each failure's draw, so that a failing draw becomes a fixed
test in one step; the seconds each sweep took go to stderr.  A call that
raises anything but `NumericalFailureError` is a finding, recorded with its
draw, and the sweep carries on.  Run it on two checkouts and diff:

    PYTHONPATH=src python tools/sweep.py > after.json
    PYTHONPATH=../parent/src python tools/sweep.py > before.json
    diff before.json after.json

The `certificates` sweep makes 50,400 calls, 2 to 2.5 minutes on a 2-core
machine; `minimalize` 4,200, about a minute; `classify` 18,000, about
7 s; `interior` 8,380 (and 20 skipped), about 30 s; `nnls` about 1 s.
"""

from __future__ import annotations

import collections
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.optimize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from affinvar.convex import (_certificate, _nnls,  # noqa: E402
                             interior_point, minimalize)
from affinvar.core import QuadraticForm  # noqa: E402
from affinvar.errors import NumericalFailureError  # noqa: E402
from affinvar.quadratic import classify_quadric  # noqa: E402
from conftest import lp_certificate_exists, random_affine_map  # noqa: E402
from test_convex import (SIMPLEX_SCALES, _functional,  # noqa: E402
                         _least_distance_failure, _max_slack,
                         _minimalize_by_lp, _random_polyhedron,
                         _rank_deficient_polyhedron)
from test_quadratic import KINDS as QUADRIC_KINDS  # noqa: E402
from test_quadratic import _push_forward, _random_canonical_quadric  # noqa: E402

KINDS = ("tangent", "low-rank", "orthant")
DIMENSIONS = (1, 2, 3, 4)
SCALES = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)
SEEDS = range(150)
MINIMALIZE_SEEDS = range(50)
CLASSIFY_SEEDS = range(150)
INTERIOR_SEEDS = range(150)
N_NNLS = 3000
ABOVE = 1e-6


class _Tally:
    """Calls, raises by message, disagreements and the failing draws of
    one sweep."""

    def __init__(self):
        self.calls = self.disagreements = 0
        self.raises = collections.Counter()
        self.failures = []

    def run(self, draw: dict, call) -> tuple[bool, object]:
        """(True, call()), or (False, None) after a raise, which is
        recorded with the draw."""
        self.calls += 1
        try:
            return True, call()
        except NumericalFailureError as exc:
            self.raises[str(exc)] += 1
            self.failures.append({**draw, "raised": str(exc)})
        except Exception as exc:  # a finding: the contract is the error above
            self.raises[f"{type(exc).__name__}: {exc}"] += 1
            self.failures.append({**draw, "finding": repr(exc)})
        return False, None

    def disagree(self, draw: dict, what: str):
        self.disagreements += 1
        self.failures.append({**draw, "disagrees": what})

    def report(self, **extra) -> dict:
        return {"calls": self.calls, "raises": dict(sorted(self.raises.items())),
                "disagreements": self.disagreements, **extra,
                "failures": self.failures}


def sweep_certificates() -> dict:
    tally = _Tally()
    for kind in KINDS:
        for p in DIMENSIONS:
            for scale in SCALES:
                for seed in SEEDS:
                    for certified in (False, True):
                        for free in (None, 0):
                            rng = np.random.default_rng(seed)
                            poly = _rank_deficient_polyhedron(rng, kind, p,
                                                              scale)
                            d = _functional(rng, poly, scale, certified)
                            draw = {"kind": kind, "p": p, "scale": scale,
                                    "seed": seed, "certified": certified,
                                    "free": free}
                            ok, cert = tally.run(
                                draw, lambda: _certificate(d, poly, free))
                            found = cert is not None
                            if ok and found != lp_certificate_exists(
                                    d, poly, free):
                                tally.disagree(draw, f"certificate {found}, "
                                                     f"LP {not found}")
    return tally.report()


def sweep_minimalize() -> dict:
    tally = _Tally()
    for kind in KINDS:
        for p in DIMENSIONS:
            for scale in SCALES:
                for seed in MINIMALIZE_SEEDS:
                    poly = _rank_deficient_polyhedron(
                        np.random.default_rng(seed), kind, p, scale)
                    draw = {"kind": kind, "p": p, "scale": scale, "seed": seed}
                    ok, red = tally.run(draw, lambda: minimalize(poly))
                    keep = _minimalize_by_lp(poly)
                    if ok and not (red.minimal and np.array_equal(
                            red.gamma, poly.gamma[keep]) and np.array_equal(
                            red.delta, poly.delta[keep])):
                        tally.disagree(draw, f"kept {red.n_facets} facets, "
                                             f"LP rule {keep}")
    return tally.report()


def sweep_classify() -> dict:
    tally = _Tally()
    for kind in QUADRIC_KINDS:
        for p in range(2, 6):
            for q in range(2, p + 1):
                for apex in (False, True):
                    admissible = kind == "parabolic" or (kind == "cone"
                                                         and apex)
                    for seed in CLASSIFY_SEEDS:
                        rng = np.random.default_rng(seed)
                        phi0 = _random_canonical_quadric(rng, kind, p, q)
                        if apex:
                            phi0 = QuadraticForm(phi0.A, phi0.b, 0.0)
                        image = _push_forward(phi0, *random_affine_map(rng, p))
                        for frame, phi in (("canonical", phi0),
                                           ("image", image)):
                            draw = {"kind": kind, "p": p, "q": q,
                                    "apex": apex, "seed": seed,
                                    "frame": frame}
                            ok, cls = tally.run(
                                draw, lambda: classify_quadric(phi))
                            if ok and (cls.kind, cls.q, cls.admissible) != (
                                    kind, q, admissible):
                                tally.disagree(draw, f"classified {cls.kind}, "
                                               f"q {cls.q}, admissible "
                                               f"{cls.admissible}")
    return tally.report()


def _every_polyhedron_choice(p: int):
    """Every choice of `_random_polyhedron` in R^p that the interior-point
    test can draw."""
    for q in range(1, p + 1):
        yield {"kind": "full", "q": q}
    for q in range(2, p + 3):
        for k in range(1, min(q - 1, p) + 1):
            yield {"kind": "deficient", "q": q, "k": k}
    for scale in SIMPLEX_SCALES:
        yield {"kind": "simplex", "scale": scale}


def sweep_interior() -> dict:
    tally = _Tally()
    skipped = 0
    for p in range(1, 5):
        for choice in _every_polyhedron_choice(p):
            for seed in INTERIOR_SEEDS:
                poly = _random_polyhedron(np.random.default_rng(seed), p,
                                          **choice)
                radius = None if poly is None else _max_slack(poly)
                if radius is None or abs(radius - 1.0) <= 1e-6:
                    skipped += 1        # the draws the test assumes away
                    continue
                draw = {"p": p, **choice, "seed": seed}
                ok, x = tally.run(draw, lambda: interior_point(poly))
                failure = _least_distance_failure(poly, x, radius) if ok \
                    else None
                if failure is not None:
                    tally.disagree(draw, failure)
    return tally.report(skipped=skipped)


def _dependent_columns(rng) -> tuple[np.ndarray, np.ndarray]:
    """An m x n matrix, m in [3, 8] and n in [3, 10], whose columns from
    the third on are each, with probability 1/2, a random combination of
    two earlier columns plus noise 10^U(-12, -5); and b = A |z| or z for a
    normal z, with probability 1/2 each."""
    m, n = int(rng.integers(3, 9)), int(rng.integers(3, 11))
    A = rng.standard_normal((m, n))
    for j in range(2, n):
        if rng.random() < 0.5:
            i, k = rng.choice(j, 2, replace=False)
            A[:, j] = rng.standard_normal() * A[:, i] \
                + rng.standard_normal() * A[:, k] \
                + 10.0 ** rng.uniform(-12, -5) * rng.standard_normal(m)
    if rng.random() < 0.5:
        return A, A @ np.abs(rng.standard_normal(n))
    return A, rng.standard_normal(m)


def sweep_nnls() -> dict:
    tally = _Tally()
    above = []
    rng = np.random.default_rng(1)
    for index in range(N_NNLS):
        A, b = _dependent_columns(rng)
        draw = {"index": index}
        ok, x = tally.run(draw, lambda: _nnls(A, b))
        if not ok:
            continue
        if not np.all(x >= 0.0):
            tally.disagree(draw, "negative entry")
        gap = np.linalg.norm(A @ x - b) - scipy.optimize.nnls(A, b)[1]
        if gap > ABOVE * np.linalg.norm(b):
            above.append(index)
    return tally.report(above_reference=len(above),
                        above_reference_indices=above)


def _dumps(out: dict) -> str:
    """out as JSON with one failure per line, so that a diff of two runs
    names each draw that moved."""
    sweeps = []
    for name, report in out.items():
        items = [f"  {json.dumps(key)}: {json.dumps(value)}"
                 for key, value in report.items() if key != "failures"]
        failures = "".join(f"\n   {json.dumps(f)}," for f in
                           report["failures"]).rstrip(",")
        items.append(f'  "failures": [{failures}\n  ]')
        sweeps.append(f" {json.dumps(name)}: {{\n" + ",\n".join(items)
                      + "\n }")
    return "{\n" + ",\n".join(sweeps) + "\n}"


def main() -> int:
    out = {}
    for name, sweep in (("certificates", sweep_certificates),
                        ("minimalize", sweep_minimalize),
                        ("classify", sweep_classify),
                        ("interior", sweep_interior),
                        ("nnls", sweep_nnls)):
        start = time.perf_counter()
        out[name] = sweep()
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(_dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
