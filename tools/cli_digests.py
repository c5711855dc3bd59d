"""Byte-identity digests of a fixed list of `affinvar` CLI calls.

Prints one line per call: the sha256 of the call's (exit code, stdout,
stderr), the exit code, then the call.  Run it on two checkouts and diff
the outputs; a line that differs names a call whose output moved, and a
changed exit code in it shows a verdict that moved:

    PYTHONPATH=src python tools/cli_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/cli_digests.py > before.txt
    diff before.txt after.txt

The package is imported from the Python path, so the same list runs against
any checkout.  The calls run in process through `affinvar.cli.main`, in a
fixed order, so a warning printed once per process is printed at the same
call on both sides.  They are:

- every shipped fixture x validate / canonicalize / decompose / classify;
- validate / canonicalize / decompose on the generated models of
  `perfbench/bench_models.py` (read, not changed) for the seeds in SEEDS;
- simulate on SIM_FIXTURES x both schemes, with and without --csv;
- simulate on cir with LARGE_SIM_ARGS, whose step draws more normals than
  the noise helper of `affinvar.simulate` takes (half its ring), so that
  the kernel draws them in process, while the calls above use the helper;
- every command on each model of `_edge_models`;
- validate / decompose on the first IMAGES affine images of each of
  IMAGE_FIXTURES drawn at IMAGE_SEED (`_affine_images`), where
  `psd_decompose` runs its search in many frames and the quadric frame is
  decided off the canonical coordinates;
- simulate on the first SIM_IMAGES of those images of parabola3, whose
  normalization S is not the identity;

each of the first two groups with and without --tol 1e-6.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import affinvar.cli
from affinvar.core import AffineMap
from affinvar.modelio import fixture_path, load_fixture, model_to_dict

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("cir", "triangle_channel", "hyperbola_wedge", "parabola3", "cone3")
SIM_FIXTURES = ("cir", "triangle_channel", "parabola3", "cone3")
SCHEMES = ("full-truncation", "plain")
CERTIFY = ("validate", "canonicalize", "decompose", "classify")
SEEDS = (1, 2, 3, 5, 7919)
TOL = ("--tol", "1e-6")
SIM_ARGS = ("--t", "0.25", "--steps", "25", "--paths", "40", "--seed", "11")
LARGE_SIM_ARGS = ("--steps", "2", "--paths", "200000", "--seed", "11")
IMAGE_FIXTURES = ("hyperbola_wedge", "triangle_channel", "parabola3", "cone3")
IMAGE_SEED, IMAGES, SIM_IMAGES = 11, 20, 3


def _fixture(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def _polyhedral(a, b, A0, A, gamma, delta) -> dict:
    return {"dimension": len(b), "drift": {"a": a, "b": b},
            "diffusion": {"A0": A0, "A": A},
            "state_space": {"kind": "polyhedral", "gamma": gamma,
                            "delta": delta}}


def _edge_models() -> dict[str, dict]:
    """Models that reach the branches the fixtures do not."""
    zero2 = np.zeros((2, 2)).tolist()
    parabola = _fixture("parabola3")
    parabola["drift"]["a"][1][0] = 0.7  # fails the drift structure
    parabola["drift"]["b"][0] = 5.0     # clears the open-interior bound
    outside = _fixture("parabola3")
    outside["state_space"]["component"] = "negative"
    outside_broken = _fixture("parabola3")  # theta_12 = 0.7: no structure
    outside_broken["state_space"]["component"] = "negative"
    outside_broken["diffusion"]["A0"][0][1] += 0.7
    outside_broken["diffusion"]["A0"][1][0] += 0.7
    cone = _fixture("cone3")
    cone["diffusion"]["A"] = (2.0 * np.array(cone["diffusion"]["A"])).tolist()
    hyperboloid = _fixture("cone3")
    hyperboloid["state_space"]["c"] = 1.0  # a cone with d != 0
    broken = _fixture("parabola3")
    broken["diffusion"]["A0"][0][0] = 1.0  # no multiple of zeta: residual 1
    c_zero = _fixture("parabola3")    # theta = e_3 e_3^T on {x_1 >= x_2^2}
    c_zero["diffusion"] = {"A0": np.diag([0.0, 0.0, 1.0]).tolist(),
                           "A": np.zeros((3, 3, 3)).tolist()}
    c_zero["state_space"]["A"] = np.diag([0.0, -1.0, 0.0]).tolist()
    c_two = _fixture("parabola3")     # b_1 / c = 2.5: open bound fails
    for key in ("A0", "A"):
        c_two["diffusion"][key] = (2.0 * np.array(c_two["diffusion"][key])).tolist()
    c_two["drift"]["b"][0] = 5.0
    closed_string = _fixture("parabola3")
    closed_string["state_space"]["closed"] = "false"  # no JSON boolean
    dimension_float = _fixture("cir")
    dimension_float["dimension"] = 1.7  # no JSON integer
    overflow = _fixture("cir")
    overflow["drift"]["a"] = [[1e20]]  # every path overflows within SIM_ARGS
    varying = _fixture("triangle_channel")
    varying["drift"]["a"][0][1] = -1.0  # gamma_0 mu = 1 - x_2 on facet 0
    scaled = _fixture("triangle_channel")
    scaled["state_space"]["gamma"][0] = [1e7, 0.0, 0.0, 0.0]  # u_0 = 1e7 x_1
    ellipsoid = _polyhedral(zero2, [0.0, 0.0], zero2, [zero2, zero2], [], [])
    ellipsoid["state_space"] = {  # |x|^2 >= 1, the positive side
        "kind": "quadratic", "A": np.eye(2).tolist(), "b": [0.0, 0.0],
        "c": -1.0, "component": "positive", "closed": True}
    return {
        # gamma_1 theta = x_1 (0, 1): a square-root facet with c_1 = 0
        "sqrt-facet-zero-multiple": _polyhedral(
            zero2, [1.0, 0.0], np.diag([0.0, 1.0]).tolist(),
            [[[0.0, 1.0], [1.0, 0.0]], zero2], [[1.0, 0.0]], [0.0]),
        "parabola-open-only": parabola,
        # theta = diag(x_1, 1 + x_2) leaves the PSD cone on {x_1 >= 0}
        "theta-leaves-psd-cone": _polyhedral(
            zero2, [1.0, 0.0], np.diag([0.0, 1.0]).tolist(),
            [np.diag([1.0, 0.0]).tolist(), np.diag([0.0, 1.0]).tolist()],
            [[1.0, 0.0]], [0.0]),
        "empty-polyhedron": _polyhedral(
            [[0.0]], [0.0], [[0.0]], [[[0.0]]], [[1.0], [-1.0]], [-1.0, 0.0]),
        "ellipsoid": ellipsoid,
        "parabola-outside": outside,
        # refused on the side of the quadric, before its structure fit
        "parabola-outside-broken": outside_broken,
        "cone-unnormalized": cone,
        "parabola-broken-structure": broken,
        "parabola-c-zero": c_zero,
        "parabola-c-two": c_two,
        "cone-hyperboloid": hyperboloid,
        "closed-string": closed_string,
        "dimension-float": dimension_float,
        # [0, 1] without diffusion: y = x is clamped, the cut 1 - y >= 0 is
        # not, and the drift leaves through it under both schemes
        "interval-outward-drift": _polyhedral(
            [[0.0]], [4.0], [[0.0]], [[[0.0]]], [[1.0], [-1.0]], [0.0, 1.0]),
        "cir-overflow": overflow,
        # the facet-0 and facet-2 drifts fall along their facets, so each
        # witness is the least-distance point where the drift is negative
        "triangle-outward-drift": varying,
        # the same set as triangle_channel, one facet row scaled by 1e7
        "triangle-scaled-facet": scaled,
    }


def _affine_images(name: str) -> list[dict]:
    """The first IMAGES models of X = A Y + s, Y the fixture, for maps drawn
    one after another from one generator seeded IMAGE_SEED: A has singular
    values in [1/2, 2] and s lies in [-1, 1]^p, the map of
    `tests/conftest.random_affine_map`; the state space, a polyhedron or a
    quadric, is pushed forward by its `transformed`."""
    rng = np.random.default_rng(IMAGE_SEED)
    model = load_fixture(name)
    p = model.dimension
    out = []
    for _ in range(IMAGES):
        q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        f = AffineMap(q1 @ np.diag(rng.uniform(0.5, 2.0, size=p)) @ q2,
                      rng.uniform(-1.0, 1.0, size=p))
        out.append(model_to_dict(model.pushed(
            f, model.state_space.transformed(f))))
    return out


def _bench_models():
    spec = importlib.util.spec_from_file_location(
        "bench_models", ROOT / "perfbench" / "bench_models.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calls(workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every call, with the model files written to workdir."""
    def write(name: str, obj: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    out = []
    generated = _bench_models().generated_models
    for tol in ((), TOL):
        suffix = " ".join(("",) + tol)
        for fx in FIXTURES:
            for cmd in CERTIFY:
                out.append((f"{cmd} {fx}{suffix}",
                            [cmd, str(fixture_path(fx)), *tol]))
        for seed in SEEDS:
            for name, model, _ in generated(seed):
                path = write(f"seed{seed}_{name}", model)
                for cmd in CERTIFY[:3]:
                    out.append((f"{cmd} seed{seed}/{name}{suffix}",
                                [cmd, path, *tol]))
    for fx in SIM_FIXTURES:
        for scheme in SCHEMES:
            argv = ["simulate", str(fixture_path(fx)), "--scheme", scheme,
                    *SIM_ARGS]
            out.append((f"simulate {fx} {scheme}", argv))
            out.append((f"simulate {fx} {scheme} csv",
                        argv + ["--csv", str(workdir / "paths.csv")]))
    out.append(("simulate cir large",
                ["simulate", str(fixture_path("cir")), *LARGE_SIM_ARGS]))
    for name, model in _edge_models().items():
        path = write(name, model)
        for cmd in CERTIFY:
            out.append((f"{cmd} {name}", [cmd, path]))
        out.append((f"simulate {name}", ["simulate", path, *SIM_ARGS]))
    for fx in IMAGE_FIXTURES:
        for i, image in enumerate(_affine_images(fx)):
            path = write(f"{fx}-image{i}", image)
            for cmd in ("validate", "decompose"):
                out.append((f"{cmd} {fx} image {i}", [cmd, path]))
            if fx == "parabola3" and i < SIM_IMAGES:
                out.append((f"simulate {fx} image {i}",
                            ["simulate", path, *SIM_ARGS]))
    return out


def digest(argv: list[str]) -> tuple[str, int]:
    """The sha256 of the (exit code, stdout, stderr) of one in-process call,
    and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = affinvar.cli.main(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest(), code


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in calls(Path(tmp)):
            sha, code = digest(argv)
            print(f"{sha}  {code}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
