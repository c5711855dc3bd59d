"""Shared test utilities: the independent grid-minimum oracle for Farkas
checks and random-model generators used by property and acceptance tests."""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from affinvar.core import (AffineMap, AffineMatrixField, AffineScalar,
                           AffineVectorField, ModelSpec, Polyhedron)
from affinvar.tolerances import Tolerances, current, tolerances


def grid_min(d: AffineScalar, poly: Polyhedron, lo: float = -10.0,
             hi: float = 10.0, pitch: float = 0.05) -> float | None:
    """Exact minimum of d over the grid points of pitch ``pitch`` inside
    poly intersected with [lo, hi]^p.

    For p >= 2 the minimum over each feasible x1-segment of the affine d is
    attained at a segment endpoint, so only endpoints are evaluated; the
    result is identical to brute-force enumeration of the full grid.
    """
    p = poly.dim
    axis = lo + pitch * np.arange(int(round((hi - lo) / pitch)) + 1)
    if p == 1:
        pts = axis[:, None]
        feas = np.asarray(poly.contains(pts, tol=0.0))
        if not feas.any():
            return None
        return float(np.min(d(pts[feas])))
    grids = np.meshgrid(*([axis] * (p - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    g1 = poly.gamma[:, 0]
    rhs = -(tail @ poly.gamma[:, 1:].T + poly.delta)  # need g1 * x1 >= rhs
    lo1 = np.full(tail.shape[0], lo)
    hi1 = np.full(tail.shape[0], hi)
    feas = np.ones(tail.shape[0], dtype=bool)
    for i in range(poly.n_facets):
        if g1[i] > 0:
            lo1 = np.maximum(lo1, rhs[:, i] / g1[i])
        elif g1[i] < 0:
            hi1 = np.minimum(hi1, rhs[:, i] / g1[i])
        else:
            feas &= rhs[:, i] <= 0
    k_lo = np.ceil((lo1 - lo) / pitch - 1e-9).astype(int)
    k_hi = np.floor((hi1 - lo) / pitch + 1e-9).astype(int)
    k_lo = np.maximum(k_lo, 0)
    k_hi = np.minimum(k_hi, len(axis) - 1)
    feas &= k_lo <= k_hi
    if not feas.any():
        return None
    x1_lo = lo + pitch * k_lo[feas]
    x1_hi = lo + pitch * k_hi[feas]
    base = tail[feas] @ d.gamma[1:] + d.delta
    vals = np.minimum(base + d.gamma[0] * x1_lo, base + d.gamma[0] * x1_hi)
    return float(vals.min())


def grid_min_bruteforce(d: AffineScalar, poly: Polyhedron, lo=-10.0, hi=10.0,
                        pitch=0.5) -> float | None:
    axis = lo + pitch * np.arange(int(round((hi - lo) / pitch)) + 1)
    grids = np.meshgrid(*([axis] * poly.dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feas = np.asarray(poly.contains(pts, tol=0.0))
    if not feas.any():
        return None
    return float(np.min(d(pts[feas])))


def random_grid_simplex(rng: np.random.Generator, p: int,
                        pitch: float = 0.05) -> Polyhedron:
    """A nondegenerate p-simplex with vertices on the 0.05 grid inside
    [-8, 8]^p, described by its p+1 facet inequalities.

    Grid-aligned vertices make the grid minimum of any affine functional equal
    to its true minimum over the simplex.
    """
    while True:
        verts = pitch * rng.integers(-160, 161, size=(p + 1, p)).astype(float)
        edges = verts[1:] - verts[0]
        if abs(np.linalg.det(edges)) > (2.0 ** p):  # volume bounded away from 0
            break
    rows, offs = [], []
    for i in range(p + 1):
        others = np.delete(verts, i, axis=0)
        base = others[0]
        span = others[1:] - base
        if span.size:
            _, _, Vt = np.linalg.svd(span)
            normal = Vt[-1]
        else:
            normal = np.ones(p)
        if normal @ (verts[i] - base) < 0:
            normal = -normal
        rows.append(normal)
        offs.append(-normal @ base)
    return Polyhedron(np.array(rows), np.array(offs))


def random_canonical_model(rng: np.random.Generator, p: int, m: int,
                           n: int) -> ModelSpec:
    """Admissible canonical model: state space R^{m+n}_{>=0} x R^{p-m-n},
    diffusion [[diag(x_M, 0_N), 0], [0, Psi(x_{M u N})]] with PSD coefficient
    matrices in Psi, and an admissible drift."""
    q = m + n
    r = p - q
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    for i in range(m):
        A[i][i, i] = 1.0
    for k in range(q + 1):
        G = rng.standard_normal((r, r)) if r else np.zeros((0, 0))
        lam = G @ G.T + (0.1 if k == 0 else 0.0) * np.eye(r)
        if k == 0:
            A0[q:, q:] = lam
        else:
            A[k - 1][q:, q:] = lam
    diffusion = AffineMatrixField(A0, A)
    a = rng.standard_normal((p, p))
    a[:q, :q] = np.abs(a[:q, :q])  # nonnegative off-diagonals on facet coords
    a[:q, q:] = 0.0
    np.fill_diagonal(a[:q, :q], -1.0)
    b = np.concatenate([np.abs(rng.standard_normal(q)) + 0.1,
                        rng.standard_normal(r)])
    gamma = np.zeros((q, p))
    gamma[:, :q] = np.eye(q)
    space = Polyhedron(gamma, np.zeros(q))
    return ModelSpec(p, AffineVectorField(a, b), diffusion, space)


def random_affine_map(rng: np.random.Generator, p: int,
                      max_scale: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """A random well-conditioned affine map x -> A x + s of R^p: A has
    singular values in [1/max_scale, max_scale], s is in [-1, 1]^p."""
    q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
    q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sing = rng.uniform(1.0 / max_scale, max_scale, size=p)
    return q1 @ np.diag(sing) @ q2, rng.uniform(-1.0, 1.0, size=p)


def random_affine_image(rng: np.random.Generator, model: ModelSpec,
                        max_scale: float = 2.0) -> ModelSpec:
    """The model of X = A Y + s for a random well-conditioned map, where Y
    follows the given model; its polyhedron or quadric is pushed forward by
    the state space's ``transformed``."""
    f = AffineMap(*random_affine_map(rng, model.dimension, max_scale))
    return model.pushed(f, model.state_space.transformed(f))


@pytest.fixture(autouse=True)
def tolerance_leak_guard():
    """Fails the test that leaves other tolerances than the defaults in
    effect, and puts the defaults back, so that no later test sees them."""
    with tolerances(feasibility=Tolerances().feasibility):
        yield
        left = current()
    assert left == Tolerances(), f"the test left tolerances in effect: {left}"


@pytest.fixture
def lp_calls(monkeypatch):
    """Records one entry per LP the package solves."""
    import affinvar.convex

    real = affinvar.convex.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(affinvar.convex, "linprog", counting)
    return calls


@pytest.fixture
def frame_calls(monkeypatch):
    """Counts the parabolic decomposition fits, the matrix-field congruences
    and the matrix inversions the package makes, as
    {"fits": n, "congruences": n, "inversions": n}."""
    import sys

    import affinvar.core
    import affinvar.quadratic

    counts = {"fits": 0, "congruences": 0, "inversions": 0}
    fit = affinvar.quadratic.parabolic_theta_decompose
    congruence = affinvar.core.AffineMatrixField.congruence
    inv = np.linalg.inv

    def counting_fit(*args, **kwargs):
        counts["fits"] += 1
        return fit(*args, **kwargs)

    def counting_congruence(self, *args, **kwargs):
        counts["congruences"] += 1
        return congruence(self, *args, **kwargs)

    def counting_inv(*args, **kwargs):
        counts["inversions"] += 1
        return inv(*args, **kwargs)

    # every package module that bound the fit by name calls it through that name
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "affinvar" and \
                vars(module).get("parabolic_theta_decompose") is fit:
            monkeypatch.setattr(module, "parabolic_theta_decompose", counting_fit)
    monkeypatch.setattr(affinvar.core.AffineMatrixField, "congruence",
                        counting_congruence)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)


def load_module(path: Path):
    """The module in the Python file at path, which need not be in a
    package (``tools/`` and ``perfbench/`` are not)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cli_digest_runs(tmp_path_factory):
    """(label, argv, exit code, stdout, stderr) of each call that
    ``tools/cli_digests.py`` digests, run once per session in process."""
    import affinvar.cli

    tool = load_module(Path(__file__).resolve().parents[1] / "tools" /
                       "cli_digests.py")
    runs = []
    for label, argv in tool.calls(tmp_path_factory.mktemp("digests")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = affinvar.cli.main(argv)
        runs.append((label, argv, code, out.getvalue(), err.getvalue()))
    return runs
