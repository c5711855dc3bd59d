"""Shared test utilities: the independent grid-minimum oracle for Farkas
checks, random-model generators used by property and acceptance tests, and
the oracles for the canonical block form, the paper's basis and
cancellation lemmas and the open-invariance certificate."""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import scipy.optimize

from affinvar.core import (AffineMap, AffineMatrixField, AffineScalar,
                           AffineVectorField, ModelSpec, Polyhedron,
                           QuadraticForm, _coefficient_residual,
                           _coefficient_scale)
from affinvar.polyhedral import CanonicalTransform
from affinvar.quadratic import _canonical_form
from affinvar.tolerances import TOL, Tolerances, current, tolerances


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


def lp_minimum(d: AffineScalar, poly: Polyhedron, facet: int | None = None,
               box: float = 1e6) -> np.ndarray | None:
    """A point of the polyhedron (of its facet segment, if given) in the box
    |x|_inf <= box where d is least, by one scipy LP; None when that set is
    empty.  An oracle, independent of the package's solvers."""
    A_eq = b_eq = None
    if facet is not None:
        A_eq, b_eq = poly.gamma[facet][None, :], [-poly.delta[facet]]
    res = scipy.optimize.linprog(d.gamma, A_ub=-poly.gamma, b_ub=poly.delta,
                                 A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(-box, box)] * poly.dim,
                                 method="highs")
    return res.x if res.status == 0 else None


def lp_certificate_exists(d: AffineScalar, poly: Polyhedron,
                          free: int | None = None) -> bool:
    """Whether d = lam . u + c has a solution with lam >= 0 (lam_free
    unconstrained) and c >= 0, by one scipy feasibility LP with no bound on
    the multipliers."""
    q, p = poly.gamma.shape
    A_eq = np.zeros((p + 1, q + 1))
    A_eq[:p, :q] = poly.gamma.T
    A_eq[p, :q] = poly.delta
    A_eq[p, q] = 1.0
    bounds = [(0.0, None)] * (q + 1)
    if free is not None:
        bounds[free] = (None, None)
    res = scipy.optimize.linprog(np.zeros(q + 1), A_eq=A_eq,
                                 b_eq=np.r_[d.gamma, d.delta], bounds=bounds,
                                 method="highs")
    return res.status == 0


def assert_witness(x: np.ndarray, d: AffineScalar, poly: Polyhedron,
                   facet: int | None):
    """x lies in the polyhedron, on the facet if one is given, to a
    normalized tolerance, and d(x) < 0."""
    slack = poly.evaluate(x) / np.linalg.norm(poly.gamma, axis=1)
    tol = 1e-8 * max(1.0, float(np.abs(x).max()))
    assert slack.min() >= -tol
    assert facet is None or abs(slack[facet]) <= tol
    assert d(x) < 0


def coefficient_multiple(v: AffineScalar, u: AffineScalar) -> float | None:
    """The lambda with v = lambda * u at coefficient level, or None."""
    uc, vc = u.coefficients(), v.coefficients()
    denom = float(uc @ uc)
    if denom == 0.0:
        return None
    lam = float(uc @ vc) / denom
    if _coefficient_residual((vc,), (lam * uc,)) > \
            TOL.feasibility * _coefficient_scale(vc):
        return None
    return lam


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


def translated(model: ModelSpec, shift: float) -> ModelSpec:
    """The model of X = Y + shift (1, ..., 1), where Y follows the given
    model: the same state space, moved."""
    f = AffineMap(np.eye(model.dimension), np.full(model.dimension, shift))
    return model.pushed(f, model.state_space.transformed(f))


def block_matrix(ct: CanonicalTransform, y) -> np.ndarray:
    """The block form [[diag(y_M, 0_N), 0], [0, Psi(y_{M u N})]] that the
    canonical transform ct claims for theta at y."""
    y = np.asarray(y, dtype=float)
    p, m, n = ct.dim, ct.m, ct.n
    out = np.zeros((p, p))
    out[np.arange(m), np.arange(m)] = y[:m]
    if p > m + n:
        out[m + n:, m + n:] = ct.psi(y[:m + n])
    return out


# ---------------------------------------------------------------------------
# kernel-dimension oracles: the paper's basis and cancellation lemmas, and
# the open-invariance certificate, checked numerically at coefficient level
# ---------------------------------------------------------------------------

def _nullity(M: np.ndarray) -> int:
    return M.shape[1] - int(np.linalg.matrix_rank(M, tol=TOL.feasibility))


def _symmetric_field_basis(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit symmetric affine fields of size p in p variables, one per
    coefficient slot (k, i <= j) with k = 0 the constant term: stacks F0 of
    shape (n, p, p) and F of shape (n, p, p, p)."""
    i, j = np.triu_indices(p)
    k, s = np.arange(p + 1)[:, None], np.arange(i.size)
    G = np.zeros((p + 1, i.size, p + 1, p, p))
    G[k, s, k, i, j] = G[k, s, k, j, i] = 1.0
    G = G.reshape(-1, p + 1, p, p)
    return G[:, 0], G[:, 1:]


def _quad_vector(form: QuadraticForm) -> np.ndarray:
    """Monomial coefficient vector [1, x_k, x_k^2, x_k x_l (k<l)] of a form."""
    iu, ju = np.triu_indices(form.dim, k=1)
    return np.concatenate([[form.c], form.b, np.diagonal(form.A),
                           2.0 * form.A[iu, ju]])


def _row_field_coefficients(c: np.ndarray, L: np.ndarray, F0: np.ndarray,
                            F: np.ndarray) -> np.ndarray:
    """Monomial coefficients of r(x)^T M(x) for the affine row r(x) = c + L x
    and the affine matrix field M(x) = F0 + sum_k x_k F_k.

    c is (m,), L is (m, p), F0 is (..., m, n) and F is (..., p, m, n); the
    result is (..., n, 1 + p + p(p+1)/2), one vector per column of M in
    ``_quad_vector``'s order, batched over the leading axes of the field.
    """
    p = L.shape[1]
    const = np.einsum("i,...ij->...j", c, F0)
    lin = np.einsum("ik,...ij->...jk", L, F0) + np.einsum("i,...kij->...jk", c, F)
    quad = np.einsum("ik,...lij->...jkl", L, F)  # x_k x_l, not yet symmetric
    iu, ju = np.triu_indices(p, k=1)
    diag = np.arange(p)
    return np.concatenate([const[..., None], lin, quad[..., diag, diag],
                           quad[..., iu, ju] + quad[..., ju, iu]], axis=-1)


def _field_coefficient_matrix(c: np.ndarray, L: np.ndarray, F0: np.ndarray,
                              F: np.ndarray,
                              modulo: QuadraticForm | None = None) -> np.ndarray:
    """One column per field of the stack: the coefficients of r(x)^T M(x),
    column after column of M, each projected orthogonally to ``modulo``."""
    coeffs = _row_field_coefficients(c, L, F0, F)
    if modulo is not None:
        g = _quad_vector(modulo)
        g = g / np.linalg.norm(g)
        coeffs = coeffs - (coeffs @ g)[..., None] * g
    return coeffs.reshape(coeffs.shape[0], -1).T


def phi_v_fit(model: ModelSpec) -> tuple[np.ndarray, float]:
    """The v of grad(Phi) theta = Phi v^T on a quadric model, fitted on
    monomial coefficients, all columns at once, and the fit's largest
    residual relative to the coefficient scales of theta and Phi: the
    independent oracle of the open-invariance certificate."""
    phi, theta = model.state_space.form, model.diffusion
    phi_vec = _quad_vector(phi)
    comp = _row_field_coefficients(phi.b, 2.0 * phi.A, theta.A0, theta.A)
    v = comp @ phi_vec / float(phi_vec @ phi_vec)
    resid = float(np.abs(comp - v[:, None] * phi_vec).max(initial=0.0))
    return v, resid / (_coefficient_scale(theta.A0, theta.A) *
                       _coefficient_scale(phi.A, phi.b))


def parabolic_kernel_dimension(p: int, q: int) -> int:
    """Numeric dimension of {a affine : (1, -2y^T) a(x) = 0 on the parabola},
    computed as the nullity of the coefficient operator modulo the parabola
    polynomial."""
    # the unit affine maps x -> F0 + F x into R^q, as q x 1 fields
    E = np.eye(q * (p + 1)).reshape(-1, p + 1, q, 1)
    L = np.zeros((q, p))
    L[np.arange(1, q), np.arange(1, q)] = -2.0
    return _nullity(_field_coefficient_matrix(
        np.eye(q)[0], L, E[:, 0], E[:, 1:], _canonical_form("parabolic", p, q)))


def conical_space_dimension(q: int) -> int:
    """Numeric dimension of the space of symmetric affine matrix fields whose
    columns are annihilated by (x_1, -y^T) on the cone."""
    L = -np.eye(q)
    L[0, 0] = 1.0
    return _nullity(_field_coefficient_matrix(
        np.zeros(q), L, *_symmetric_field_basis(q), _canonical_form("cone", q, q)))


def _cancellation_matrix(p: int) -> np.ndarray:
    """Coefficients of x^T theta(x), one column per unit symmetric field."""
    return _field_coefficient_matrix(np.zeros(p), np.eye(p),
                                     *_symmetric_field_basis(p))


def theta_cancellation_nullspace_dimension(p: int) -> int:
    """Numeric nullspace dimension of {coefficients of x^T theta(x)} = 0 over
    symmetric affine theta; the cancellation lemma says it is zero."""
    return _nullity(_cancellation_matrix(p))


def excluded_quadric_forces_zero(p: int, d: float) -> bool:
    """For Phi = sum x_i^2 + d with d != 0: the only symmetric affine theta
    with x^T theta(x) = Phi(x) c^T for some constant vector c is theta = 0.
    Returns True when the numeric nullspace of the combined linear system is
    trivial."""
    phi_vec = _quad_vector(_canonical_form("ellipsoid", p, p, d))
    M = np.hstack([_cancellation_matrix(p), np.kron(np.eye(p), -phi_vec[:, None])])
    return _nullity(M) == 0


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
