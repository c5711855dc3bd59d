"""Convex-analysis oracles for polyhedra, backed by linear algebra and LPs.

Farkas-type certificates express an affine functional that is nonnegative on a
polyhedron as a nonnegative combination of the facet functionals plus a
constant.  All certificates returned here are re-verified by substitution at
coefficient level, so the LP backend only has to find feasible points, never
to be trusted blindly.

An LP runs only where linear algebra does not settle the question.  When the
facet rows gamma are linearly independent (full row rank, as for the orthant
R^m_+ x R^n and every simplicial cone), the certificate equations have at
most one solution, read off a pseudo-inverse memoized on the Polyhedron.
Otherwise one NNLS solves them over the sign constraints.  Either solution
is returned when it clearly passes the sign, box and residual tests the LP
result would face; when it does not, the certificate LP runs, so every
failure is the LP's verdict.  The interior point is the least-distance point
at unit normalized slack, one NNLS; the Chebyshev-center LP runs only when
that point does not exist or leaves the box.

Each polyhedral fact is computed once per call.  The interior point of a
Polyhedron is memoized on that object, keyed by the tolerances it reads, so
the admissibility checks, the canonical transform and the PSD decomposition
share one solve.  `minimalize` keeps every facet of a full-row-rank gamma
without an LP, and otherwise proves most facets irredundant by substituting
one point just outside each facet, found by the same least-distance NNLS;
only the rest take an LP.

The NNLS is the package's own (`_nnls`), on numpy and Python floats.  scipy
is imported only when an LP runs: `linprog` is loaded on first use.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AffineScalar, Polyhedron, _coefficient_residual,
                   _coefficient_scale, _minimal)
from .errors import ToleranceWarning
from .tolerances import TOL

_this = sys.modules[__name__]


def __getattr__(name: str):
    """`linprog`, imported from scipy on first use and then kept in the
    module globals.  A round that needs no LP loads no scipy; the LP call
    sites read it as `_this.linprog`, so a patched binding sees every LP."""
    if name == "linprog":
        from scipy.optimize import linprog
        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers (lam, c) with d = lam . u + c at coefficient level."""

    lam: np.ndarray
    c: float

    def reconstruct(self, poly: Polyhedron) -> AffineScalar:
        return AffineScalar(self.lam @ poly.gamma,
                            float(self.lam @ poly.delta + self.c))

    def residual(self, d: AffineScalar, poly: Polyhedron) -> float:
        rec = self.reconstruct(poly)
        return float(np.abs(rec.coefficients() - d.coefficients()).max())

    def to_dict(self) -> dict:
        return {"lambda": self.lam.tolist(), "c": self.c}


def _clamp(lam: np.ndarray, free: int | None) -> np.ndarray:
    out = lam.copy()
    mask = (out < 0) & (out >= -TOL.lam_clip)
    if free is not None:
        mask[free] = False
    out[mask] = 0.0
    return out


def _certificate_system(poly: Polyhedron) -> tuple[np.ndarray, np.ndarray | None]:
    """The matrix of the certificate equations gamma^T lam = d.gamma,
    delta . lam + c = d.delta in the unknowns (lam, c), and its pseudo-inverse
    when it has full column rank (gamma of full row rank), else None.  Both
    depend on the rows alone and are memoized on the polyhedron."""
    memo = getattr(poly, "_certificate_system", None)
    if memo is None:
        q, p = poly.gamma.shape
        A_eq = np.zeros((p + 1, q + 1))
        A_eq[:p, :q] = poly.gamma.T
        A_eq[p, :q] = poly.delta
        A_eq[p, q] = 1.0
        unique = np.linalg.matrix_rank(A_eq) == q + 1
        memo = (A_eq, np.linalg.pinv(A_eq) if unique else None)
        object.__setattr__(poly, "_certificate_system", memo)
    return memo


def _certificate_lp(d: AffineScalar, poly: Polyhedron,
                    free: int | None = None) -> FarkasCertificate | None:
    """Certificate d = lam.u + c with lam >= 0 (lam_free unconstrained), c >= 0.

    When gamma has full row rank the equations have at most one solution,
    taken from the memoized pseudo-inverse.  Otherwise one NNLS solves them
    over (lam, c) >= 0, the free multiplier split into two nonnegative
    columns.  Either solution is returned if, after `_clamp`, its bounded
    entries are >= 0, it lies well inside the LP box and it passes the
    residual test.  Otherwise the feasibility LP runs, so a missing
    certificate is always the LP's verdict."""
    q = poly.n_facets
    box = TOL.box
    A_eq, pinv = _certificate_system(poly)
    b_eq = np.concatenate([d.gamma, [d.delta]])
    tol = TOL.feasibility * _coefficient_scale(b_eq)
    z = pinv @ b_eq if pinv is not None else _nonnegative_solution(A_eq, b_eq,
                                                                   free)
    if z is not None:
        zc = _clamp(z, free)
        signs = np.delete(zc, free) if free is not None else zc
        if np.all(signs >= 0) and np.abs(z).max() < 0.999 * box:
            cert = FarkasCertificate(zc[:q], float(zc[q]))
            if cert.residual(d, poly) <= tol:
                return cert
    bounds = [(0.0, box)] * q + [(0.0, box)]
    if free is not None:
        bounds[free] = (-box, box)
    res = _this.linprog(np.zeros(q + 1), A_eq=A_eq, b_eq=b_eq,
                        bounds=bounds, method="highs")
    if res.status != 0:
        return None
    lam = _clamp(res.x[:q], free)
    c = max(res.x[q], 0.0)
    if np.any(np.abs(res.x) > 0.999 * box):
        warnings.warn("certificate multiplier at the LP box bound",
                      ToleranceWarning, stacklevel=3)
    cert = FarkasCertificate(lam, float(c))
    if cert.residual(d, poly) > tol:
        return None
    return cert


def _nnls(A: np.ndarray, b: np.ndarray,
          maxiter: int | None = None) -> np.ndarray | None:
    """argmin |A x - b| over x >= 0, or None when the active-set iteration
    needs more than maxiter (default 3n) passive-set solves or meets a
    passive set whose normal equations are not positive definite.

    Lawson & Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23) in the Gram-matrix form of Bro & De Jong (J. Chemometrics
    11, 1997): each step solves the normal equations of the passive columns,
    read off A^T A and A^T b.  The passive set never outgrows the rank of
    A, at most p + 1 here, so the steps run on Python floats, where a
    numpy call would cost more than its arithmetic.  The columns are scaled to unit norm
    first, so that the Gram matrix squares only the conditioning that the
    column directions bring.  A column enters only when its dual
    w_t = A_t^T (b - A x) exceeds the rounding level of w, so a zero column,
    or a copy of a passive one, never enters.  A matrix with no columns
    gives the empty x.
    """
    n = A.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    unit = np.divide(1.0, norms, out=np.ones(n), where=norms > 0.0)
    A = A * unit  # unit columns: A^T A is conditioned no worse than needed
    G, g = (A.T @ A).tolist(), (A.T @ b).tolist()
    eps = 10.0 * max(A.shape) * sys.float_info.epsilon
    g_max = max(map(abs, g), default=0.0)
    steps = 3 * n if maxiter is None else maxiter
    x, passive = [0.0] * n, []
    while True:
        w = {j: g[j] - sum(map(operator.mul, G[j], x))
             for j in range(n) if j not in passive}
        t = max(w, key=w.get, default=None)
        if t is None or w[t] <= eps * (g_max + sum(x)):
            return unit * x
        passive.append(t)
        while True:  # solve on the passive set, stepping back while s <= 0
            steps -= 1
            s = None if steps < 0 else _cholesky_solve(
                [[G[i][j] for j in passive] for i in passive],
                [g[i] for i in passive])
            if s is None:  # the iteration limit, or a singular system
                return None
            if min(s) > 0.0:
                for i, v in zip(passive, s):
                    x[i] = v
                break
            alpha, k = min((x[i] / (x[i] - v), i)
                           for i, v in zip(passive, s) if v <= 0.0)
            for i, v in zip(passive, s):
                x[i] += alpha * (v - x[i])
            x[k] = 0.0
            passive = [i for i in passive if x[i] > 0.0]
            x = [v if i in passive else 0.0 for i, v in enumerate(x)]


def _cholesky_solve(M: list, v: list) -> list | None:
    """The y with M y = v for M symmetric positive definite (nested lists),
    by Cholesky, M = L L^T, or None when a pivot is not positive."""
    L = []
    for i, row in enumerate(M):
        Li = []
        for j in range(i):
            Li.append((row[j] - sum(map(operator.mul, Li, L[j]))) / L[j][j])
        pivot = row[i] - sum(map(operator.mul, Li, Li))
        if pivot <= 0.0:
            return None
        Li.append(math.sqrt(pivot))
        L.append(Li)
    y = []
    for Li, vi in zip(L, v):  # L z = v
        y.append((vi - sum(map(operator.mul, Li, y))) / Li[-1])
    for i in reversed(range(len(y))):  # L^T y = z, by rows of L
        y[i] /= L[i][i]
        for j in range(i):
            y[j] -= L[i][j] * y[i]
    return y


def _nonnegative_solution(A: np.ndarray, b: np.ndarray,
                          free: int | None) -> np.ndarray | None:
    """The NNLS solution z >= 0 of A z = b, column `free` unconstrained (as
    the difference of two nonnegative columns), or None when `_nnls` gives
    up.  Its residual is the caller's to test."""
    cols = A if free is None else np.hstack([A, -A[:, free:free + 1]])
    z = _nnls(cols, b)
    if z is None:
        return None
    if free is not None:
        z[free] -= z[-1]
        z = z[:-1]
    return z


def _minimize_affine(d: AffineScalar, poly: Polyhedron,
                     facet: int | None = None) -> np.ndarray | None:
    """Witness search: minimize d over the polyhedron (restricted to facet if given),
    inside the |x|_inf <= box safety box since the set may be unbounded."""
    box = TOL.box
    A_ub, b_ub = -poly.gamma, poly.delta
    A_eq = b_eq = None
    if facet is not None:
        A_eq = poly.gamma[facet][None, :]
        b_eq = np.array([-poly.delta[facet]])
    res = _this.linprog(d.gamma, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        bounds=[(-box, box)] * poly.dim, method="highs")
    return res.x if res.status == 0 else None


def _facet_point(poly: Polyhedron, i: int) -> np.ndarray | None:
    """The least-distance point of facet segment i, {u_i = 0, u_j >= 0}:
    one `_least_distance` solve, u_i = 0 written as two inequalities.  None
    when the solve fails or substitution puts the point off the segment or
    outside the |x|_inf < box box."""
    rest = np.arange(poly.n_facets) != i
    G = np.vstack([poly.gamma[i], -poly.gamma[i], poly.gamma[rest]])
    h = np.concatenate([[-poly.delta[i], poly.delta[i]], -poly.delta[rest]])
    x = _least_distance(G, h)
    if x is None:
        return None
    u = poly.evaluate(x)
    tol = TOL.feasibility * max(float(np.abs(h).max()), 1.0)
    ok = abs(u[i]) <= tol and np.all(u >= -tol) and np.abs(x).max() < TOL.box
    return x if ok else None


def farkas_decompose(d: AffineScalar, poly: Polyhedron,
                     facet: int | None = None
                     ) -> tuple[FarkasCertificate | None, np.ndarray | None]:
    """(certificate, None) when d >= 0 on the polyhedron, or on the given
    facet segment (`_certificate_lp`, its multiplier free), else
    (None, witness): the minimum of d there, by LP (None when that LP fails
    too).  When d.gamma is a multiple of the facet row, d is constant on the
    segment, and the witness is the segment's least-distance point
    (`_facet_point`), found without an LP; the LP's minimum would be any
    point of the segment, a box corner included."""
    cert = _certificate_lp(d, poly, free=facet)
    if cert is not None:
        return cert, None
    witness = None
    if facet is not None and _coefficient_multiple(
            AffineScalar(d.gamma, 0.0),
            AffineScalar(poly.gamma[facet], 0.0)) is not None:
        witness = _facet_point(poly, facet)
    if witness is None:
        witness = _minimize_affine(d, poly, facet=facet)
    return None, witness


def interior_point(poly: Polyhedron) -> np.ndarray | None:
    """Least-distance point at unit slack: the minimum-Euclidean-norm point
    with every normalized slack (gamma_i x + delta_i) / |gamma_i| >= 1.

    It is one least-distance NNLS (`_least_distance`), solved in units of
    its largest requirement |norm_i - delta_i|, and accepted when it
    lies in the |x|_inf <= box box with every normalized slack at least
    1 - TOL.interior_slack.  Otherwise (no point at unit slack, or that
    point outside the box) one LP solves for the Chebyshev center, the point
    of the box maximizing the minimum normalized slack.  Returns None when
    the interior is empty (best slack below TOL.interior_slack).

    The point is solved once per Polyhedron object and memoized on it,
    keyed by the tolerances it reads (TOL.box, TOL.interior_slack): a call
    under other tolerances solves again.  Callers get a copy, never the
    memoized array.
    """
    key = (TOL.box, TOL.interior_slack)
    memo = getattr(poly, "_interior", None)
    if memo is None or memo[0] != key:
        memo = (key, _chebyshev_center(poly))
        object.__setattr__(poly, "_interior", memo)
    x = memo[1]
    return None if x is None else x.copy()


def _least_distance(G: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """The minimum-Euclidean-norm x with G x >= h, or None when there is
    none (or `_nnls` gives up).

    Lawson & Hanson's least-distance program (Solving Least Squares
    Problems, 1974, ch. 23): one NNLS on the (p+1) x q matrix
    E = [G^T; h^T / s] against f = e_{p+1}, in units of the largest
    requirement s = max|h| (1 when h = 0): an offset far above the others
    would otherwise cost the point its last digits.  With the residual
    r = E u - f the point is -s r[:p] / r[p], and r[p] = 0 means the system
    is infeasible.  The result is a floating-point solve; callers verify it
    by substitution.
    """
    p = G.shape[1]
    scale = float(np.abs(h).max(initial=0.0)) or 1.0
    E = np.vstack([G.T, h / scale])
    f = np.zeros(p + 1)
    f[p] = 1.0
    u = _nnls(E, f)
    if u is None:
        return None
    r = E @ u - f
    return scale * (-r[:p] / r[p]) if r[p] < 0 else None


def _chebyshev_center(poly: Polyhedron) -> np.ndarray | None:
    p = poly.dim
    box = TOL.box
    norms = np.linalg.norm(poly.gamma, axis=1)
    if np.any((norms == 0) & (poly.delta < 0)):
        return None
    keep = norms > 0
    g, delta, norms = poly.gamma[keep], poly.delta[keep], norms[keep]
    x = _least_distance(g, norms - delta)
    if x is not None and np.abs(x).max(initial=0.0) <= box and \
            np.min((g @ x + delta) / norms, initial=np.inf) >= \
            1.0 - TOL.interior_slack:
        return x
    cost = np.zeros(p + 1)
    cost[p] = -1.0
    A_ub = np.hstack([-g, norms[:, None]])
    bounds = [(-box, box)] * p + [(-box, box)]
    res = _this.linprog(cost, A_ub=A_ub, b_ub=delta, bounds=bounds,
                        method="highs")
    if res.status != 0 or res.x[p] <= TOL.interior_slack:
        return None
    return res.x[:p]


def _facet_witness(poly: Polyhedron, i: int, others: list[int],
                   x0: np.ndarray, margin: float) -> bool:
    """Whether substitution proves facet i irredundant against `others`.

    One `_least_distance` solve gives the point y nearest x0 with normalized
    slack <= -margin on facet i (and u_i(y) <= -4 TOL.feasibility, to clear
    the test below) and >= margin / 1000 on every other facet with a nonzero
    row: a facet parallel to facet i and close beyond it leaves only a
    sliver of room for y, which a full margin of its own would close.  A y
    with u_i(y) < -2 TOL.feasibility, every other u_j(y) > 0 and
    |y|_inf < box shows that deleting facet i enlarges the set cut out by
    any subset of `others`."""
    rows = [i] + [j for j in others if poly.gamma[j].any()]
    norms = np.linalg.norm(poly.gamma[rows], axis=1)
    sign = np.ones(len(rows))
    sign[0] = -1.0
    slack = poly.evaluate(x0)[rows] / norms
    floor = np.full(len(rows), margin / 1000.0)
    floor[0] = max(margin, 4.0 * TOL.feasibility / norms[0])
    z = _least_distance(sign[:, None] * poly.gamma[rows] / norms[:, None],
                        floor - sign * slack)
    if z is None:
        return False
    y = x0 + z
    u = poly.gamma[rows] @ y + poly.delta[rows]
    return bool(u[0] < -2.0 * TOL.feasibility and np.all(u[1:] > 0) and
                np.abs(y).max() < TOL.box)


def minimalize(poly: Polyhedron) -> Polyhedron:
    """Remove facets whose deletion leaves the set unchanged.

    Facets are taken in order, each against the facets still kept.  When
    gamma has full row rank and the interior is nonempty, every facet is
    irredundant: y = x0 - (u_i(x0) + eps) pinv(gamma) e_i crosses facet i
    and no other.  Otherwise a facet is kept without an LP when
    `_facet_witness` proves it irredundant, with the margin r / 1000 for r
    the minimum normalized slack at the interior point x0; only a facet
    with no witness (or every facet, when the interior is empty) takes one
    LP.  The kept rows are those of the LP rule alone, except that a zero
    row with delta >= 0 (its half-space is R^p) is dropped without an LP
    even when it is the only facet.  When no facet is removed the result
    inherits the memoized interior point.
    """
    x0 = interior_point(poly)
    full_rank = x0 is not None and \
        np.linalg.matrix_rank(poly.gamma) == poly.n_facets
    if x0 is not None:  # r / 1000, over the facets with a nonzero row
        rows = poly.gamma.any(axis=1)
        margin = np.min(poly.evaluate(x0)[rows] /
                        np.linalg.norm(poly.gamma[rows], axis=1),
                        initial=np.inf) / 1000.0
    keep = list(range(poly.n_facets))
    i = 0
    while i < len(keep):
        idx = keep[i]
        if not poly.gamma[idx].any() and poly.delta[idx] >= -TOL.feasibility:
            keep.pop(i)  # its half-space is all of R^p
            continue
        others = [j for j in keep if j != idx]
        if full_rank or not others or (x0 is not None and _facet_witness(
                poly, idx, others, x0, margin)):
            i += 1
            continue
        sub = Polyhedron(poly.gamma[others], poly.delta[others])
        val = _minimize_affine(poly.facet(idx), sub)
        if val is not None and poly.facet(idx)(val) >= -TOL.feasibility:
            keep.pop(i)  # facet cannot be violated while the others hold
            continue
        i += 1
    out = _minimal(Polyhedron(poly.gamma[keep], poly.delta[keep]))
    if len(keep) == poly.n_facets:  # the same rows have the same center
        object.__setattr__(out, "_interior", poly._interior)
    return out


def _coefficient_multiple(v: AffineScalar, u: AffineScalar) -> float | None:
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

