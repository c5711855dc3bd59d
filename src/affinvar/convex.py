"""Convex-analysis oracles for polyhedra, backed by linear algebra and LPs.

Farkas-type certificates express an affine functional that is nonnegative on a
polyhedron as a nonnegative combination of the facet functionals plus a
constant.  All certificates returned here are re-verified by substitution at
coefficient level, so the LP backend only has to find feasible points, never
to be trusted blindly.

An LP runs only where linear algebra does not settle the question.  When the
facet rows gamma are linearly independent (full row rank, as for the orthant
R^m_+ x R^n and every simplicial cone), the certificate equations have at
most one solution.  It is read off a pseudo-inverse memoized on the
Polyhedron and returned when it clearly passes the sign, box and residual
tests the LP result would face.  Otherwise (rank-deficient gamma, or a
solution that fails a test) the certificate LP runs, so every failure is the
LP's verdict.  The interior point is the least-distance point at unit
normalized slack, one NNLS; the Chebyshev-center LP runs only when that
point does not exist or leaves the box.

Each polyhedral fact is computed once per call.  The interior point of a
Polyhedron is memoized on that object, keyed by the tolerances it reads, so
the admissibility checks, the canonical transform and the PSD decomposition
share one solve.  `minimalize` keeps every facet of a full-row-rank gamma
without an LP, and otherwise proves most facets irredundant by substituting
one point just outside each facet; only the rest take an LP.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls

from .core import (AffineScalar, Polyhedron, _coefficient_residual,
                   _coefficient_scale, _minimal)
from .errors import (NotNonnegativeError, NotNonnegativeOnFacetError,
                     ToleranceWarning)
from .tolerances import TOL


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
    taken from the memoized pseudo-inverse; it is returned if, after
    `_clamp`, its bounded entries are >= 0, it lies well inside the LP box
    and it passes the residual test.  Otherwise the feasibility LP runs."""
    q = poly.n_facets
    box = TOL.box
    A_eq, pinv = _certificate_system(poly)
    b_eq = np.concatenate([d.gamma, [d.delta]])
    tol = TOL.feasibility * _coefficient_scale(b_eq)
    if pinv is not None:
        z = pinv @ b_eq
        zc = _clamp(z, free)
        signs = np.delete(zc, free) if free is not None else zc
        if np.all(signs >= 0) and np.abs(z).max() < 0.999 * box:
            cert = FarkasCertificate(zc[:q], float(zc[q]))
            if cert.residual(d, poly) <= tol:
                return cert
    bounds = [(0.0, box)] * q + [(0.0, box)]
    if free is not None:
        bounds[free] = (-box, box)
    res = linprog(np.zeros(q + 1), A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        return None
    lam = _clamp(res.x[:q], free)
    c = max(res.x[q], 0.0)
    if np.any(np.abs(res.x) > 0.999 * box):
        warnings.warn("certificate multiplier at the LP box bound",
                      ToleranceWarning, stacklevel=4)
    cert = FarkasCertificate(lam, float(c))
    if cert.residual(d, poly) > tol:
        return None
    return cert


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
    res = linprog(d.gamma, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(-box, box)] * poly.dim, method="highs")
    return res.x if res.status == 0 else None


def _decompose(d: AffineScalar, poly: Polyhedron,
               facet: int | None) -> FarkasCertificate:
    """The certificate LP, and when it fails the witness LP over the
    polyhedron, or over the given facet segment, raised with the error."""
    cert = _certificate_lp(d, poly, free=facet)
    if cert is not None:
        return cert
    witness = _minimize_affine(d, poly, facet=facet)
    value = d(witness) if witness is not None else None
    if facet is None:
        raise NotNonnegativeError("no Farkas certificate: functional is negative "
                                  "somewhere on the polyhedron",
                                  witness=witness, value=value)
    raise NotNonnegativeOnFacetError(
        f"functional is negative on facet segment {facet}", facet=facet,
        witness=witness, value=value)


def farkas_decompose(d: AffineScalar, poly: Polyhedron) -> FarkasCertificate:
    """Certificate that d >= 0 on the polyhedron, or a witness of the contrary.

    Raises NotNonnegativeError carrying a point where d is negative when no
    certificate exists.
    """
    return _decompose(d, poly, None)


def facet_relative_decompose(d: AffineScalar, poly: Polyhedron,
                             i: int) -> FarkasCertificate:
    """Certificate that d >= 0 on the facet segment {u_i = 0} of the polyhedron.

    The i-th multiplier is unconstrained; all others and the constant must be
    nonnegative.  Raises NotNonnegativeOnFacetError otherwise.
    """
    return _decompose(d, poly, i)


def interior_point(poly: Polyhedron) -> np.ndarray | None:
    """Least-distance point at unit slack: the minimum-Euclidean-norm point
    with every normalized slack (gamma_i x + delta_i) / |gamma_i| >= 1.

    Lawson & Hanson's least-distance program (Solving Least Squares
    Problems, 1974, ch. 23) gives it from one NNLS on the (p+1) x q matrix
    E = [gamma^T; (|gamma| - delta)^T] against f = e_{p+1}: with the residual
    r = E u - f, the point is -r[:p] / r[p], and a zero residual means no
    point has unit slack.  It is accepted when it lies in the |x|_inf <= box
    box with every normalized slack at least 1 - TOL.interior_slack.
    Otherwise (no point at unit slack, or that point outside the box) one
    LP solves for the Chebyshev center, the point of the box maximizing the
    minimum normalized slack.  Returns None when the interior is empty (best
    slack below TOL.interior_slack).

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


def _chebyshev_center(poly: Polyhedron) -> np.ndarray | None:
    p = poly.dim
    box = TOL.box
    norms = np.linalg.norm(poly.gamma, axis=1)
    if np.any((norms == 0) & (poly.delta < 0)):
        return None
    keep = norms > 0
    g, delta, norms = poly.gamma[keep], poly.delta[keep], norms[keep]
    f = np.zeros(p + 1)
    f[p] = 1.0
    E = np.vstack([g.T, norms - delta])
    # nnls aborts the interpreter on a matrix with no columns
    r = E @ (nnls(E, f)[0] if g.size else np.zeros(0)) - f
    if r[p] < 0:
        x = -r[:p] / r[p]
        if np.abs(x).max(initial=0.0) <= box and \
                np.min((g @ x + delta) / norms, initial=np.inf) >= \
                1.0 - TOL.interior_slack:
            return x
    cost = np.zeros(p + 1)
    cost[p] = -1.0
    A_ub = np.hstack([-g, norms[:, None]])
    bounds = [(-box, box)] * p + [(-box, box)]
    res = linprog(cost, A_ub=A_ub, b_ub=delta, bounds=bounds, method="highs")
    if res.status != 0 or res.x[p] <= TOL.interior_slack:
        return None
    return res.x[:p]


def chebyshev_radius(poly: Polyhedron) -> float:
    """The minimum normalized slack at `interior_point`: at least 1 at the
    least-distance point, the Chebyshev radius at the LP fallback, and 0
    when the interior is empty."""
    x = interior_point(poly)
    if x is None:
        return 0.0
    norms = np.linalg.norm(poly.gamma, axis=1)
    norms[norms == 0] = 1.0
    return float(np.min(poly.evaluate(x) / norms))


def _witnessed_facets(poly: Polyhedron, x0: np.ndarray) -> np.ndarray:
    """Facets proven irredundant by substitution: from the interior point x0,
    step along -gamma_i/|gamma_i| just past the hyperplane {u_i = 0}; a point
    y with u_i(y) < 0 clearly, every other u_j(y) >= 0 and |y|_inf < box
    shows that deleting facet i enlarges the set."""
    q = poly.n_facets
    norms = np.linalg.norm(poly.gamma, axis=1)
    proven = np.zeros(q, dtype=bool)
    nonzero = norms > 0
    if not np.any(nonzero):
        return proven
    unit = np.zeros_like(poly.gamma)
    unit[nonzero] = poly.gamma[nonzero] / norms[nonzero, None]
    dist = poly.evaluate(x0)[nonzero] / norms[nonzero]
    r = float(dist.min())
    own = np.eye(q, dtype=bool)
    for overshoot in (r / 2, r / 1000):
        step = np.zeros(q)
        step[nonzero] = dist + overshoot
        ys = x0 - step[:, None] * unit
        vals = poly.evaluate(ys)                 # vals[i, j] = u_j(y_i)
        proven |= (np.diag(vals) < -2.0 * TOL.feasibility) & \
            np.all((vals >= 0) | own, axis=1) & \
            (np.abs(ys).max(axis=1) < TOL.box)
    return proven


def minimalize(poly: Polyhedron) -> Polyhedron:
    """Remove facets whose deletion leaves the set unchanged.

    When gamma has full row rank and the interior is nonempty, every facet
    is irredundant: y = x0 - (u_i(x0) + eps) pinv(gamma) e_i crosses facet i
    and no other.  Otherwise a facet with a witness from the interior point
    (`_witnessed_facets`) is irredundant against every subset of the other
    facets, so it is kept without an LP; each remaining facet takes one LP,
    in order, against the facets still kept.  The kept rows are those of the
    LP rule alone, except that a zero row with delta >= 0 (its half-space is
    R^p) is dropped without an LP even when it is the only facet.  When no
    facet is removed the result inherits the memoized interior point.
    """
    x0 = interior_point(poly)
    if x0 is None:
        proven = np.zeros(poly.n_facets, dtype=bool)
    elif np.linalg.matrix_rank(poly.gamma) == poly.n_facets:
        proven = np.ones(poly.n_facets, dtype=bool)
    else:
        proven = _witnessed_facets(poly, x0)
    keep = list(range(poly.n_facets))
    i = 0
    while i < len(keep):
        idx = keep[i]
        if not poly.gamma[idx].any() and poly.delta[idx] >= -TOL.feasibility:
            keep.pop(i)  # its half-space is all of R^p
            continue
        others = [j for j in keep if j != idx]
        if proven[idx] or not others:
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

