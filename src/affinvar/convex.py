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


def _nonnegative_solution(A: np.ndarray, b: np.ndarray,
                          free: int | None) -> np.ndarray | None:
    """The NNLS solution z >= 0 of A z = b, column `free` unconstrained (as
    the difference of two nonnegative columns), or None when NNLS stops at
    its iteration limit.  Its residual is the caller's to test."""
    cols = A if free is None else np.hstack([A, -A[:, free:free + 1]])
    try:
        z = nnls(cols, b)[0]
    except RuntimeError:
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
    none (or NNLS stops at its iteration limit).

    Lawson & Hanson's least-distance program (Solving Least Squares
    Problems, 1974, ch. 23): one NNLS on the (p+1) x q matrix
    E = [G^T; h^T] against f = e_{p+1}.  With the residual r = E u - f the
    point is -r[:p] / r[p], and r[p] = 0 means the system is infeasible.
    The result is a floating-point solve; callers verify it by substitution.
    """
    p = G.shape[1]
    if not G.size:  # nnls aborts the interpreter on a matrix with no columns
        return np.zeros(p)
    E = np.vstack([G.T, h])
    f = np.zeros(p + 1)
    f[p] = 1.0
    try:
        r = E @ nnls(E, f)[0] - f
    except RuntimeError:
        return None
    return -r[:p] / r[p] if r[p] < 0 else None


def _chebyshev_center(poly: Polyhedron) -> np.ndarray | None:
    p = poly.dim
    box = TOL.box
    norms = np.linalg.norm(poly.gamma, axis=1)
    if np.any((norms == 0) & (poly.delta < 0)):
        return None
    keep = norms > 0
    g, delta, norms = poly.gamma[keep], poly.delta[keep], norms[keep]
    # solved in units of the largest requirement: an offset far above the
    # unit slack would otherwise cost the point its last digits
    h = norms - delta
    scale = np.abs(h).max(initial=0.0) or 1.0
    x = _least_distance(g, h / scale)
    if x is not None:
        x = scale * x
    if x is not None and np.abs(x).max(initial=0.0) <= box and \
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


def _facet_witness(poly: Polyhedron, i: int, others: list[int],
                   x0: np.ndarray, margin: float) -> bool:
    """Whether substitution proves facet i irredundant against `others`.

    One `_least_distance` solve, in units of its largest requirement, gives
    the point y nearest x0 with normalized slack <= -margin on facet i (and
    u_i(y) <= -4 TOL.feasibility, to clear the test below) and
    >= margin / 1000 on every other facet with a nonzero row: a facet
    parallel to facet i and close beyond it leaves only a sliver of room
    for y, which a full margin of its own would close.  A y with
    u_i(y) < -2 TOL.feasibility, every other u_j(y) > 0 and |y|_inf < box
    shows that deleting facet i enlarges the set cut out by any subset of
    `others`."""
    rows = [i] + [j for j in others if poly.gamma[j].any()]
    norms = np.linalg.norm(poly.gamma[rows], axis=1)
    sign = np.ones(len(rows))
    sign[0] = -1.0
    slack = poly.evaluate(x0)[rows] / norms
    floor = np.full(len(rows), margin / 1000.0)
    floor[0] = max(margin, 4.0 * TOL.feasibility / norms[0])
    h = floor - sign * slack
    scale = np.abs(h).max()  # y - x0 in units of the largest requirement
    z = _least_distance(sign[:, None] * poly.gamma[rows] / norms[:, None],
                        h / scale)
    if z is None:
        return False
    y = x0 + scale * z
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

