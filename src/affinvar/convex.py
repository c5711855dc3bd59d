"""Convex-analysis oracles for polyhedra, each decided by one NNLS.

A Farkas certificate writes an affine functional d that is nonnegative on a
polyhedron, or on one of its facet segments, as d = lam . u + c with
lam >= 0 (the facet's own multiplier free) and c >= 0.  By the affine Farkas
lemma such a certificate exists exactly when d is nonnegative there, and one
NNLS over (lam, c) decides it: a residual above tolerance proves that none
exists (Dax, SIAM Rev. 39, 1997); with linearly independent facet rows
gamma (the orthant R^m_+ x R^n, every simplicial cone) it is read off a
pseudo-inverse memoized on the Polyhedron instead.  One solver,
`_certificates`, takes a stack of functionals, each with its own free
facet or none: the pseudo-inverse solve, its refinement and the residual
test run on the whole stack in stacked products, which keep each
functional's bits as if it were solved alone.  A refuted functional
gets a witness, the least-distance point of {u >= 0, u_facet = 0,
d <= -eps}; a facet is redundant exactly when it has a certificate over the
facets still kept; the interior point is the least-distance point at
normalized slack t, for the first t of 1, 1/2, 1/4, ... down to
TOL.interior_slack at which there is one.  Every least-distance point is
one NNLS (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23),
and every result is checked by substitution.  The rank of gamma is kept on
the Polyhedron too (`facet_rank`): rows of full rank have a nonempty
interior and no redundant facet without a solve.

The NNLS is the package's own (`_nnls`), on numpy and Python floats, and no
LP runs.  An NNLS that cannot finish raises NumericalFailureError (the CLI
exits 3, inconclusive), so a None from any oracle here is a proof: no
certificate, no witness, an empty interior.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import AffineScalar, Polyhedron, _coefficient_scale, _minimal
from .errors import NumericalFailureError
from .tolerances import TOL


def __getattr__(name: str):
    """scipy's `linprog`, imported on first use.  No code here calls it: it
    resolves only for the benchmark tracer (`perfbench/bench_trace`) and
    the `lp_calls` test fixture, which patch it to count LPs (none)."""
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


def _certificate_system(poly: Polyhedron
                        ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The certificate equations gamma^T lam = d.gamma,
    (delta . lam + c) / s = d.delta / s in the unknowns (lam, c), with the
    delta row in units of its largest entry s: (their matrix, its
    pseudo-inverse when it has full column rank, else None, and s), the
    rank and the pseudo-inverse those of `np.linalg.matrix_rank` and
    `np.linalg.pinv`, off one SVD.  The rank is not `facet_rank`'s: once
    |delta| / |gamma| nears 1/eps the column of c, (0, ..., 0, 1/s), falls
    below the tolerance, and a pseudo-inverse would drop c.  They depend on
    the rows alone and are memoized on the polyhedron."""
    memo = getattr(poly, "_certificate_system", None)
    if memo is None:
        q, p = poly.gamma.shape
        A_eq = np.zeros((p + 1, q + 1))
        A_eq[:p, :q] = poly.gamma.T
        A_eq[p, :q] = poly.delta
        A_eq[p, q] = 1.0
        s = float(np.abs(A_eq[p]).max())
        A_eq[p] /= s
        u, sv, vt = np.linalg.svd(A_eq, full_matrices=False)
        top, pinv = sv.max(initial=0.0), None
        if np.count_nonzero(sv > top * (p + 1) * np.finfo(float).eps) == q + 1:
            inv = np.divide(1.0, sv, where=sv > 1e-15 * top,
                            out=np.zeros_like(sv))
            pinv = vt.T @ (inv[:, None] * u.T)
        memo = (A_eq, pinv, s)
        object.__setattr__(poly, "_certificate_system", memo)
    return memo


def _certificates(F: np.ndarray, poly: Polyhedron,
                  free: Sequence[int | None]) -> list[FarkasCertificate | None]:
    """For each row d = (d.gamma, d.delta) of the (k, p + 1) coefficients
    F, and the facet free[j] whose multiplier is unconstrained (or None),
    the certificate d = lam.u + c with the other lam >= 0 and c >= 0, or
    None when there is none.

    When their matrix has full column rank (`_certificate_system`; gamma
    has full row rank) the equations have at most one solution, read off
    the memoized pseudo-inverse and refined once against them, which wins
    back the digits an ill-conditioned system costs.  Otherwise
    one NNLS per row solves them over (lam, c) >= 0, the free multiplier
    split in two nonnegative columns.  Either solution, with the bounded
    entries in [-TOL.lam_clip, 0) set to 0, is the certificate if those
    entries are >= 0 and it passes the residual test; if not, none exists.
    The rows share every product as a stack of per-row products (pinv @
    b_j, lam_j @ gamma, lam_j . delta), each summed as the one-row product
    is, so a row's bits do not depend on the rows beside it."""
    q = poly.n_facets
    A_eq, pinv, s = _certificate_system(poly)
    b = F.copy()
    b[:, -1] /= s
    b = b[:, :, None]
    if pinv is not None:  # with one refinement step against the equations
        z = pinv @ b
        z += pinv @ (b - A_eq @ z)
        Z = z[:, :, 0]
    else:
        Z = np.array([_nonnegative_solution(A_eq, bj[:, 0], f)
                      for bj, f in zip(b, free)]).reshape(len(free), q + 1)
    bounded = np.ones(Z.shape, dtype=bool)
    for j, f in enumerate(free):
        if f is not None:
            bounded[j, f] = False
    # a bounded entry below floor refuses its row; those in [floor, 0) are 0
    floor = -TOL.lam_clip
    rows = np.flatnonzero(~(bounded & (Z < floor)).any(axis=1))
    certs = [None] * len(free)
    if not rows.size:
        return certs
    Z[bounded & (Z < 0) & (Z >= floor)] = 0.0
    lam, c, d = Z[rows, :q], Z[rows, q], F[rows]
    rec = np.concatenate([lam[:, None, :] @ poly.gamma,
                          lam[:, None, :] @ poly.delta[:, None]
                          + c[:, None, None]], axis=2)[:, 0]
    tol = TOL.feasibility * (1.0 + np.abs(d).max(axis=1, initial=0.0))
    passed = (np.abs(rec - d).max(axis=1, initial=0.0) <= tol).tolist()
    for row, lam_j, c_j, ok in zip(rows.tolist(), lam, c.tolist(), passed):
        if ok:
            certs[row] = FarkasCertificate(lam_j, c_j)
    return certs


def _certificate(d: AffineScalar, poly: Polyhedron,
                 free: int | None = None) -> FarkasCertificate | None:
    """`_certificates` of the one functional d, facet `free`'s multiplier
    unconstrained."""
    return _certificates(d.coefficients()[None], poly, [free])[0]


def _nnls(A: np.ndarray, b: np.ndarray,
          maxiter: int | None = None) -> np.ndarray:
    """argmin |A x - b| over x >= 0; NumericalFailureError when the
    active-set iteration needs more than maxiter (default 3n) passive-set
    solves or ends off a KKT point.

    Lawson & Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23) in the Gram-matrix form of Bro & De Jong (J. Chemometrics
    11, 1997), on the columns scaled to unit norm.  The passive set never
    outgrows the rank of A, at most p + 1 here, so the steps run on Python
    floats, where a numpy call would cost more than its arithmetic.  The
    passive Gram matrix is held as one Cholesky factor L, which gains a row
    when a column enters; when columns leave, the rows from the first of
    them on are recomputed, and a column whose pivot rounding has taken to
    zero leaves too.  A column enters only when its dual
    w_t = A_t^T (b - A x) exceeds the rounding level of w and its new pivot
    is clearly positive (Lawson and Hanson's independence test): a zero
    column, or one in the span of the passive ones, is refused and the next
    candidate is tried.  The solution ends with one refinement step against
    the columns themselves, the corrected semi-normal equations (Bjorck,
    Numerical Methods for Least Squares Problems, 1996, 6.6.5), which win
    back the digits the Gram matrix squares away; then every zero entry must
    have its dual, against the columns, at the rounding level, which also
    catches a refinement step that an ill-conditioned factor sent astray.
    No columns give the empty x.
    """
    n = A.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    unit = np.divide(1.0, norms, out=np.ones(n), where=norms > 0.0)
    A = A * unit
    G, g = (A.T @ A).tolist(), (A.T @ b).tolist()
    eps = 10.0 * max(A.shape) * sys.float_info.epsilon
    g_max = max(map(abs, g), default=0.0)
    steps = 3 * n if maxiter is None else maxiter
    x, passive, L = [0.0] * n, [], []
    while True:
        w = {j: g[j] - sum(map(operator.mul, G[j], x))
             for j in range(n) if j not in passive}
        level = eps * (g_max + sum(x))
        t = row = None
        for j in sorted(w, key=w.get, reverse=True):  # the largest dual first
            if w[j] <= level:
                break
            row = _factor_row(G, L, passive, j, eps, A)
            if row is not None:
                t = j
                break
        if t is None:  # optimal: x_P += (L L^T)^-1 A_P^T (b - A_P x_P)
            if passive:
                AP = A[:, passive]
                r = b - AP @ [x[i] for i in passive]
                dx = _factor_solve(L, (r @ AP).tolist())
                for i, v in zip(passive, dx):
                    x[i] = max(x[i] + v, 0.0)
            x = np.array(x)
            if np.any(((b - A @ x) @ A)[x == 0.0] > eps * (g_max + x.sum())):
                raise NumericalFailureError("NNLS ended off its optimum")
            return unit * x
        passive.append(t)
        L.append(row)
        while True:  # solve on the passive set, stepping back while s <= 0
            steps -= 1
            if steps < 0:
                raise NumericalFailureError("NNLS ran out of iterations")
            s = _factor_solve(L, [g[i] for i in passive])
            if min(s) > 0.0:
                for i, v in zip(passive, s):
                    x[i] = v
                break
            alpha, k = min((x[i] / (x[i] - v), i)
                           for i, v in zip(passive, s) if v <= 0.0)
            for i, v in zip(passive, s):
                x[i] += alpha * (v - x[i])
            x[k] = 0.0
            cut = next(m for m, i in enumerate(passive) if x[i] <= 0.0)
            kept, L = passive[:cut], L[:cut]
            for i in passive[cut:]:  # the factor rows after the first leaver
                row = _factor_row(G, L, kept, i, 0.0) if x[i] > 0.0 else None
                if row is not None:
                    kept.append(i)
                    L.append(row)
            passive = kept
            x = [v if i in passive else 0.0 for i, v in enumerate(x)]


def _factor_row(G: list, L: list, passive: list, t: int, floor: float,
                A: np.ndarray | None = None) -> list | None:
    """The row that extends the Cholesky factor L of G[passive, passive] by
    column t, or None when its squared pivot is at most floor.  G squares a
    pivot of 1e-8 into its rounding, so with the columns A given such a
    pivot is read again off them: the distance of A_t from A_P y, its
    least-squares fit, if above its rounding level floor (1 + |y|_1)."""
    row = []
    for Li, i in zip(L, passive):
        row.append((G[t][i] - sum(map(operator.mul, Li, row))) / Li[-1])
    pivot = G[t][t] - sum(map(operator.mul, row, row))
    if pivot > floor:
        return row + [math.sqrt(pivot)]
    if A is None or not passive:
        return None
    y = np.linalg.lstsq(A[:, passive], A[:, t], rcond=None)[0]
    pivot = float(np.linalg.norm(A[:, t] - A[:, passive] @ y))
    return row + [pivot] if pivot > floor * (1.0 + np.abs(y).sum()) else None


def _factor_solve(L: list, v: list) -> list:
    """The y with L L^T y = v, for L lower triangular by rows."""
    y = []
    for Li, vi in zip(L, v):  # L z = v
        y.append((vi - sum(map(operator.mul, Li, y))) / Li[-1])
    for i in reversed(range(len(y))):  # L^T y = z, by rows of L
        y[i] /= L[i][i]
        for j in range(i):
            y[j] -= L[i][j] * y[i]
    return y


def _nonnegative_solution(A: np.ndarray, b: np.ndarray,
                          free: int | None) -> np.ndarray:
    """The NNLS solution z >= 0 of A z = b, column `free` unconstrained (as
    the difference of two nonnegative columns).  Its residual is the
    caller's to test."""
    cols = A if free is None else np.hstack([A, -A[:, free:free + 1]])
    z = _nnls(cols, b)
    if free is not None:
        z[free] -= z[-1]
        z = z[:-1]
    return z


def _witness(d: AffineScalar, poly: Polyhedron,
             facet: int | None) -> np.ndarray | None:
    """The least-distance point of {u >= 0, u_facet = 0, d <= -eps}, eps the
    residual tolerance of a certificate of d, by one `_least_distance`
    solve with u_facet = 0 written as two inequalities; or None when that
    set is empty or substitution puts the point off the set, off the facet
    or at d > -eps/2."""
    rest = np.arange(poly.n_facets) != facet
    eps = TOL.feasibility * _coefficient_scale(d.coefficients())
    G = [poly.gamma[rest], -d.gamma[None]]
    h = [-poly.delta[rest], [d.delta + eps]]
    if facet is not None:
        G.append(np.outer([1.0, -1.0], poly.gamma[facet]))
        h.append([-poly.delta[facet], poly.delta[facet]])
    x = _least_distance(np.vstack(G), np.concatenate(h))
    if x is None:
        return None
    norms = np.linalg.norm(poly.gamma, axis=1)
    slack = poly.evaluate(x) / np.where(norms > 0, norms, 1.0)
    tol = TOL.feasibility * max(1.0, float(np.abs(x).max(initial=0.0)))
    on_facet = facet is None or abs(slack[facet]) <= tol
    return x if on_facet and np.all(slack >= -tol) and d(x) <= -eps / 2 \
        else None


def farkas_decompose(d: AffineScalar, poly: Polyhedron,
                     facet: int | None = None
                     ) -> tuple[FarkasCertificate | None, np.ndarray | None]:
    """(certificate, None) when d >= 0 on the polyhedron, or on the given
    facet segment (`_certificate`, its multiplier free), else
    (None, witness): the least-distance point of that set where d < 0
    (`_witness`; None when it cannot be verified)."""
    cert = _certificate(d, poly, free=facet)
    if cert is not None:
        return cert, None
    return None, _witness(d, poly, facet)


def interior_point(poly: Polyhedron) -> np.ndarray | None:
    """The least-distance point at normalized slack t: the minimum-norm
    point with every (gamma_i x + delta_i) / |gamma_i| >= t, for the first
    target t of 1, 1/2, 1/4, ... down to TOL.interior_slack that has one,
    and substitution must give it slack t/2.  Each target is one
    `_least_distance` NNLS; None, the interior empty, is its proof at the
    last target, and a last point that fails substitution raises
    NumericalFailureError.  No bound on x is involved, so a translate of
    the polyhedron gets the same verdict.  Memoized on the Polyhedron,
    keyed by TOL.interior_slack; callers get a copy.
    """
    key = (TOL.interior_slack,)
    memo = getattr(poly, "_interior", None)
    if memo is None or memo[0] != key:
        memo = (key, _interior_point(poly))
        object.__setattr__(poly, "_interior", memo)
    return None if memo[1] is None else memo[1].copy()


def _least_distance(G: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """The minimum-Euclidean-norm x with G x >= h, or None when there is
    none: Lawson & Hanson's least-distance program (Solving Least Squares
    Problems, 1974, ch. 23), one NNLS of E = [G^T; h^T / s] against
    f = e_{p+1}, its nonzero rows (G_i, h_i) first scaled to unit |G_i| and
    s = max|h| (1 when h = 0), so that no row or offset costs the point its
    last digits.  With r = E u - f the point is -s r[:p] / r[p] for any
    r[p] < 0, tiny for a far point (r[p] = -1 / (1 + |x / s|^2)); callers
    verify it by substitution.  None needs a Farkas vector: r[:p] = G^T u
    at the rounding level of |u|_1 and h . u / s = 1 + r[p] >= 1/2.  A
    residual that is neither raises NumericalFailureError.
    """
    p = G.shape[1]
    norms = np.linalg.norm(G, axis=1)
    unit = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0.0)
    G, h = G * unit[:, None], h * unit
    scale = float(np.abs(h).max(initial=0.0)) or 1.0
    E = np.vstack([G.T, h / scale])
    f = np.zeros(p + 1)
    f[p] = 1.0
    u = _nnls(E, f)
    r = E @ u - f
    rp, level = float(r[p]), 10.0 * max(E.shape) * sys.float_info.epsilon
    if rp >= -0.5 and max(map(abs, r[:p].tolist()), default=0.0) \
            <= level * sum(u.tolist()):
        return None
    if rp < 0.0:
        return scale * (-r[:p] / rp)
    raise NumericalFailureError("least-distance NNLS: neither point nor proof")


def _interior_point(poly: Polyhedron) -> np.ndarray | None:
    """`interior_point`'s search, unmemoized."""
    norms = np.linalg.norm(poly.gamma, axis=1)
    if np.any((norms == 0) & (poly.delta < 0)):
        return None
    keep = norms > 0
    g, delta, norms = poly.gamma[keep], poly.delta[keep], norms[keep]
    t = 1.0
    while True:
        t = max(t, TOL.interior_slack)
        x = _least_distance(g, t * norms - delta)
        if x is not None and \
                np.min((g @ x + delta) / norms, initial=np.inf) >= t / 2:
            return x
        if t == TOL.interior_slack:
            if x is None:
                return None
            raise NumericalFailureError("interior point fails substitution")
        t /= 2


def facet_rank(poly: Polyhedron) -> int:
    """np.linalg.matrix_rank(gamma), memoized on the polyhedron.  Rows of
    rank q, the facet count, are linearly independent: then the interior is
    nonempty (gamma x = 1 - delta has a solution), no facet is redundant,
    and so is every subset of the rows (their singular values interlace
    those of gamma, Horn & Johnson, Matrix Analysis, 7.3)."""
    rank = getattr(poly, "_rank", None)
    if rank is None:
        rank = int(np.linalg.matrix_rank(poly.gamma))
        object.__setattr__(poly, "_rank", rank)
    return rank


def minimalize(poly: Polyhedron) -> Polyhedron:
    """Remove facets whose deletion leaves the set unchanged.

    Facets are taken in order, and facet i is dropped exactly when u_i has
    a certificate (`_certificate`) over the facets still kept: then u_i >= 0
    wherever they hold.  A zero row with delta_i >= 0 has the certificate
    c = delta_i and goes even when it is the only facet.  When gamma has
    full row rank (`facet_rank`) every facet is kept without a solve.  A
    result that keeps every facet inherits the rank.
    """
    keep = list(range(poly.n_facets))
    if facet_rank(poly) < poly.n_facets:
        for i in range(poly.n_facets):
            others = [j for j in keep if j != i]
            sub = Polyhedron(poly.gamma[others], poly.delta[others])
            if _certificate(poly.facet(i), sub) is not None:
                keep.remove(i)
    out = _minimal(Polyhedron(poly.gamma[keep], poly.delta[keep]))
    if len(keep) == poly.n_facets:
        object.__setattr__(out, "_rank", facet_rank(poly))
    return out
