"""Polyhedral state spaces: admissibility, canonical transform, square roots,
PSD facet decompositions and diagonalization by dimension extension.

The boundary conditions checked here are the exact invariance conditions for
an affine SDE on a polyhedron: on every facet segment the diffusion row
``gamma_i theta(.)`` must vanish and the drift component ``gamma_i mu(.)`` must
be nonnegative.  In a minimal polyhedron with nonempty interior each facet
spans its hyperplane, so the first condition is a coefficient projection onto
``u_i``: `_coupling_rows` reads every coupling row B_i, with
gamma_i theta(.) = B_i u_i(.), off the coefficients of theta at once, for the
admissibility check and the canonical transform alike, so the transform
depends on the model alone, not on an interior point.  The second condition
is certified for every facet in one call of `convex._certificates` (one
stacked linear solve, or one NNLS per facet), once in
``check_polyhedral_admissibility``; `convex._witness` refutes a facet
without a certificate.  Polynomial
identities (the canonical block form, the dimension extension) are checked
on coefficients.

The PSD facet decomposition theta = B0 + sum_i B_i u_i is one linear system
with the (p+1) x (q+1) matrix K = [[1, delta^T], [0, gamma^T]] acting on the
stacked coefficients, solved by one SVD of K.  It is unique when gamma has
full row rank; otherwise a cone-distance search over K's null space, the
module's own L-BFGS (`_minimize`), picks a PSD solution or proves that none
exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import (FarkasCertificate, _certificates, _witness, facet_rank,
                     interior_point, minimalize)
from .core import (AffineMap, AffineMatrixField, AffineScalar,
                   AffineVectorField, Check, ModelSpec, Polyhedron, _cached,
                   _cholesky_rows, _coefficient_residual, _coefficient_scale,
                   _evaluator, _minimal, _psd_margins, _symmetric_part,
                   _symmetrized, psd_factor, psd_square_root)
from .errors import (InteriorEmptyError, ModelInconsistencyError,
                     NotAdmissibleError, NotRepresentableError,
                     NumericalFailureError, PreconditionFailedError,
                     RankDeficiencyError)
from .tolerances import TOL

# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    checks: list[Check]  # facet-i-diffusion and facet-i-drift, facet by facet
    polyhedron: Polyhedron
    # (a_bar, b_bar) with gamma mu(x) = a_bar u(x) + b_bar, None unless every
    # facet has a drift certificate
    lifted_drift: tuple[np.ndarray, np.ndarray] | None

    @property
    def admissible(self) -> bool:
        return all(c.passed for c in self.checks)


def _require_polyhedron(model: ModelSpec) -> Polyhedron:
    if not isinstance(model.state_space, Polyhedron):
        raise PreconditionFailedError("model state space is not polyhedral")
    poly = model.state_space
    return poly if poly.minimal else minimalize(poly)


def _interior_polyhedron(model: ModelSpec) -> Polyhedron:
    """The model's minimal polyhedron; raises InteriorEmptyError when its
    interior is empty.  Linearly independent facet rows (`facet_rank`) have
    a nonempty interior, so only dependent rows take the interior point's
    NNLS here; the callers that read the point itself solve it."""
    poly = _require_polyhedron(model)
    if facet_rank(poly) < poly.n_facets and interior_point(poly) is None:
        raise InteriorEmptyError("polyhedron has empty interior")
    return poly


def _coupling_rows(theta: AffineMatrixField, poly: Polyhedron
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling rows B (q, p) with gamma_i theta(.) = B_i u_i(.)
    coefficientwise, the diffusion multiples c_i = B_i gamma_i^T, and each
    facet's residual of that identity, which holds where the residual is at
    most TOL.feasibility.

    Callers have already established a nonempty interior of the minimal
    polyhedron, so facet i spans {u_i = 0} and vanishing there is exactly
    being a coefficient multiple of u_i.  Each component's (linear, constant)
    coefficients are projected onto U_i = (gamma_i, delta_i); the residual
    is the largest of the components' projection residuals, each relative to
    1 + the component's largest coefficient.
    """
    g = poly.gamma
    # V[i, j] = coefficients of component j of x -> gamma_i theta(x)
    V = np.concatenate([np.einsum("ia,kaj->ijk", g, theta.A),
                        (g @ theta.A0)[:, :, None]], axis=2)
    U = np.concatenate([g, poly.delta[:, None]], axis=1)
    denom = np.einsum("ik,ik->i", U, U)
    nonzero = denom > 0
    B = np.einsum("ijk,ik->ij", V, U) / np.where(nonzero, denom, 1.0)[:, None]
    resid = np.abs(V - B[:, :, None] * U[:, None, :]).max(axis=2, initial=0.0)
    resid = (resid / (1.0 + np.abs(V).max(axis=2, initial=0.0))).max(
        axis=1, initial=0.0)
    return B, np.einsum("ij,ij->i", B, g), np.where(nonzero, resid, np.inf)


def _diffusion_condition(theta: AffineMatrixField, poly: Polyhedron
                         ) -> tuple[np.ndarray, ...]:
    """`_coupling_rows`' B and c, the mask ok of facets that meet the
    diffusion condition, the mask root of square-root facets: those with
    gamma_i theta(.) = B_i u_i(.) and |B_i| > TOL.zero_row times theta's
    scale, and the residual of that identity.  The condition is that
    identity and, on a square-root facet, c_i > 0; with c_i <= 0 theta is
    not PSD on the interior.

    The result is kept on poly per theta and the tolerances it reads
    (`core._cached`): the admissibility check and the canonical transform
    of one model share it.  Its arrays are read-only.
    """
    def decide():
        B, c, resid = _coupling_rows(theta, poly)
        vanishes = resid <= TOL.feasibility
        root = vanishes & (np.linalg.norm(B, axis=1) > TOL.zero_row *
                           _coefficient_scale(theta.A0, theta.A))
        result = (B, c, vanishes & (~root | (c > 0)), root, resid)
        for arr in result:
            arr.setflags(write=False)
        return result

    return _cached(poly, "_condition", (theta, TOL.feasibility, TOL.zero_row),
                   decide)


def _lift(drift: AffineVectorField, poly: Polyhedron,
          certs: list[FarkasCertificate]) -> tuple[np.ndarray, np.ndarray]:
    """Stack the facet drift certificates into (a_bar, b_bar) and check
    gamma mu(x) = a_bar u(x) + b_bar at coefficient level."""
    q = poly.n_facets
    a_bar = np.array([cert.lam for cert in certs]).reshape(q, q)
    b_bar = np.array([cert.c for cert in certs])
    lhs = (poly.gamma @ drift.a, poly.gamma @ drift.b)
    rhs = (a_bar @ poly.gamma, a_bar @ poly.delta + b_bar)
    resid = _coefficient_residual(lhs, rhs)
    if resid > TOL.feasibility * _coefficient_scale(*lhs):
        raise NotAdmissibleError(
            f"lifted drift reconstruction residual {resid:.3e} out of tolerance")
    return a_bar, b_bar


def _drift_rows(drift: AffineVectorField, poly: Polyhedron) -> np.ndarray:
    """The coefficients (gamma_i a, gamma_i . b) of every facet's drift
    functional gamma_i mu(.), one row per facet: stacked per-facet
    products, the bits of ``drift.row_functional(gamma_i)``."""
    g = poly.gamma[:, None, :]
    return np.concatenate([g @ drift.a, g @ drift.b[:, None]], axis=2)[:, 0]


def check_polyhedral_admissibility(model: ModelSpec) -> AdmissibilityReport:
    """Facet-by-facet invariance conditions for a polyhedral state space.

    For each facet: (a) the row gamma_i theta(.) vanishes on the facet segment
    (every component is a multiple of u_i, and on a square-root facet the
    quadratic multiple c_i = B_i gamma_i^T is positive,
    `_diffusion_condition`), the check ``facet-i-diffusion`` with B_i as its
    certificate and c_i as its margin (none when c_i = 0 fails), or the
    negated residual of the identity where the row does not vanish; (b)
    gamma_i mu(.) is nonnegative on the facet segment, ``facet-i-drift``,
    certified by a facet-relative Farkas decomposition, whose constant is
    its margin, or refuted by a witness point.
    When every facet has a drift certificate the report also carries the
    lifted drift (a_bar, b_bar); raises NotAdmissibleError if those fail to
    reconstruct gamma mu(.).
    """
    poly = _interior_polyhedron(model)
    B, c, ok, root, resid = _diffusion_condition(model.diffusion, poly)
    F = _drift_rows(model.drift, poly)
    certs = _certificates(F, poly, range(poly.n_facets))
    checks = []
    for i, cert in enumerate(certs):
        vanishes = ok[i] or root[i]  # gamma_i theta(.) = B_i u_i(.)
        msg = None if ok[i] else \
            "nonpositive diffusion multiple on square-root facet" if vanishes \
            else "diffusion row does not vanish on facet segment"
        margin = float(c[i] if vanishes else -resid[i])
        witness = None if cert else \
            _witness(AffineScalar(F[i, :-1], F[i, -1]), poly, i)
        # a failed c_i = 0 has no margin: the condition is c_i > 0
        checks += [Check(f"facet-{i}-diffusion", bool(ok[i]),
                         margin=None if msg and margin >= 0 else margin,
                         certificate=B[i] if vanishes else None, info=msg),
                   Check(f"facet-{i}-drift", cert is not None,
                         margin=None if cert is None else cert.c,
                         certificate=cert, witness=witness,
                         info=None if cert else "drift points outward on facet")]
    lifted = None if any(cert is None for cert in certs) else \
        _lift(model.drift, poly, certs)
    return AdmissibilityReport(checks, poly, lifted)


def check_open_facet_invariance(model: ModelSpec) -> list[Check]:
    """Facet-by-facet invariance of the open interior (boundary
    non-attainment): gamma_i mu(.) - c_i/2 >= 0 on the facet segment.

    This is the Feller-type condition grad(u_i) (mu - 1/2 sum_k A_k e_k) >= 0:
    the coupling row gives gamma_i A_k = gamma_ik B_i, so the correction is
    c_i/2 with c_i = B_i gamma_i^T (`_coupling_rows`); on theta = diag(x) it
    reads a_ij >= 0 (j != i) and b_i >= 1/2.  Facet i's check,
    ``facet-i-open``, passes with the facet-relative certificate, whose
    constant is its margin, or fails with a witness point on the facet; one
    that fails the diffusion condition fails with neither.  A pass with
    c_i = 0 is a proof too: gamma_i sigma = 0 there, and the certificate
    gives u_i(t) >= u_i(0) exp(lam_i t) > 0.
    """
    poly = _interior_polyhedron(model)
    _, c, ok, _, _ = _diffusion_condition(model.diffusion, poly)
    F = _drift_rows(model.drift, poly)
    F[:, -1] -= 0.5 * c
    facets = np.flatnonzero(ok).tolist()
    certs = dict(zip(facets, _certificates(F[facets], poly, facets)))
    checks = []
    for i in range(poly.n_facets):
        cert = certs.get(i)
        witness = _witness(AffineScalar(F[i, :-1], F[i, -1]), poly, i) \
            if i in certs and cert is None else None
        checks.append(Check(f"facet-{i}-open", cert is not None,
                            margin=None if cert is None else cert.c,
                            certificate=cert, witness=witness))
    return checks


# ---------------------------------------------------------------------------
# canonical transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalTransform:
    """Affine change of coordinates ``map``, y = L x + ell, block-diagonalizing
    theta, and the ``model`` in y.

    In the new coordinates theta becomes
    ``[[diag(y_1..y_m, 0_n), 0], [0, Psi(y_1..y_{m+n})]]`` and the state space
    becomes R^m_{>=0} x C x R^{p-m-n}.  ``facet_order`` maps positions in the
    transformed facet list back to original facet indices; ``facet_scale``
    holds the positive rescaling applied to each facet functional.
    """

    map: AffineMap
    model: ModelSpec
    m: int
    n: int
    psi: AffineMatrixField        # field of size p-m-n in m+n variables
    B: np.ndarray                 # (q, p) coupling rows, original facet order
    facet_order: np.ndarray       # permutation of original facet indices
    facet_scale: np.ndarray       # positive scale per original facet
    polyhedron: Polyhedron        # minimalized source polyhedron
    block_residual: float         # coefficient residual of the block form

    @property
    def dim(self) -> int:
        return self.map.L.shape[0]

    def to_canonical(self, x) -> np.ndarray:
        return self.map.apply(x)


def _rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return int(np.linalg.matrix_rank(mat))


def _null_space_rows(mat: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the row space,
    with a fixed sign convention (first significant entry positive)."""
    if mat.size == 0:
        return np.eye(dim)
    _, s, Vt = np.linalg.svd(mat)
    r = int(np.sum(s > max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
    rows = Vt[r:].copy()
    for k in range(rows.shape[0]):
        nz = np.nonzero(np.abs(rows[k]) > 1e-12)[0]
        if nz.size and rows[k, nz[0]] < 0:
            rows[k] = -rows[k]
    return rows


def canonical_transform(model: ModelSpec) -> CanonicalTransform:
    """Construct the block-diagonalizing transform of the diffusion matrix.

    Requires the facet diffusion condition (every row gamma_i theta(.)
    vanishes on its facet segment); raises NotAdmissibleError otherwise.  The
    construction follows the coupling rows B_i with gamma_i theta(.) =
    B_i u_i(.), read off the coefficients of theta (`_coupling_rows`), so the
    transform depends on the model alone.  It rescales the square-root
    facets M so that B_i gamma_i^T = 1 and completes the facet rows to a
    nonsingular matrix L, with the rows of the facets N first: every other
    facet, in order, when gamma has full row rank (`facet_rank`), since
    every subset of independent rows is independent; otherwise each facet,
    in order, whose row adds rank to those taken so far.  The model is
    pushed to y once, as ``model``.
    Psi is read off the lower-right block of its diffusion, the
    coefficient-exact congruence L theta L^T; raises ModelInconsistencyError
    when that block depends on the completing coordinates, i.e. is not a
    function of the facet values.
    The congruence is then checked against the block form on coefficients
    (residual kept as ``block_residual``); RankDeficiencyError when it fails.
    """
    poly = _interior_polyhedron(model)
    p, q = model.dimension, poly.n_facets

    B, c, ok, root, _ = _diffusion_condition(model.diffusion, poly)
    if not (ok | root).all():
        raise NotAdmissibleError(
            f"diffusion condition fails on facet {np.argmin(ok | root)}: "
            "gamma_i theta(.) does not vanish on the facet segment")
    if not ok.all():
        i = np.argmin(ok)
        raise NotAdmissibleError(
            f"facet {i} has nonpositive diffusion multiple {c[i]:.3e}")

    M = np.flatnonzero(root).tolist()
    facet_scale = np.ones(q)
    facet_scale[M] = 1.0 / c[M]
    gamma_s = poly.gamma * facet_scale[:, None]
    delta_s = poly.delta * facet_scale

    N = [i for i in range(q) if i not in M]
    if facet_rank(poly) < q:  # greedy: a facet joins N when it adds rank
        target, rank, N = _rank(gamma_s), _rank(gamma_s[M]), []
        for i in range(q):
            if i in M:
                continue
            trial_rank = _rank(gamma_s[M + N + [i]])
            if trial_rank > rank:
                N.append(i)
                rank = trial_rank
            if rank == target:
                break
    m, n = len(M), len(N)

    eta = _null_space_rows(np.vstack([B[M], gamma_s[N]]), p)
    if eta.shape[0] != p - m - n:
        raise RankDeficiencyError(
            f"complement has dimension {eta.shape[0]}, expected {p - m - n}")
    L = np.vstack([gamma_s[M], gamma_s[N], eta])
    # Hadamard's ratio |det L| / prod_i |L_i| <= 1 is blind to row scale
    if abs(np.linalg.det(L)) <= 1e-12 * np.prod(np.linalg.norm(L, axis=1)):
        raise RankDeficiencyError("assembled transform is singular")
    f = AffineMap(L, np.concatenate([delta_s[M], delta_s[N],
                                     np.zeros(p - m - n)]))

    order = np.array(M + N + [i for i in range(q) if i not in M and i not in N],
                     dtype=int)
    image = _minimal(Polyhedron(gamma_s[order], delta_s[order])).transformed(f)
    model_y = model.pushed(f, image)

    k = m + n
    canon = model_y.diffusion
    scale = _coefficient_scale(canon.A0, canon.A)
    resid = float(np.abs(canon.A[k:, k:, k:]).max(initial=0.0))
    if resid > TOL.feasibility * scale:
        raise ModelInconsistencyError(
            f"lower-right block is not a function of the facet values "
            f"(residual {resid:.3e}); the state space is not contained in the "
            "PSD region of the diffusion")
    psi = AffineMatrixField(canon.A0[k:, k:], canon.A[:k, k:, k:])

    # the block form [[diag(y_M, 0_N), 0], [0, Psi(y_{M u N})]]
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    A[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    A0[k:, k:] = psi.A0
    A[:k, k:, k:] = psi.A
    block_residual = _coefficient_residual((canon.A0, canon.A), (A0, A))
    if block_residual > TOL.block_identity * scale:
        raise RankDeficiencyError(
            f"block identity residual {block_residual:.3e} exceeds tolerance; "
            "internal inconsistency in the canonical construction")
    return CanonicalTransform(f, model_y, m, n, psi, B, order, facet_scale,
                              poly, block_residual)


def _canonical_facets(poly: Polyhedron) -> int | None:
    """k = m + n when poly has ``canonical_transform``'s layout
    R^m_+ x C x R^r, None otherwise: the first k facets are u_i(x) = x_i,
    i < k, and every later facet, a cut of C, has no coefficient beyond the
    first k coordinates.  Entries are compared within TOL.feasibility."""
    gamma, tol = poly.gamma, TOL.feasibility
    lead = min(gamma.shape)
    unit = (np.abs(gamma[:lead] - np.eye(lead, gamma.shape[1])).max(
        axis=1, initial=0.0) <= tol) & (np.abs(poly.delta[:lead]) <= tol)
    k = int(np.argmin(np.append(unit, False)))   # the leading unit facets
    if np.abs(gamma[k:, k:]).max(initial=0.0) > tol:
        return None
    return k


def transform_model(model: ModelSpec, ct: CanonicalTransform) -> ModelSpec:
    """``ct.model``, the model in canonical coordinates y = L x + ell."""
    return ct.model


def build_square_root(ct: CanonicalTransform):
    """Evaluator y -> sigma(y) in canonical coordinates (`core._evaluator`).

    Upper-left block diag(sqrt(|y_M|), 0_N), lower-right block a root of
    Psi(y_{M u N}) (``psd_factor``: Cholesky, the symmetric root where a
    pivot fails).  ``sigma.apply(y, z)`` is sigma(y) z for columns: y and
    z are (p, N), one path per column, and so is the result, computed block
    by block without forming sigma(y); it reads the factor of Psi row by
    row (``core._cholesky_rows``), with no (s, s, N) array and no
    error-state scope unless a pivot fails.  sigma(y), at a point (p,) or a
    stack (..., p), is read off it.
    """
    m, k, p = ct.m, ct.m + ct.n, ct.dim
    s = p - k
    psi_A0 = ct.psi.A0.reshape(-1, 1)
    psi_A = ct.psi.A.reshape(k, s * s).T

    def apply(y, z):
        out = np.zeros(z.shape)
        if m:
            root = np.sqrt(np.abs(y[:m], out=out[:m]), out=out[:m])
            root *= z[:m]
        if s:
            S = (psi_A0 + psi_A @ y[:k]).reshape(s, s, -1)   # Psi, batch-last
            # the rows of the Cholesky factor; a failing pivot takes the
            # whole factor, with symmetric roots where pivots fail
            R = _cholesky_rows(S, stop=True)
            if R is None:
                R = psd_factor(S)
            zs = z[k:]
            for i, row in enumerate(R):
                # R_i0 z_0 + ... + R_i,s-1 z_s-1 left to right, the zeros
                # above the diagonal included, as a product with the whole
                # factor sums
                acc = out[k + i]
                np.multiply(row[0], zs[0], out=acc)
                for j in range(1, s):
                    acc += (row[j] if j < len(row) else 0.0) * zs[j]
        return out

    return _evaluator(apply)


# ---------------------------------------------------------------------------
# lifted drift
# ---------------------------------------------------------------------------

def lift_drift(model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (a_bar, b_bar) with gamma mu(x) = a_bar u(x) + b_bar, a_bar
    having nonnegative off-diagonal entries and b_bar nonnegative.

    Read off the admissibility report, which assembles them facet-by-facet
    from the facet-relative Farkas certificates of the drift condition;
    raises NotAdmissibleError when one fails.
    """
    adm = check_polyhedral_admissibility(model)
    if adm.lifted_drift is None:
        i = next(i for i, c in enumerate(adm.checks[1::2]) if not c.passed)
        raise NotAdmissibleError(f"drift condition fails on facet {i}")
    return adm.lifted_drift


# ---------------------------------------------------------------------------
# PSD facet decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdFacetDecomposition:
    """theta(x) = B0 + sum_i Bi u_i(x) with every coefficient matrix PSD."""

    B0: np.ndarray
    Bi: np.ndarray  # (q, p, p)

    def reconstruct(self, poly: Polyhedron) -> AffineMatrixField:
        A0 = self.B0 + np.tensordot(poly.delta, self.Bi, axes=(0, 0))
        A = np.einsum("ik,iab->kab", poly.gamma, self.Bi)
        return AffineMatrixField(_symmetric_part(A0), _symmetric_part(A))

    def min_eigenvalue(self) -> float:
        Bs = np.concatenate([self.B0[None], self.Bi])
        return float(np.linalg.eigvalsh(Bs)[:, 0].min())


def check_triangle_condition(poly: Polyhedron) -> bool:
    """For each facet i: on the solution set of {u_j = 0, j != i} the value
    u_i must be constant and nonnegative.  An inconsistent system (empty
    solution set) counts as satisfied for that facet."""
    q, p = poly.gamma.shape
    for i in range(q):
        others = [j for j in range(q) if j != i]
        G = poly.gamma[others]
        d = poly.delta[others]
        if G.size:
            x_star, *_ = np.linalg.lstsq(G, -d, rcond=None)
            resid = float(np.abs(G @ x_star + d).max())
            if resid > TOL.feasibility * _coefficient_scale(d):
                continue  # no solution: vacuously satisfied
            K = _null_space_rows(G, p)
        else:
            x_star = np.zeros(p)
            K = np.eye(p)
        if K.size and float(np.abs(K @ poly.gamma[i]).max()) > TOL.feasibility:
            return False  # u_i non-constant on the solution set
        if poly.facet(i)(x_star) < -TOL.psd:
            return False
    return True


def _negative_part(Bs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Blockwise B - P(B), P the projection onto the PSD cone, and whether
    every block is PSD: its margin (`core._psd_margins`) >= -TOL.psd."""
    lam, V = np.linalg.eigh(Bs)
    gap = (V * np.minimum(lam, 0.0)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return gap, bool(np.all(_psd_margins(lam) >= -TOL.psd))


def _minimize(fun, x0: np.ndarray) -> np.ndarray:
    """L-BFGS (Liu & Nocedal, Math. Programming 45, 1989) on fun(x) ->
    (value, gradient, done) from x0: the two-loop recursion over the last 10
    pairs (s, y), a pair kept only when s.y > 0, and Armijo backtracking from
    the unit step, the first one scaled by 1/|g|_1.  It stops when `done`,
    when max|g| <= 1e-14, when the value falls by at most 1e-15 of itself
    (a scale-free test: the value may be far below 1), when the line search
    finds no decrease, or after 5000 iterations, and returns the last
    iterate."""
    x = np.array(x0, dtype=float)
    f, g, done = fun(x)
    pairs = []  # (s, y, 1 / s.y), the oldest first
    for _ in range(5000):
        if done or np.abs(g).max() <= 1e-14:
            break
        d = -g
        alpha = []
        for s, y, rho in reversed(pairs):
            alpha.append(rho * (s @ d))
            d -= alpha[-1] * y
        if pairs:  # H0 = (s.y / y.y) I from the newest pair
            s, y, rho = pairs[-1]
            d /= rho * (y @ y)
        else:
            d /= np.abs(g).sum()
        for (s, y, rho), a in zip(pairs, reversed(alpha)):
            d += (a - rho * (y @ d)) * s
        slope, t = float(g @ d), 1.0
        while True:
            f_new, g_new, done = fun(x + t * d)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-20:  # no decrease along d: x is as good as it gets
                return x
        s, y = t * d, g_new - g
        if s @ y > 0:
            pairs = pairs[-9:] + [(s, y, 1.0 / float(s @ y))]
        stalled = f - f_new <= 1e-15 * max(f, f_new)
        x, f, g = x + s, f_new, g_new
        if stalled:
            break
    return x


def psd_decompose(model: ModelSpec) -> PsdFacetDecomposition:
    """Decompose theta as B0 + sum_i Bi u_i with PSD coefficient matrices.

    The identity is K X = R with K = [[1, delta^T], [0, gamma^T]], X the
    stacked (B0, B_1, ..., B_q) and R the stacked (A0, A_1, ..., A_p), one
    column per matrix entry.  One SVD of K gives the minimum-norm solution X
    and the null space N; an inconsistent system raises NotRepresentableError.
    When gamma has full row rank N is empty and X is the only candidate.
    Otherwise `_minimize` (L-BFGS) minimizes the squared distance of
    X + N Z from the PSD product cone, starting at the B0 = 0 solution when
    the triangle condition holds (no search when that start is already a
    decomposition), else at X.  It stops as soon as every block clears the
    PSD floor of `accepted`, which the objective's eigh reads off at no
    cost, or when the distance stops falling relative to itself.  A
    candidate that is not a decomposition raises NotRepresentableError with
    a verified separating functional, or NumericalFailureError.
    """
    poly = _interior_polyhedron(model)
    theta = model.diffusion
    q, p = poly.gamma.shape
    K = np.block([[np.ones((1, 1)), poly.delta[None]],
                  [np.zeros((p, 1)), poly.gamma.T]])
    R = np.concatenate([theta.A0[None], theta.A]).reshape(p + 1, p * p)
    scale = _coefficient_scale(theta.A0, theta.A)

    U, sv, Vt = np.linalg.svd(K)
    rank = int(np.sum(sv > max(K.shape) * np.finfo(float).eps * sv[0]))
    X = Vt[:rank].T @ ((U[:, :rank].T @ R) / sv[:rank, None])
    if float(np.abs(K @ X - R).max()) > TOL.feasibility * scale:
        raise NotRepresentableError(
            "coefficient system has no solution: theta is not an affine "
            "combination of the facet functionals",
            diagnostic={"kind": "inconsistent-system"})
    N = Vt[rank:].T  # (q + 1, nfree), orthonormal

    def accepted(Bs) -> bool:
        """Bs reconstructs theta and every block is PSD."""
        rec = PsdFacetDecomposition(Bs[0], Bs[1:]).reconstruct(poly)
        resid = _coefficient_residual((rec.A0, rec.A), (theta.A0, theta.A))
        return bool(resid <= TOL.feasibility * scale and np.all(
            _psd_margins(np.linalg.eigvalsh(Bs)) >= -TOL.psd))

    def blocks(z):
        return (X + N @ z.reshape(N.shape[1], p * p)).reshape(q + 1, p, p)

    def objective(z):
        gap, psd = _negative_part(blocks(z))
        # the gradient 2 gap, summed so as to be exactly symmetric: the
        # iterates Z, hence the blocks, then stay exactly symmetric
        grad = N.T @ (gap + np.swapaxes(gap, 1, 2)).reshape(q + 1, -1)
        return float(np.sum(gap * gap)), grad.ravel(), psd

    Bs = X.reshape(q + 1, p, p)
    if N.size and check_triangle_condition(poly):  # start at B0 = 0
        Y = np.linalg.lstsq(K[:, 1:], R, rcond=None)[0]
        Bs = np.concatenate([np.zeros((1, p * p)), Y]).reshape(q + 1, p, p)
    if N.size and not accepted(Bs):
        z0 = N.T @ (Bs.reshape(q + 1, -1) - X)
        Bs = blocks(_minimize(objective, z0.ravel()))
    if accepted(Bs):
        return PsdFacetDecomposition(Bs[0], Bs[1:])

    # candidate separating functional: v = a* - P_K(a*) is blockwise NSD,
    # orthogonal to the free directions, with <v, a> = |v|^2 > 0 on the subspace
    gap, _ = _negative_part(Bs)
    gap_norm = float(np.sqrt(np.sum(gap * gap)))
    grad_norm = float(np.linalg.norm(N.T @ gap.reshape(q + 1, -1)))
    stationary = grad_norm <= 1e-6 * max(gap_norm, 1e-30)
    if stationary and gap_norm > TOL.sampled_min * scale:
        raise NotRepresentableError(
            f"no PSD facet decomposition exists: separating functional with "
            f"gap {gap_norm:.3e}",
            diagnostic={"kind": "separating-functional", "gap": gap_norm,
                        "separator": gap})
    raise NumericalFailureError(
        f"decomposition search inconclusive (gap {gap_norm:.3e}, "
        f"stationarity {grad_norm:.3e}); not a proof of nonexistence")


# ---------------------------------------------------------------------------
# diagonalization by dimension extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedModel:
    """Higher-dimensional model with diagonal diffusion projecting onto the
    original one through ``recovery``."""

    model: ModelSpec
    recovery: np.ndarray  # (p, p_ext) with R theta_ext(y) R^T = theta(R y)


def diagonalize_extended(model: ModelSpec, dec: PsdFacetDecomposition) -> ExtendedModel:
    """Extend the dimension so the diffusion matrix becomes diagonal.

    In canonical coordinates with theta = [[diag(x_M, 0_N), 0], [0, Psi]] and
    Psi = Lam0 + sum_i Lam_i x_i (all Lam PSD, from ``dec``), the extended
    diagonal is diag(x_M, 0_N, w(x_Q), 0) with w(x_Q) = (1, x_1 1, ..., x_q 1)
    blocks of length p-q, and the original diffusion is recovered by the
    congruence with [[Id, 0], [0, (Lam^(1/2) Id)]].
    """
    poly = _require_polyhedron(model)
    q, p = poly.gamma.shape
    if _canonical_facets(poly) != q:
        raise PreconditionFailedError(
            "model is not in canonical coordinates (facets must be u_i(x) = x_i)")
    r = p - q
    wlen = (q + 1) * r
    ext = q + wlen + r
    # the square-root facets: the canonical coordinates carrying x_k
    m_idx = np.flatnonzero(_diffusion_condition(model.diffusion, poly)[3])
    Lam = _symmetrized(np.concatenate([dec.B0[None, q:, q:], dec.Bi[:, q:, q:]]))
    # [Lam_0^(1/2), ..., Lam_q^(1/2)], side by side
    Lhalf = np.swapaxes(psd_square_root(Lam), 0, 1).reshape(r, wlen)
    kept = np.r_[:q, q + wlen:ext]  # the original coordinates among the new
    recovery = np.zeros((p, ext))
    recovery[:, kept] = np.eye(p)
    recovery[q:, q:q + wlen] = Lhalf

    # diagonal diffusion: entries x_k (k in M), 0 (k in N), then the w
    # blocks: 1 on the first, x_i on block i + 1
    A0_ext = np.zeros((ext, ext))
    A_ext = np.zeros((ext, ext, ext))
    A_ext[m_idx, m_idx, m_idx] = 1.0
    w = np.arange(q, q + wlen)
    A0_ext[w[:r], w[:r]] = 1.0
    A_ext[np.repeat(np.arange(q), r), w[r:], w[r:]] = 1.0

    # drift: the original drift on the recovered coordinates, zero on the
    # auxiliaries, pushed through the diagonalizing change of variables
    # T^-1 = [[0, I_wlen], [I_r, -Lhalf]]
    a_ext, b_ext = np.zeros((ext, ext)), np.zeros(ext)
    a_ext[kept] = model.drift.a @ recovery
    b_ext[kept] = model.drift.b

    space_ext = _minimal(Polyhedron(np.eye(q, ext), np.zeros(q)))
    out = ExtendedModel(ModelSpec(ext, AffineVectorField(a_ext, b_ext),
                                  AffineMatrixField(A0_ext, A_ext), space_ext),
                        recovery)
    _verify_extension(out, model)
    return out


def _verify_extension(ext: ExtendedModel, model: ModelSpec) -> None:
    """Check R theta_ext(y) R^T = theta(R y) and R mu_ext(y) = mu(R y)
    (R a_ext = a R, R b_ext = b) on coefficients, R the recovery."""
    R, theta, mu = ext.recovery, model.diffusion, model.drift
    theta_ext, mu_ext = ext.model.diffusion, ext.model.drift
    lhs = np.einsum("ia,jab,kb->jik", R, theta_ext.A, R)
    rhs = np.einsum("kj,kab->jab", R, theta.A)
    for name, f, g, scale in (
            ("congruence", (R @ theta_ext.A0 @ R.T, lhs), (theta.A0, rhs),
             _coefficient_scale(theta.A0, theta.A)),
            ("drift", (R @ mu_ext.a, R @ mu_ext.b), (mu.a @ R, mu.b),
             _coefficient_scale(mu.a, mu.b))):
        if _coefficient_residual(f, g) > TOL.block_identity * scale * 10:
            raise PreconditionFailedError(
                f"extension {name} residual out of tolerance; the supplied "
                "decomposition does not match the model")

