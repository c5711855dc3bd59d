"""Quadratic state spaces: classification of quadrics into the three canonical
forms, the parabolic and conical kernel bases, diffusion-matrix
decompositions, square roots, and drift admissibility checks.

Polynomial identities are handled at coefficient level throughout: a quadratic
polynomial vanishing on a quadric is a constant multiple of the quadric's
polynomial, so "vanishes on the boundary" reduces to a finite linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AffineMatrixField, AffineVectorField, ModelSpec,
                   QuadraticForm, QuadraticSpace, _coefficient_residual,
                   _coefficient_scale, _coldot, change_model_coordinates,
                   psd_factor)
from .errors import (NegativeCError, NotAdmissibleError,
                     NotAdmissibleQuadricError, NotInSpanError,
                     NotNormalizedError, NumericalFailureError,
                     PhiVMismatchError, PreconditionFailedError,
                     ZeroQuadraticPartError)
from .tolerances import TOL


# ---------------------------------------------------------------------------
# quadratic polynomials at coefficient level
# ---------------------------------------------------------------------------

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


def verify_theta_zero_lemma(theta: AffineMatrixField) -> bool:
    """True iff all polynomial coefficients of x^T theta(x) vanish.

    By the cancellation lemma for symmetric affine matrix fields this happens
    only when theta is identically zero, which is what makes coefficient-level
    decomposition fits unique.
    """
    p = theta.size
    coeffs = _row_field_coefficients(np.zeros(p), np.eye(p), theta.A0, theta.A)
    return float(np.abs(coeffs).max()) <= 1e-10 * _coefficient_scale(theta.A0, theta.A)


# ---------------------------------------------------------------------------
# quadric classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadricClassification:
    """Canonical form of a quadric under an affine change of coordinates.

    ``kind`` is "parabolic" (y_1 - sum_{i=2}^q y_i^2), "cone"
    (y_1^2 - sum_{i=2}^q y_i^2 + d) or "ellipsoid" (sum_{i=1}^q y_i^2 + d);
    ``sign`` * Phi(x) equals the canonical polynomial at y = T x + t.
    ``admissible`` records whether the §-classification allows the quadric to
    bound an affine-diffusion state space (parabolic, or cone with d = 0).
    """

    kind: str
    q: int
    d: float
    T: np.ndarray
    t: np.ndarray
    sign: int
    admissible: bool

    def canonical_form(self) -> QuadraticForm:
        """The canonical polynomial of this kind, q and d as a quadratic form
        in p = T.shape[0] variables."""
        p = self.T.shape[0]
        diag, b = np.zeros(p), np.zeros(p)
        diag[:self.q] = 1.0 if self.kind == "ellipsoid" else -1.0
        if self.kind == "parabolic":
            diag[0], b[0] = 0.0, 1.0
        elif self.kind == "cone":
            diag[0] = 1.0
        return QuadraticForm(np.diag(diag), b, self.d)

    def canonical_value(self, y) -> float | np.ndarray:
        y = np.asarray(y, dtype=float)
        q = self.q
        if self.kind == "parabolic":
            val = y[..., 0] - np.sum(y[..., 1:q] ** 2, axis=-1)
        elif self.kind == "cone":
            val = y[..., 0] ** 2 - np.sum(y[..., 1:q] ** 2, axis=-1) + self.d
        else:
            val = np.sum(y[..., :q] ** 2, axis=-1) + self.d
        return float(val) if val.ndim == 0 else val


def _sorted_eig(A: np.ndarray):
    lam, V = np.linalg.eigh(A)
    order = np.argsort(-lam, kind="stable")
    lam, V = lam[order], V[:, order]
    for j in range(V.shape[1]):  # deterministic eigenvector signs
        col = V[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return lam, V


def classify_quadric(phi: QuadraticForm) -> QuadricClassification:
    """Orthogonal diagonalization plus completion of squares.

    Returns the canonical kind with the affine transform y = T x + t such that
    sign * Phi(x) equals the canonical polynomial at y; the substituted
    coefficients are checked against ``canonical_form`` to
    ``TOL.fit_residual`` times Phi's coefficient scale.
    """
    p = phi.dim
    lam, V = _sorted_eig(phi.A)
    scale_eig = float(np.abs(lam).max())
    if scale_eig <= 1e-14 * _coefficient_scale(phi.b):
        raise ZeroQuadraticPartError("quadratic part vanishes")
    nonzero = np.abs(lam) > TOL.eig_zero * scale_eig
    idx_nz = np.nonzero(nonzero)[0]
    idx_z = np.nonzero(~nonzero)[0]
    btil = V.T @ phi.b

    # complete squares along the nonzero directions
    chat = phi.c - float(np.sum(btil[idx_nz] ** 2 / (4.0 * lam[idx_nz])))
    beta = V[:, idx_z] @ btil[idx_z] if idx_z.size else np.zeros(p)
    lin_scale = _coefficient_scale(phi.b, scale_eig)
    has_linear = float(np.linalg.norm(beta)) > TOL.eig_zero * lin_scale

    def _square_rows(indices, sign):
        rows, offs = [], []
        for j in indices:
            s = np.sqrt(np.abs(lam[j]))
            rows.append(s * V[:, j])
            offs.append(s * btil[j] / (2.0 * lam[j]))
        return rows, offs

    if has_linear:
        signs = np.sign(lam[idx_nz])
        if np.all(signs < 0):
            sign = 1
        elif np.all(signs > 0):
            sign = -1
        else:
            raise NotAdmissibleQuadricError(
                "mixed quadratic signature with a linear remainder is not one "
                "of the canonical forms")
        q = 1 + idx_nz.size
        rows, offs = _square_rows(idx_nz, sign)
        # remaining flat directions orthogonal to the linear functional
        if idx_z.size:
            Z = V[:, idx_z]
            bnorm = Z.T @ beta
            _, _, Vt = np.linalg.svd(bnorm[None, :])
            W = Z @ Vt[1:].T  # basis of the zero space orthogonal to beta
        else:
            W = np.zeros((p, 0))
        T = np.vstack([sign * beta, np.array(rows),
                       W.T]) if rows else np.vstack([sign * beta, W.T])
        t = np.concatenate([[sign * chat], offs, np.zeros(W.shape[1])])
        cls = QuadricClassification("parabolic", q, 0.0, T, t, sign, q >= 2)
    else:
        n_plus = int(np.sum(lam[idx_nz] > 0))
        n_minus = idx_nz.size - n_plus
        if n_minus == 0:
            kind, sign = "ellipsoid", 1
        elif n_plus == 0:
            kind, sign = "ellipsoid", -1
        elif n_plus == 1:
            kind, sign = "cone", 1
        elif n_minus == 1:
            kind, sign = "cone", -1
        else:
            raise NotAdmissibleQuadricError(
                "quadratic signature (>=2, >=2) is not one of the canonical forms")
        q = idx_nz.size
        if kind == "cone":
            pos = [j for j in idx_nz if sign * lam[j] > 0]
            neg = [j for j in idx_nz if sign * lam[j] < 0]
            order = pos + neg
        else:
            order = list(idx_nz)
        rows, offs = _square_rows(order, sign)
        Z = V[:, idx_z]
        T = np.vstack([np.array(rows), Z.T]) if rows else Z.T
        t = np.concatenate([offs, np.zeros(idx_z.size)])
        d = sign * chat
        admissible = kind == "cone" and abs(d) <= TOL.eig_zero * (1 + abs(chat)) \
            and q >= 2
        if admissible:
            d = 0.0
        cls = QuadricClassification(kind, q, float(d), T, t, sign, admissible)

    _verify_classification(cls, phi)
    return cls


def canonical_quadric_model(
        model: ModelSpec) -> tuple[QuadricClassification, ModelSpec]:
    """Classify the model's quadric and move the model to the canonical
    coordinates y = T x + t.  The state space keeps its side of the quadric:
    "positive" when it is {canonical polynomial >= 0} (or > 0), "negative"
    when it is the outside."""
    space = model.state_space
    cls = classify_quadric(space.form)
    flipped = (space.component == "positive") != (cls.sign == 1)
    new_space = QuadraticSpace(cls.canonical_form(),
                               "negative" if flipped else "positive",
                               space.closed)
    return cls, change_model_coordinates(model, cls.T, cls.t, new_space)


def _canonical_form(kind: str, p: int, q: int, d: float = 0.0) -> QuadraticForm:
    """The canonical polynomial of kind, q and d in the coordinates themselves."""
    return QuadricClassification(kind, q, d, np.eye(p), np.zeros(p), 1,
                                 False).canonical_form()


def _verify_classification(cls: QuadricClassification, phi: QuadraticForm) -> None:
    """sign * Phi(T^-1 (y - t)) must equal the canonical form coefficient by
    coefficient, to TOL.fit_residual times Phi's coefficient scale."""
    M = np.linalg.inv(cls.T)
    m0 = -M @ cls.t
    form = cls.canonical_form()
    resid = _coefficient_residual(
        (cls.sign * (M.T @ phi.A @ M),
         cls.sign * (M.T @ (2.0 * phi.A @ m0 + phi.b)), cls.sign * phi(m0)),
        (form.A, form.b, form.c))
    if resid > TOL.fit_residual * _coefficient_scale(phi.c, phi.b, phi.A):
        raise NumericalFailureError(
            f"canonical transform residual {resid:.3e} out of tolerance")


# ---------------------------------------------------------------------------
# parabolic basis and decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineColumn:
    """Affine map x -> F0 + F x, a column of one of the kernel bases."""

    F0: np.ndarray
    F: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return self.F0 + np.asarray(x, dtype=float) @ self.F.T

    def coefficients(self) -> np.ndarray:
        return np.concatenate([self.F0, self.F.reshape(-1)])


def zeta_parabolic(p: int, q: int) -> AffineMatrixField:
    """zeta(x) = [[4 x_1, 2 y^T], [2 y, Id]] as a q x q field in p variables."""
    A0 = np.zeros((q, q))
    A0[1:, 1:] = np.eye(q - 1)
    A = np.zeros((p, q, q))
    A[0][0, 0] = 4.0
    for k in range(1, q):
        A[k][0, k] = A[k][k, 0] = 2.0
    return AffineMatrixField(A0, A)


def eta_pairs(q: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, q - 1) for j in range(i + 1, q)]


def eta_matrix(x, q: int) -> np.ndarray:
    """eta(x): first row zero, below the rotation columns T_ij(y); shape
    (..., q, (q-1)(q-2)/2)."""
    x = np.asarray(x, dtype=float)
    pairs = eta_pairs(q)
    out = np.zeros(x.shape[:-1] + (q, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        out[..., i, col] = x[..., j]
        out[..., j, col] = -x[..., i]
    return out


def parabolic_basis(p: int, q: int) -> list[AffineColumn]:
    """Basis of the space of affine maps a with (1, -2y^T) a(x) = 0 on the
    parabola {x_1 = y^T y}: the q columns of zeta plus the (q-1)(q-2)/2
    rotation columns of eta."""
    if not 2 <= q <= p:
        raise PreconditionFailedError(f"need 2 <= q <= p, got q={q}, p={p}")
    cols = []
    F = np.zeros((q, p))
    F[0, 0] = 4.0
    for k in range(1, q):
        F[k, k] = 2.0
    cols.append(AffineColumn(np.zeros(q), F))
    for j in range(1, q):
        F = np.zeros((q, p))
        F[0, j] = 2.0
        F0 = np.zeros(q)
        F0[j] = 1.0
        cols.append(AffineColumn(F0, F))
    for (i, j) in eta_pairs(q):
        F = np.zeros((q, p))
        F[i, j] = 1.0
        F[j, i] = -1.0
        cols.append(AffineColumn(np.zeros(q), F))
    return cols


@dataclass(frozen=True)
class ParabolicDecomposition:
    """theta = [[c zeta(x), A(x)], [A(x)^T, B(x)]] with A = zeta A1 + eta A2."""

    c: float
    A1: np.ndarray               # (q, p-q)
    A2: np.ndarray               # ((q-1)(q-2)/2, p-q)
    B: AffineMatrixField         # size p-q, in p variables
    q: int
    p: int

    @property
    def normalized(self) -> bool:
        return abs(self.c - 1.0) <= TOL.feasibility and \
            (self.A1.size == 0 or float(np.abs(self.A1).max()) <= TOL.feasibility)


def parabolic_theta_decompose(theta: AffineMatrixField,
                              q: int) -> ParabolicDecomposition:
    """Solve for the necessary structure of a diffusion matrix on the parabola
    {x_1 >= y^T y} in canonical coordinates.

    The upper-left q x q block must be a nonnegative multiple of zeta and the
    off-diagonal block columns must lie in the span of the zeta and eta
    columns; residuals above tolerance mean the matrix cannot generate an
    affine diffusion on the parabola.
    """
    p = theta.size
    if theta.nvars != p:
        raise PreconditionFailedError("theta must be a full diffusion field")
    if not 2 <= q <= p:
        raise PreconditionFailedError(f"need 2 <= q <= p, got q={q}, p={p}")
    scale = _coefficient_scale(theta.A0, theta.A)

    zeta = zeta_parabolic(p, q)
    ul_vec = np.concatenate([theta.A0[:q, :q].reshape(-1),
                             theta.A[:, :q, :q].reshape(-1)])
    z_vec = np.concatenate([zeta.A0.reshape(-1), zeta.A.reshape(-1)])
    c = float(ul_vec @ z_vec / (z_vec @ z_vec))
    resid = float(np.abs(ul_vec - c * z_vec).max())
    if c < -TOL.lam_clip:
        raise NegativeCError(f"upper-left multiple c = {c:.3e} is negative")
    c = max(c, 0.0)

    r = p - q
    basis = parabolic_basis(p, q)
    design = np.stack([col.coefficients() for col in basis], axis=1)
    A1 = np.zeros((q, r))
    A2 = np.zeros((len(eta_pairs(q)), r))
    for l in range(r):
        col_vec = np.concatenate([theta.A0[:q, q + l],
                                  theta.A[:, :q, q + l].T.reshape(-1)])
        coef, *_ = np.linalg.lstsq(design, col_vec, rcond=None)
        resid = max(resid, float(np.abs(design @ coef - col_vec).max()))
        A1[:, l] = coef[:q]
        A2[:, l] = coef[q:]
    if resid > TOL.fit_residual * scale:
        raise NotAdmissibleError(
            f"theta violates the necessary parabolic structure "
            f"(residual {resid:.3e})")
    B = AffineMatrixField(theta.A0[q:, q:], theta.A[:, q:, q:])
    return ParabolicDecomposition(c, A1, A2, B, q, p)


def normalize_parabolic(theta: AffineMatrixField, q: int):
    """Rescale and shear coordinates so the decomposition has c = 1, A1 = 0.

    Returns (transform S, transformed theta, transformed decomposition); the
    state-space parabola {x_1 >= y^T y} is preserved by the transform.

    S is read off one fit.  With D = diag(1/c, Id / sqrt(c)) the scaling
    y_Q = D x_Q takes c zeta to zeta and A1 to D^-1 A1 / c, and the shear
    y_R = x_R - (D^-1 A1 / c)^T y_Q = x_R - A1^T x_Q / c then removes it:
    S = [[D, 0], [-A1^T / c, Id]].  One congruence applies S, and one more
    fit verifies c = 1 and A1 = 0.
    """
    dec = parabolic_theta_decompose(theta, q)
    c = dec.c
    if c <= TOL.lam_clip:
        raise PreconditionFailedError(
            "c = 0: the parabola does not carry the square-root block")
    S = np.eye(theta.size)
    S[0, 0] = 1.0 / c
    S[np.arange(1, q), np.arange(1, q)] = 1.0 / np.sqrt(c)
    S[q:, :q] = -dec.A1.T / c
    theta_n = theta.congruence(S, np.zeros(theta.size))
    dec_n = parabolic_theta_decompose(theta_n, q)
    if not dec_n.normalized:
        raise NumericalFailureError("normalization did not reach c=1, A1=0")
    return S, theta_n, dec_n


def check_parabolic_psd_condition(dec: ParabolicDecomposition,
                                  samples: np.ndarray) -> tuple[bool, bool]:
    """The residual-block condition B(x) - A2^T eta(x)^T eta(x) A2 >= 0.

    Returns (passed, structural): structural means B matches the closed form
    (q-2) x_1 A2^T A2 at coefficient level, which implies the condition on the
    whole parabola; otherwise the condition is checked pointwise at the given
    state-space samples.
    """
    if not dec.normalized:
        raise NotNormalizedError("decomposition must have c = 1 and A1 = 0")
    q, p = dec.q, dec.p
    r = p - q
    if r == 0:
        return True, True
    AtA = dec.A2.T @ dec.A2
    target = (q - 2) * AtA
    scale = _coefficient_scale(target, dec.B.A0, dec.B.A)
    structural = float(np.abs(dec.B.A0).max()) <= TOL.feasibility * scale and \
        float(np.abs(dec.B.A[0] - target).max()) <= TOL.feasibility * scale and \
        (dec.B.A[1:].size == 0
         or float(np.abs(dec.B.A[1:]).max()) <= TOL.feasibility * scale)
    if structural:
        return True, True
    for x in np.atleast_2d(np.asarray(samples, dtype=float)):
        eta = eta_matrix(x[:q], q)
        R = dec.B(x) - dec.A2.T @ eta.T @ eta @ dec.A2
        w = np.linalg.eigvalsh(0.5 * (R + R.T))
        if w[0] < -TOL.psd * (1.0 + abs(float(w[-1]))):
            return False, False
    return True, False


def parabolic_square_root(dec: ParabolicDecomposition):
    """sigma(x) = [[xi(x), 0], [A2^T eta(x)^T, rho(x)]] with
    xi = [[2 sqrt|x_1 - y.y|, 2 y^T], [0, Id]] and rho a root of the residual
    block (``psd_factor``); sigma sigma^T = theta on the parabola.
    ``sigma.apply(x, z)`` is sigma(x) z for columns: x and z are (p, N), one
    path per column, and so is the result; sigma(x) is not formed."""
    if not dec.normalized:
        raise NotNormalizedError("decomposition must have c = 1 and A1 = 0")
    q, p = dec.q, dec.p
    r = p - q

    def residual_root(xb, eta):
        """Roots of the residual block at the rows xb, batch-last (r, r, N)."""
        resid = dec.B(xb) - np.einsum("er,nqe,nqf,fs->nrs", dec.A2, eta, eta,
                                      dec.A2)
        return psd_factor(np.moveaxis(resid, 0, -1))

    def sigma(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None] if single else x
        nb = xb.shape[0]
        out = np.zeros((nb, p, p))
        y = xb[:, 1:q]
        out[:, 0, 0] = 2.0 * np.sqrt(np.abs(xb[:, 0] - np.sum(y * y, axis=1)))
        out[:, 0, 1:q] = 2.0 * y
        idx = np.arange(1, q)
        out[:, idx, idx] = 1.0
        if r:
            eta = eta_matrix(xb[:, :q], q)
            out[:, q:, :q] = np.einsum("nqe,er->nrq", eta, dec.A2)
            out[:, q:, q:] = np.moveaxis(residual_root(xb, eta), -1, 0)
        return out[0] if single else out

    def apply(x, z):
        y, zy = x[1:q], z[1:q]
        out = z.copy()
        out[0] = 2.0 * (np.sqrt(np.abs(x[0] - _coldot(y, y))) * z[0]
                        + _coldot(y, zy))
        if r:
            eta = eta_matrix(x[:q].T, q)
            out[q:] = dec.A2.T @ np.einsum("nqe,qn->en", eta, z[:q]) + \
                np.einsum("rsn,sn->rn", residual_root(x.T, eta), z[q:])
        return out

    sigma.apply = apply
    return sigma


@dataclass(frozen=True)
class ParabolicDriftReport:
    structure_ok: bool
    psd_ok: bool
    q2_ok: bool
    closed_ok: bool
    closed_margin: float
    open_ok: bool
    open_margin: float
    d: np.ndarray

    @property
    def admissible(self) -> bool:
        return bool(self.structure_ok and self.psd_ok and self.q2_ok
                    and self.closed_ok)


def check_parabolic_drift(drift: AffineVectorField, q: int) -> ParabolicDriftReport:
    """Drift admissibility on the parabola in canonical coordinates (c = 1).

    Verifies the zero pattern of the first q drift rows, positive
    semidefiniteness of a_11 Id - 2 a_QQ, the matching condition on the
    degenerate directions, and the closed- and open-state-space lower bounds
    on b_1 (the open bound is the stochastic-invariance-of-the-interior
    strengthening)."""
    a, b = drift.a, drift.b
    p = drift.dim
    scale = _coefficient_scale(a, b)
    tol = TOL.feasibility * scale
    structure_ok = True
    if p > q:
        structure_ok &= float(np.abs(a[0, q:]).max(initial=0.0)) <= tol
        structure_ok &= float(np.abs(a[1:q, q:]).max(initial=0.0)) <= tol
    structure_ok &= float(np.abs(a[1:q, 0]).max(initial=0.0)) <= tol

    M = a[0, 0] * np.eye(q - 1) - 2.0 * a[1:q, 1:q]
    Msym = 0.5 * (M + M.T)
    d, O = np.linalg.eigh(Msym)
    psd_ok = bool(d.min(initial=0.0) >= -TOL.psd * scale)
    lin = a[0, 1:q] - 2.0 * b[1:q]
    r = O.T @ lin
    q1 = d > TOL.psd * scale
    q2_ok = bool(np.abs(r[~q1]).max(initial=0.0) <= tol)
    penalty = float(np.sum(r[q1] ** 2 / (4.0 * d[q1]))) if q1.any() else 0.0
    closed_margin = float(b[0] - (q - 1) - penalty)
    open_margin = float(b[0] - (q + 1) - penalty)
    return ParabolicDriftReport(bool(structure_ok), psd_ok, q2_ok,
                                closed_margin >= -tol, closed_margin,
                                open_margin >= -tol, open_margin, d)


# ---------------------------------------------------------------------------
# conical basis and decomposition
# ---------------------------------------------------------------------------

def conical_basis(q: int) -> list[AffineMatrixField]:
    """Basis {zeta, rho(1), ..., rho(q-1)} of the symmetric affine matrix
    fields whose columns are annihilated by (x_1, -y^T) on the cone
    {x_1^2 = y^T y}."""
    if q < 2:
        raise PreconditionFailedError(f"need q >= 2, got {q}")
    out = []
    A = np.zeros((q, q, q))
    A[0] = np.eye(q)
    for k in range(1, q):
        A[k][0, k] = A[k][k, 0] = 1.0
    out.append(AffineMatrixField(np.zeros((q, q)), A))
    for i in range(1, q):
        A = np.zeros((q, q, q))
        A[0][i, 0] = A[0][0, i] = 1.0
        A[i][0, 0] = 1.0
        A[i][i, i] = 1.0
        for j in range(1, q):
            if j != i:
                A[i][j, j] = -1.0
        for k in range(1, q):
            if k != i:
                A[k][i, k] = A[k][k, i] = 1.0
        out.append(AffineMatrixField(np.zeros((q, q)), A))
    return out


@dataclass(frozen=True)
class ConicalDecomposition:
    coeff_zeta: float
    coeff_rho: np.ndarray  # (q-1,)

    @property
    def normalized(self) -> bool:
        """theta = zeta, the form the strong-solution route needs."""
        return abs(self.coeff_zeta - 1.0) <= TOL.feasibility and \
            float(np.abs(self.coeff_rho).max(initial=0.0)) <= TOL.feasibility


def conical_theta_decompose(theta: AffineMatrixField, q: int) -> ConicalDecomposition:
    """Least-squares fit of theta in the conical basis; the fit must be exact
    (residual below tolerance) since the basis spans all admissible diffusion
    matrices on the cone.

    Models with extra coordinates beyond the cone (p > q) are rejected: the
    basis lemma does not constrain the off-cone blocks, so only p = q models
    are supported."""
    if theta.size != q or theta.nvars != q:
        raise PreconditionFailedError(
            f"conical models require p = q = {q}; theta has size {theta.size}")
    basis = conical_basis(q)
    design = np.stack(
        [np.concatenate([f.A0.reshape(-1), f.A.reshape(-1)]) for f in basis],
        axis=1)
    target = np.concatenate([theta.A0.reshape(-1), theta.A.reshape(-1)])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = float(np.abs(design @ coef - target).max())
    if resid > TOL.fit_residual * _coefficient_scale(target):
        raise NotInSpanError(
            f"theta is not in the span of the conical basis (residual {resid:.3e})")
    return ConicalDecomposition(float(coef[0]), coef[1:])


def cone_square_root(q: int):
    """Closed-form symmetric root |zeta(x)|^(1/2) of the conical diffusion
    zeta(x) = [[x_1, y^T], [y, x_1 Id]].

    zeta has eigenvalues x_1 +- |y| on v+- = (1, +-y/|y|)/sqrt(2) and x_1 on
    the orthogonal complement of y inside the y-block, so the root is
    assembled from rank-one projectors without a per-point eigendecomposition.
    ``sigma.apply(x, z)`` is s0 z + (s+- - s0)(v+- . z) v+- with
    s = sqrt|eigenvalue|, for columns: x and z are (q, N), one path per
    column, and so is the result; no q x q arrays are formed.
    """

    pm = np.array([[1.0], [-1.0]])

    def roots(x):
        """The rows s+, s-, s0 of one (3, N) array, and the unit y-direction
        u (q-1, N), at the columns x."""
        x1 = x[0]
        y = x[1:q]
        r = np.sqrt(_coldot(y, y))
        u = y / np.where(r > 0, r, 1.0)
        s = np.empty((3,) + x1.shape)
        s[:2] = x1 + pm * r        # x_1 + r and x_1 - r, bit for bit
        s[2] = x1
        return np.sqrt(np.abs(s, out=s), out=s), u

    def sigma(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None] if single else x
        (sp, sm, s0), u = roots(xb.T)
        avg = 0.5 * (sp + sm)
        dif = 0.5 * (sp - sm)
        out = np.zeros((xb.shape[0], q, q))
        out[:, 0, 0] = avg
        out[:, 0, 1:] = (dif * u).T
        out[:, 1:, 0] = out[:, 0, 1:]
        uu = np.einsum("in,jn->nij", u, u)
        eye = np.eye(q - 1)
        out[:, 1:, 1:] = avg[:, None, None] * uu + \
            s0[:, None, None] * (eye[None] - uu)
        return out[0] if single else out

    def apply(x, z):
        # u = 0 where y = 0, and there s+- = s0: the result is s0 z
        s, u = roots(x)
        w = _coldot(u, z[1:])
        cpm = 0.5 * (s[:2] - s[2])       # the rows cp and cm:
        cpm *= z[0] + pm * w            # (s+- - s0) / 2 * (z_1 +- w)
        cp, cm = cpm
        out = s[2] * z
        out[0] += cp + cm
        out[1:] += (cp - cm) * u
        return out

    sigma.apply = apply
    return sigma


@dataclass(frozen=True)
class ConeAdmissibilityReport:
    symmetry_ok: bool
    psd_ok: bool
    drift_margin: float
    drift_ok: bool

    @property
    def admissible(self) -> bool:
        return bool(self.symmetry_ok and self.psd_ok and self.drift_ok)


def check_cone_admissibility(drift: AffineVectorField, p: int,
                             q: int) -> ConeAdmissibilityReport:
    """Conditions for a strong solution on the open cone with theta = zeta:
    a_1Q = a_Q1^T, a_11 Id - a_QQ PSD, and b_1 - p/2 - |b_Q| >= 0."""
    a, b = drift.a, drift.b
    scale = _coefficient_scale(a, b)
    tol = TOL.feasibility * scale
    sym_ok = bool(np.abs(a[0, 1:q] - a[1:q, 0]).max(initial=0.0) <= tol)
    M = a[0, 0] * np.eye(q - 1) - a[1:q, 1:q]
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    psd_ok = bool(w.min(initial=0.0) >= -TOL.psd * scale)
    margin = float(b[0] - 0.5 * p - np.linalg.norm(b[1:q]))
    return ConeAdmissibilityReport(sym_ok, psd_ok, margin, margin >= -tol)


# ---------------------------------------------------------------------------
# open-set invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpenInvarianceReport:
    v: np.ndarray
    phiv2_ok: bool
    min_value: float


def _canonical_kind(phi: QuadraticForm) -> tuple[str, int] | None:
    """(kind, q) when phi is exactly the parabolic form x_1 - sum_{i=2}^q x_i^2
    or the cone form x_1^2 - sum_{i=2}^q x_i^2, else None (q = 1 included)."""
    p = phi.dim
    kind = "cone" if phi.A[0, 0] > 0.5 else "parabolic"
    q = 1 + int(np.sum(np.diagonal(phi.A)[1:] < -0.5))
    form = _canonical_form(kind, p, q)
    resid = _coefficient_residual((phi.A, phi.b, phi.c), (form.A, form.b, form.c))
    return (kind, q) if resid <= TOL.feasibility else None


def check_open_invariance_general(phi: QuadraticForm,
                                  model: ModelSpec) -> OpenInvarianceReport:
    """Invariance of the open component of {Phi > 0} for a quadric model in
    its canonical frame.

    First verifies at coefficient level that grad(Phi) theta = Phi v^T for a
    constant vector v (raising PhiVMismatchError otherwise); then decides
    grad(Phi) (mu - half column-sum correction) >= 0 on the state space by
    the closed-form parabolic or conical reduction.  A quadric that is not
    one of those canonical forms raises PreconditionFailedError: move the
    model to its canonical frame first (``canonical_quadric_model``).  The
    polyhedral counterpart is ``polyhedral.check_open_facet_invariance``.
    """
    if not isinstance(phi, QuadraticForm):
        raise PreconditionFailedError("phi must be a QuadraticForm")
    theta = model.diffusion

    # fit grad(Phi) theta = Phi v^T at coefficient level, all columns at once
    phi_vec = _quad_vector(phi)
    comp = _row_field_coefficients(phi.b, 2.0 * phi.A, theta.A0, theta.A)
    v = comp @ phi_vec / float(phi_vec @ phi_vec)
    resid = np.abs(comp - v[:, None] * phi_vec).max(axis=1)
    scale = _coefficient_scale(theta.A0, theta.A) * _coefficient_scale(phi.A, phi.b)
    bad = np.nonzero(resid > TOL.psd * scale)[0]
    if bad.size:
        raise PhiVMismatchError(
            f"grad(Phi) theta is not a constant multiple of Phi in "
            f"component {bad[0]} (residual {resid[bad[0]]:.3e})")

    kind, q = _canonical_kind(phi) or (None, 0)
    if kind == "parabolic" and q >= 2:
        rep = check_parabolic_drift(model.drift, q)
        return OpenInvarianceReport(v, rep.structure_ok and rep.psd_ok and
                                    rep.q2_ok and rep.open_ok, rep.open_margin)
    if kind == "cone" and q == model.dimension:
        rep = check_cone_admissibility(model.drift, q, q)
        return OpenInvarianceReport(v, rep.admissible, rep.drift_margin)
    raise PreconditionFailedError(
        "quadric is not in a canonical parabolic or full-dimensional conical "
        "form: move to the canonical frame first")


# ---------------------------------------------------------------------------
# kernel-dimension diagnostics (the basis lemmas, checked numerically)
# ---------------------------------------------------------------------------

def _nullity(M: np.ndarray) -> int:
    return M.shape[1] - int(np.linalg.matrix_rank(M, tol=TOL.fit_residual))


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
