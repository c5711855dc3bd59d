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

from .core import (AffineMap, AffineMatrixField, AffineVectorField, Check,
                   ModelSpec, QuadraticForm, QuadraticSpace,
                   _coefficient_residual, _coefficient_scale, _coldot,
                   _evaluator, _psd_margins, _symmetric_part, psd_factor)
from .errors import (AffinvarError, NegativeCError, NotAdmissibleError,
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


# ---------------------------------------------------------------------------
# quadric classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadricClassification:
    """Canonical form of a quadric under an affine change of coordinates.

    ``kind`` is "parabolic" (y_1 - sum_{i=2}^q y_i^2), "cone"
    (y_1^2 - sum_{i=2}^q y_i^2 + d) or "ellipsoid" (sum_{i=1}^q y_i^2 + d);
    ``sign`` * Phi(x) equals the canonical polynomial at y = T x + t, the
    ``map``.
    ``admissible`` records whether the §-classification allows the quadric to
    bound an affine-diffusion state space (parabolic, or cone with d = 0).
    """

    kind: str
    q: int
    d: float
    map: AffineMap
    sign: int
    admissible: bool

    @property
    def T(self) -> np.ndarray:  # the map is y = T x + t
        return self.map.L

    @property
    def t(self) -> np.ndarray:
        return self.map.ell

    def canonical_form(self) -> QuadraticForm:
        """The canonical polynomial in p = T.shape[0] variables."""
        return _canonical_form(self.kind, self.T.shape[0], self.q, self.d)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "q": self.q, "d": self.d, "sign": self.sign,
                "admissible": self.admissible, "T": self.T.tolist(),
                "t": self.t.tolist()}


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
    ``TOL.feasibility`` times Phi's coefficient scale.
    """
    p = phi.dim
    lam, V = _sorted_eig(phi.A)
    scale_eig = float(np.abs(lam).max())
    if scale_eig <= 1e-14 * _coefficient_scale(phi.b):
        raise ZeroQuadraticPartError("quadratic part vanishes")
    nonzero = np.abs(lam) > TOL.psd * scale_eig
    idx_nz = np.nonzero(nonzero)[0]
    idx_z = np.nonzero(~nonzero)[0]
    btil = V.T @ phi.b

    # complete squares along the nonzero directions
    chat = phi.c - float(np.sum(btil[idx_nz] ** 2 / (4.0 * lam[idx_nz])))
    beta = V[:, idx_z] @ btil[idx_z] if idx_z.size else np.zeros(p)
    lin_scale = _coefficient_scale(phi.b, scale_eig)
    has_linear = float(np.linalg.norm(beta)) > TOL.psd * lin_scale

    def _square_rows(indices):
        s = np.sqrt(np.abs(lam[indices]))
        return s[:, None] * V[:, indices].T, s * btil[indices] / (2.0 * lam[indices])

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
        rows, offs = _square_rows(idx_nz)
        # remaining flat directions orthogonal to the linear functional, which
        # lies in the zero space: beta is nonzero only when that space is
        Z = V[:, idx_z]
        _, _, Vt = np.linalg.svd((Z.T @ beta)[None, :])
        W = Z @ Vt[1:].T
        T = np.vstack([sign * beta, rows, W.T])
        t = np.concatenate([[sign * chat], offs, np.zeros(W.shape[1])])
        cls = QuadricClassification("parabolic", q, 0.0, AffineMap(T, t), sign,
                                    q >= 2)
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
        pos = sign * lam[idx_nz] > 0  # every direction of an ellipsoid
        rows, offs = _square_rows(np.concatenate([idx_nz[pos], idx_nz[~pos]]))
        T = np.vstack([rows, V[:, idx_z].T])
        t = np.concatenate([offs, np.zeros(idx_z.size)])
        d = sign * chat
        admissible = kind == "cone" and abs(d) <= TOL.psd * (1 + abs(chat))
        if admissible:
            d = 0.0
        cls = QuadricClassification(kind, q, float(d), AffineMap(T, t), sign,
                                    admissible)

    _verify_classification(cls, phi)
    return cls


def _canonical_form(kind: str, p: int, q: int, d: float = 0.0) -> QuadraticForm:
    """The canonical polynomial of kind, q and d as a quadratic form in p
    variables."""
    diag, b = np.zeros(p), np.zeros(p)
    diag[:q] = 1.0 if kind == "ellipsoid" else -1.0
    if kind == "parabolic":
        diag[0], b[0] = 0.0, 1.0
    elif kind == "cone":
        diag[0] = 1.0
    return QuadraticForm(np.diag(diag), b, d)


def _canonical_kind(phi: QuadraticForm) -> tuple[str, int] | None:
    """(kind, q) when phi is exactly the parabolic form x_1 - sum_{i=2}^q x_i^2
    or the cone form x_1^2 - sum_{i=2}^q x_i^2, else None (q = 1 included)."""
    kind = "cone" if phi.A[0, 0] > 0.5 else "parabolic"
    q = 1 + int(np.sum(np.diagonal(phi.A)[1:] < -0.5))
    form = _canonical_form(kind, phi.dim, q)
    resid = _coefficient_residual((phi.A, phi.b, phi.c), (form.A, form.b, form.c))
    return (kind, q) if resid <= TOL.feasibility else None


def _verify_classification(cls: QuadricClassification, phi: QuadraticForm) -> None:
    """sign * Phi(T^-1 (y - t)) must equal the canonical form coefficient by
    coefficient, to TOL.feasibility times Phi's coefficient scale."""
    image = QuadraticSpace(phi).transformed(cls.map).form
    form = cls.canonical_form()
    resid = _coefficient_residual(
        (cls.sign * image.A, cls.sign * image.b, cls.sign * image.c),
        (form.A, form.b, form.c))
    if resid > TOL.feasibility * _coefficient_scale(phi.c, phi.b, phi.A):
        raise NumericalFailureError(
            f"canonical transform residual {resid:.3e} out of tolerance")


@dataclass(frozen=True)
class QuadricFrame:
    """A quadric model in the coordinates y = L x + ell of its canonical
    quadric, the ``map``, with the verdict of its one structure fit: the
    decomposition of theta, or None and the ``refutation`` with its
    ``margin``, if any.  Only a quadric of an admissible kind is fitted."""

    classification: QuadricClassification
    model: ModelSpec
    structure: ParabolicDecomposition | ConicalDecomposition | None
    refutation: AffinvarError | None
    map: AffineMap

    def gates(self, closed_forms: bool = True):
        """The frame's refusals in their one order, up to the first gate that
        fails, as (check, error) pairs: the check that `validate` reports
        and the error that `fitted` and `normalized` raise instead, None for
        a pass.  The kind and the structure fit are reported when they pass
        too, the other gates only when they fail.  Without ``closed_forms``
        the list ends at the structure fit: `fitted` reads no more."""
        cls, dec = self.classification, self.structure
        kind = Check("quadric-admissible-kind", cls.admissible,
                     info=f"{cls.kind}(q={cls.q}, d={cls.d})")
        if not cls.admissible:
            yield kind, NotAdmissibleError(
                "ellipsoid-type quadrics carry no affine diffusion") \
                if cls.kind == "ellipsoid" else NotAdmissibleQuadricError(
                    f"a {cls.kind} quadric with d = {cls.d} bounds no diffusion")
            return
        yield kind, None
        if self.model.state_space.component != "positive":
            yield (Check("state-space-side", False,
                         info="state space is the outside of the quadric"),
                   PreconditionFailedError(
                       "the state space is the outside of the quadric"))
            return
        parabolic = cls.kind == "parabolic"
        if not parabolic and cls.q != self.model.dimension:
            # the refutation is the conical fit's own precondition
            yield (Check("cone-full-dimension", False,
                         info="only p = q conical models are supported"),
                   self.refutation)
            return
        name = "parabolic-structure" if parabolic else "conical-structure"
        if dec is None:
            exc = self.refutation
            yield (Check(name, False, margin=getattr(exc, "margin", None),
                         info=str(exc)), exc)
            return
        yield Check(name, True, margin=dec.c) if parabolic else Check(
            name, True, certificate={"zeta": dec.coeff_zeta,
                                     "rho": dec.coeff_rho.tolist()}), None
        if not closed_forms:
            return
        if parabolic and not dec.carries_root:
            yield (Check("square-root-block-present", False,
                         info="c = 0; diffusion degenerate on the parabola"),
                   PreconditionFailedError(
                       "c = 0: the parabola does not carry the square-root block"))
        elif not parabolic and not dec.normalized:
            yield (Check("cone-zeta-form", False,
                         info="strong-solution route needs theta = zeta"),
                   PreconditionFailedError(
                       "the conical closed forms need theta = zeta"))

    def _refuse(self, closed_forms: bool) -> None:
        for _, error in self.gates(closed_forms):
            if error is not None:
                raise error

    def fitted(self) -> ParabolicDecomposition | ConicalDecomposition:
        """The structure, or the error of the first gate up to its fit that
        fails (`gates`)."""
        self._refuse(closed_forms=False)
        return self.structure

    def normalized(self) -> QuadricFrame:
        """The frame of the paper's closed forms on the inside of the quadric:
        x_1 >= |y|^2 with theta's upper block zeta, one congruence and one
        verifying fit away, or the cone iff theta = zeta already; the error
        of the first gate that fails (`gates`) when there is none."""
        self._refuse(closed_forms=True)
        dec = self.structure
        if self.classification.kind == "cone":
            return self
        S = AffineMap(_normalizing_map(dec), np.zeros(dec.p))
        model = self.model.pushed(S, self.model.state_space)
        return QuadricFrame(self.classification, model,
                            _normal_fit(model.diffusion, dec.q), None,
                            S.compose(self.map))


def canonical_quadric_model(model: ModelSpec) -> QuadricFrame:
    """The one decider of the quadric frame: the model in the canonical
    coordinates y = T x + t, on its side of the quadric ("negative" for the
    outside), and theta's structure fitted once, for an admissible kind;
    only here does a failed fit become a value, the frame's
    ``refutation``."""
    space = model.state_space
    cls = classify_quadric(space.form)
    flipped = (space.component == "positive") != (cls.sign == 1)
    new_space = QuadraticSpace(cls.canonical_form(),
                               "negative" if flipped else "positive",
                               space.closed)
    canon = model.pushed(cls.map, new_space)
    structure, refutation = None, None
    if cls.admissible:
        fit = parabolic_theta_decompose if cls.kind == "parabolic" else \
            conical_theta_decompose
        try:
            structure = fit(canon.diffusion, cls.q)
        except (NotAdmissibleError, PreconditionFailedError) as exc:
            refutation = exc
    return QuadricFrame(cls, canon, structure, refutation, cls.map)


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
    A[0, 0, 0] = 4.0
    A[range(1, q), 0, range(1, q)] = A[range(1, q), range(1, q), 0] = 2.0
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
    pairs, idx = eta_pairs(q), np.arange(1, q)
    F0 = np.zeros((q + len(pairs), q))
    F = np.zeros((q + len(pairs), q, p))
    F[0, 0, 0] = 4.0
    F[0, idx, idx] = F[idx, 0, idx] = 2.0
    F0[idx, idx] = 1.0
    for col, (i, j) in enumerate(pairs, q):
        F[col, i, j], F[col, j, i] = 1.0, -1.0
    return [AffineColumn(*col) for col in zip(F0, F)]


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

    @property
    def carries_root(self) -> bool:
        """c > 0: theta has the square-root block that normalization needs."""
        return self.c > TOL.lam_clip


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
        exc = NegativeCError(f"upper-left multiple c = {c:.3e} is negative")
        exc.margin = c
        raise exc
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
    if resid > TOL.feasibility * scale:
        exc = NotAdmissibleError(f"theta violates the necessary parabolic "
                                 f"structure (residual {resid:.3e})")
        exc.margin = -resid
        raise exc
    B = AffineMatrixField(theta.A0[q:, q:], theta.A[:, q:, q:])
    return ParabolicDecomposition(c, A1, A2, B, q, p)


def normalize_parabolic(theta: AffineMatrixField, q: int):
    """Rescale and shear coordinates so the decomposition has c = 1, A1 = 0.

    Returns (transform S, transformed theta, transformed decomposition); the
    state-space parabola {x_1 >= y^T y} is preserved by the transform.  One
    congruence applies S (``_normalizing_map``), one more fit verifies it.
    """
    S = _normalizing_map(parabolic_theta_decompose(theta, q))
    theta_n = theta.congruence(AffineMap(S, np.zeros(theta.size)))
    return S, theta_n, _normal_fit(theta_n, q)


def _normalizing_map(dec: ParabolicDecomposition) -> np.ndarray:
    """S, read off one fit.  With D = diag(1/c, Id / sqrt(c)) the scaling
    y_Q = D x_Q takes c zeta to zeta and A1 to D^-1 A1 / c, and the shear
    y_R = x_R - (D^-1 A1 / c)^T y_Q = x_R - A1^T x_Q / c then removes it:
    S = [[D, 0], [-A1^T / c, Id]]."""
    if not dec.carries_root:
        raise PreconditionFailedError(
            "c = 0: the parabola does not carry the square-root block")
    c, q = dec.c, dec.q
    S = np.eye(dec.p)
    S[0, 0] = 1.0 / c
    S[np.arange(1, q), np.arange(1, q)] = 1.0 / np.sqrt(c)
    S[q:, :q] = -dec.A1.T / c
    return S


def _normal_fit(theta_n: AffineMatrixField, q: int) -> ParabolicDecomposition:
    """The fit of a normalized theta, verified to have c = 1 and A1 = 0."""
    dec_n = parabolic_theta_decompose(theta_n, q)
    if not dec_n.normalized:
        raise NumericalFailureError("normalization did not reach c=1, A1=0")
    return dec_n


def check_parabolic_psd_condition(dec: ParabolicDecomposition,
                                  samples: np.ndarray) -> tuple[bool, bool]:
    """The residual-block condition B(x) - A2^T eta(x)^T eta(x) A2 >= 0.

    Returns (passed, structural): structural means B matches the closed form
    (q-2) x_1 A2^T A2 at coefficient level, which implies the condition on the
    whole parabola; otherwise the condition is checked pointwise at the given
    state-space samples (`core._psd_margins`).
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
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    eta = eta_matrix(x[:, :q], q)
    R = dec.B(x) - np.einsum("er,nqe,nqf,fs->nrs", dec.A2, eta, eta, dec.A2)
    w = np.linalg.eigvalsh(_symmetric_part(R))
    return bool(np.all(_psd_margins(w) >= -TOL.psd)), False


def parabolic_square_root(dec: ParabolicDecomposition):
    """sigma(x) = [[xi(x), 0], [A2^T eta(x)^T, rho(x)]] with
    xi = [[2 sqrt|x_1 - y.y|, 2 y^T], [0, Id]] and rho a root of the residual
    block (``psd_factor``); sigma sigma^T = theta on the parabola.
    ``sigma.apply(x, z)`` is sigma(x) z for columns: x and z are (p, N), one
    path per column, and so is the result; sigma(x) is not formed there,
    and is read off it (``core._evaluator``)."""
    if not dec.normalized:
        raise NotNormalizedError("decomposition must have c = 1 and A1 = 0")
    q, p = dec.q, dec.p
    r = p - q

    def apply(x, z):
        y, zy = x[1:q], z[1:q]
        out = z.copy()
        # 2 (sqrt|x_1 - y.y| z_1 + y.z_y), one temporary
        t = _coldot(y, y)
        t = np.sqrt(np.abs(np.subtract(x[0], t, out=t), out=t), out=t)
        t *= z[0]
        t += _coldot(y, zy)
        np.multiply(t, 2.0, out=out[0])
        if r:
            eta = eta_matrix(x[:q].T, q)
            resid = dec.B(x.T) - np.einsum("er,nqe,nqf,fs->nrs", dec.A2, eta,
                                           eta, dec.A2)
            rho = psd_factor(np.moveaxis(resid, 0, -1))   # (r, r, N)
            out[q:] = dec.A2.T @ np.einsum("nqe,qn->en", eta, z[:q]) + \
                np.einsum("rsn,sn->rn", rho, z[q:])
        return out

    return _evaluator(apply)


def check_parabolic_drift(drift: AffineVectorField, q: int) -> list[Check]:
    """Drift admissibility on the parabola in canonical coordinates (c = 1).

    Checks the zero pattern of the first q drift rows, positive
    semidefiniteness of a_11 Id - 2 a_QQ, the matching condition on the
    degenerate directions and the closed-state-space lower bound on b_1,
    then the open verdict, ``open-invariance``: every closed condition and
    the open bound on b_1, the stochastic-invariance-of-the-interior
    strengthening, whose margin it carries.  A margin is the negated
    largest residual of a zero condition, the least eigenvalue, or the
    slack of a bound; each check passes iff its margin is at least minus
    its tolerance."""
    a, b = drift.a, drift.b
    scale = _coefficient_scale(a, b)
    tol = TOL.feasibility * scale
    # the zero pattern: a_1R, a_QR and a_Q1 vanish
    pattern = -float(max(np.abs(a[:q, q:]).max(initial=0.0),
                         np.abs(a[1:q, 0]).max(initial=0.0)))

    M = a[0, 0] * np.eye(q - 1) - 2.0 * a[1:q, 1:q]
    d, O = np.linalg.eigh(_symmetric_part(M))
    least = float(d.min(initial=np.inf))
    lin = a[0, 1:q] - 2.0 * b[1:q]
    r = O.T @ lin
    q1 = d > TOL.psd * scale
    match = -float(np.abs(r[~q1]).max(initial=0.0))
    penalty = float(np.sum(r[q1] ** 2 / (4.0 * d[q1]))) if q1.any() else 0.0
    closed_margin = float(b[0] - (q - 1) - penalty)
    open_margin = float(b[0] - (q + 1) - penalty)
    checks = [Check("parabolic-drift-structure", pattern >= -tol,
                    margin=pattern),
              Check("parabolic-drift-psd", least >= -TOL.psd * scale,
                    margin=least),
              Check("parabolic-drift-degenerate-match", match >= -tol,
                    margin=match),
              Check("parabolic-drift-lower-bound", closed_margin >= -tol,
                    margin=closed_margin)]
    return checks + [Check("open-invariance", all(c.passed for c in checks)
                           and open_margin >= -tol, margin=open_margin)]


# ---------------------------------------------------------------------------
# conical basis and decomposition
# ---------------------------------------------------------------------------

def conical_basis(q: int) -> list[AffineMatrixField]:
    """Basis {zeta, rho(1), ..., rho(q-1)} of the symmetric affine matrix
    fields whose columns are annihilated by (x_1, -y^T) on the cone
    {x_1^2 = y^T y}."""
    if q < 2:
        raise PreconditionFailedError(f"need q >= 2, got {q}")
    idx = np.arange(1, q)
    fields = np.zeros((q, q, q, q))  # the coefficient stack A of each field
    fields[0, 0] = np.eye(q)
    fields[0, idx, 0, idx] = fields[0, idx, idx, 0] = 1.0
    for i in range(1, q):
        A = fields[i]
        A[i, idx, idx] = -1.0
        A[idx, i, idx] = A[idx, idx, i] = 1.0   # A[i][i, i] = 1 among them
        A[0, i, 0] = A[0, 0, i] = A[i, 0, 0] = 1.0
    return [AffineMatrixField(np.zeros((q, q)), A) for A in fields]


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
    if resid > TOL.feasibility * _coefficient_scale(target):
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
    column, and so is the result; no q x q arrays are formed, and sigma(x)
    is read off it (``core._evaluator``).
    """

    def sqrt_abs(v):
        return np.sqrt(np.abs(v, out=v), out=v)

    def apply(x, z):
        x1, y = x[0], x[1:q]
        r = np.sqrt(_coldot(y, y))
        # the unit y-direction u; u = 0 where y = 0, and there s+- = s0: the
        # result is s0 z
        u = y / np.where(r > 0, r, 1.0)
        sp, sm, s0 = sqrt_abs(x1 + r), sqrt_abs(x1 - r), np.sqrt(np.abs(x1))
        w = _coldot(u, z[1:])
        # cp, cm = (s+- - s0) / 2 * (z_1 +- w)
        cp = np.subtract(sp, s0, out=sp)
        cp *= 0.5
        cp *= z[0] + w
        cm = np.subtract(sm, s0, out=sm)
        cm *= 0.5
        cm *= z[0] - w
        out = s0 * z
        out[0] += cp + cm
        out[1:] += (cp - cm) * u
        return out

    return _evaluator(apply)


def check_cone_admissibility(drift: AffineVectorField, p: int,
                             q: int) -> list[Check]:
    """Conditions for a strong solution on the open cone with theta = zeta:
    a_1Q = a_Q1^T, a_11 Id - a_QQ PSD, and b_1 - p/2 - |b_Q| >= 0, with the
    margins of `check_parabolic_drift`."""
    a, b = drift.a, drift.b
    scale = _coefficient_scale(a, b)
    tol = TOL.feasibility * scale
    sym = -float(np.abs(a[0, 1:q] - a[1:q, 0]).max(initial=0.0))
    M = a[0, 0] * np.eye(q - 1) - a[1:q, 1:q]
    least = float(np.linalg.eigvalsh(_symmetric_part(M)).min(
        initial=np.inf))
    margin = float(b[0] - 0.5 * p - np.linalg.norm(b[1:q]))
    return [Check("cone-drift-symmetry", sym >= -tol, margin=sym),
            Check("cone-drift-psd", least >= -TOL.psd * scale, margin=least),
            Check("cone-drift-lower-bound", margin >= -tol, margin=margin)]


# ---------------------------------------------------------------------------
# open-set invariance
# ---------------------------------------------------------------------------

def check_open_invariance_general(model: ModelSpec) -> Check:
    """Invariance of the open inside of a quadric model's state space, the
    check ``open-invariance`` with v as its certificate.

    First verifies at coefficient level that grad(Phi) theta = Phi v^T for a
    constant vector v (raising PhiVMismatchError otherwise); then decides
    grad(Phi) (mu - half column-sum correction) >= 0 by the closed-form
    parabolic or conical reduction in the model's normalized frame
    (``QuadricFrame.normalized``, which raises when there is none).  The
    polyhedral counterpart is ``polyhedral.check_open_facet_invariance``.
    """
    if not isinstance(model.state_space, QuadraticSpace):
        raise PreconditionFailedError("the state space must be a quadric")
    phi, theta = model.state_space.form, model.diffusion

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

    frame = canonical_quadric_model(model).normalized()
    q, drift = frame.classification.q, frame.model.drift
    checks = check_parabolic_drift(drift, q) \
        if frame.classification.kind == "parabolic" \
        else check_cone_admissibility(drift, q, q)
    # the open verdict needs every check; the last carries the open bound
    return Check("open-invariance", all(c.passed for c in checks),
                 margin=checks[-1].margin, certificate=v)


# ---------------------------------------------------------------------------
# kernel-dimension diagnostics (the basis lemmas, checked numerically)
# ---------------------------------------------------------------------------

def _nullity(M: np.ndarray) -> int:
    return M.shape[1] - int(np.linalg.matrix_rank(M, tol=TOL.feasibility))


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
