"""Value types for affine drift/diffusion coefficients and state spaces.

Everything here is an immutable container over float64 numpy arrays plus the
handful of evaluations the rest of the package is built on: affine scalars
``gamma.x + delta``, affine vector fields ``a x + b``, affine symmetric-matrix
fields ``A0 + sum_i A_i x_i``, polyhedra ``{gamma x + delta >= 0}`` and
quadric-bounded sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Union

import numpy as np

from .errors import (DimensionMismatchError, NotSymmetricError,
                     PreconditionFailedError)
from .tolerances import TOL


def _asarray(a, ndim: int, name: str) -> np.ndarray:
    """A read-only float copy: freezing the caller's own array would make it
    unwritable for them, and a later write of theirs would reach the value."""
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must have ndim={ndim}, got {arr.ndim}")
    arr.setflags(write=False)
    return arr


def _cached(obj, name: str, key: tuple, compute):
    """compute(), kept in the frozen ``obj``'s ``__dict__`` under ``name``
    for as long as every item of ``key`` (what else it reads: tolerances,
    another value) is the same object it was computed with."""
    memo = obj.__dict__.get(name)
    if memo is None or any(a is not b for a, b in zip(memo[0], key)):
        memo = obj.__dict__[name] = (key, compute())
    return memo[1]


def _symmetric_part(S: np.ndarray) -> np.ndarray:
    """0.5 S + 0.5 S^T of a stack (..., k, k): the bits of (S + S^T)/2 for
    every entry outside the subnormal range, and finite up to the largest
    double, where S + S^T overflows."""
    half = 0.5 * S
    return half + np.swapaxes(half, -1, -2)


def _symmetrized(S: np.ndarray) -> np.ndarray:
    """(S + S^T)/2 of a float stack of square matrices (..., k, k), read-only,
    after checking each matrix's asymmetry against ``TOL.sym_rtol`` times its
    own scale max(1, max|S_ij|); the first matrix out of tolerance is the one
    reported."""
    swapped = np.swapaxes(S, -1, -2)
    asym = np.abs(S - swapped).max(axis=(-2, -1), initial=0.0)
    rtol = TOL.sym_rtol
    # a scale is at least 1, so only an asymmetry above rtol can fail
    if (asym > rtol).any():
        scale = np.maximum(np.abs(S).max(axis=(-2, -1), initial=0.0), 1.0)
        bad = asym > rtol * scale
        if bad.any():
            raise NotSymmetricError(
                f"matrix asymmetry {asym[bad].flat[0]:.3e} exceeds "
                f"{rtol:.1e} relative")
    out = _symmetric_part(S)
    out.setflags(write=False)
    return out


def symmetrize(S) -> np.ndarray:
    """Return the symmetric part (S + S^T)/2 after checking the asymmetry
    is within tolerance.

    Small asymmetry (I/O rounding) is absorbed; anything larger is rejected so
    that modeling errors do not pass silently.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {S.shape}")
    return _symmetrized(S)


def psd_square_root(S) -> np.ndarray:
    """Symmetric square root |S|^(1/2) = V diag(|lam|^(1/2)) V^T.

    For PSD input this is the unique PSD square root; for indefinite input the
    eigenvalues are replaced by their absolute values, which keeps the map
    total and continuous.  Supports batched input of shape (..., p, p).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 2:
        symmetrize(S)  # reject non-symmetric input
    lam, V = np.linalg.eigh(_symmetric_part(S))
    root = np.sqrt(np.abs(lam))
    return (V * root[..., None, :]) @ np.swapaxes(V, -1, -2)


def _coefficient_scale(*coeffs) -> float:
    """1 + the largest magnitude of each coefficient array, added in the
    order given: the scale of coefficient residuals."""
    return sum((float(np.abs(c).max(initial=0.0)) for c in coeffs), 1.0)


def _coefficient_residual(f: tuple, g: tuple) -> float:
    """Largest difference between matching coefficient arrays of f and g,
    e.g. the (constant, linear) coefficients of two affine fields."""
    return max(float(np.abs(a - b).max(initial=0.0))
               for a, b in zip(f, g, strict=True))


def _rowdot(a, b) -> np.ndarray:
    """Row-wise dot products of two (..., k) arrays, as a matrix product:
    much faster than a reduction over a short last axis."""
    return (a * b) @ np.ones(a.shape[-1])


def _coldot(a, b) -> np.ndarray:
    """Column-wise dot products of two (k, ...) arrays, or two lists of k
    vectors (k >= 1), summed left to right over the leading axis: on a
    (k, N) batch each term is a whole contiguous path vector.  For k <= 3
    the bits equal those of ``_rowdot`` on the transposed rows."""
    if len(a) == 0:
        return np.zeros(a.shape[1:])
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


def _contract_first(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k v_k A_k for a vector v and a stack A (k, ...): the product
    ``np.tensordot(v, A, axes=(0, 0))`` forms, one (1, k) x (k, n) ``dot``,
    without its Python set-up."""
    k, tail = A.shape[0], A.shape[1:]
    return np.dot(v.reshape(1, k), A.reshape(k, math.prod(tail))).reshape(tail)


def _cholesky_rows(S: np.ndarray, stop: bool) -> list | None:
    """The rows of the unrolled lower Cholesky factor of S (p, p, ...): row
    i lists the vectors R_i0 .. R_ii, and the zeros above the diagonal are
    not formed.  With ``stop`` the result is None as soon as a pivot is not
    positive, before its square root is taken; a pivot passes when its
    least entry is positive, which a NaN entry, propagated by the minimum,
    makes false.  Without a failing pivot no mask is built, and on finite S
    no floating-point error but overflow is raised."""
    p = S.shape[0]
    rows = [[] for _ in range(p)]
    for j in range(p):
        rj = rows[j]
        # S_ij - (R_i0 R_j0 + R_i1 R_j1 + ...), summed left to right
        d = S[j, j] - _coldot(rj, rj) if j else S[j, j]
        if stop and not np.minimum.reduce(d, axis=None, initial=np.inf) > 0:
            return None
        pivot = np.sqrt(d)
        rj.append(pivot)
        for i in range(j + 1, p):
            ri = rows[i]
            off = S[i, j] - _coldot(ri, rj[:j]) if j else S[i, j]
            ri.append(off / pivot)
    return rows


def _lower(rows: list, shape: tuple) -> np.ndarray:
    """The lower-triangular array of the given shape with rows ``rows``."""
    R = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            R[i, j] = v
    return R


def psd_factor(S) -> np.ndarray:
    """A root R with R R^T = S for PSD S, batch-last: (p, p) or (p, p, ...).

    The lower Cholesky factor, unrolled over the block size so that it is
    elementwise over the batch: each factor depends on its own matrix only,
    and with the batch last every entry is a contiguous vector.  Matrices
    with a pivot that is not positive (singular, indefinite or non-finite)
    take the symmetric root |S|^(1/2) of ``psd_square_root`` instead, and
    only those are passed to it.
    """
    S = np.asarray(S, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        R = _lower(_cholesky_rows(S, stop=False), S.shape)
    # a pivot d is positive exactly where sqrt(d) is
    ok = np.logical_and.reduce([R[j, j] > 0 for j in range(S.shape[0])])
    if not ok.all():
        batch_first = np.moveaxis(R, (0, 1), (-2, -1))     # a view of R
        batch_first[~ok] = psd_square_root(
            np.moveaxis(S, (0, 1), (-2, -1))[~ok])
    return R


def _evaluator(apply):
    """The square-root evaluator of ``apply``, the product sigma(x) z for
    columns x and z (p, N), one path per column, which ``sigma.apply`` is.
    ``sigma(x)`` takes a point (p,) or a stack (..., p) of them and returns
    (p, p) or (..., p, p), read off one ``apply`` call on the unit columns:
    each point repeated p times against the stacked identities, so a matrix
    is p products and has the bits the kernel takes."""
    def sigma(x):
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, x.shape[-1])
        n, p = points.shape
        out = apply(np.repeat(points.T, p, axis=1), np.tile(np.eye(p), n))
        # out[:, i p + j] is column j of the root at point i
        return out.reshape(p, n, p).swapaxes(0, 1).reshape(x.shape + (p,))

    sigma.apply = apply
    return sigma


@dataclass(frozen=True)
class AffineMap:
    """The change of coordinates y = f(x) = L x + ell, L square.

    ``Linv`` is L^-1, computed the first time a pullback needs it and kept,
    so every coefficient transform and ``preimage`` of one map reads one
    inverse; an exactly singular L raises PreconditionFailedError there.
    """

    L: np.ndarray
    ell: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", _asarray(self.L, 2, "L"))
        object.__setattr__(self, "ell", _asarray(self.ell, 1, "ell"))
        if self.L.shape != (self.ell.shape[0],) * 2:
            raise DimensionMismatchError(
                f"map shapes disagree: L {self.L.shape}, ell {self.ell.shape}")

    @cached_property
    def Linv(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.L)
        except np.linalg.LinAlgError as exc:
            raise PreconditionFailedError(
                f"the change of coordinates is singular: {exc}") from exc

    def apply(self, x) -> np.ndarray:
        """f(x), batched over the leading axes of x."""
        return np.asarray(x, dtype=float) @ self.L.T + self.ell

    def preimage(self, y) -> np.ndarray:
        """f^-1(y), batched over the leading axes of y."""
        return (np.asarray(y, dtype=float) - self.ell) @ self.Linv.T

    def compose(self, inner: AffineMap) -> AffineMap:
        """The map x -> self(inner(x)); a zero offset of self is not added,
        so the composite keeps the signs of the zeros of L inner.ell."""
        ell = self.L @ inner.ell
        return AffineMap(self.L @ inner.L, ell + self.ell if self.ell.any()
                         else ell)


@dataclass(frozen=True)
class AffineScalar:
    """Scalar affine functional x -> gamma.x + delta."""

    gamma: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _asarray(self.gamma, 1, "gamma"))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        val = x @ self.gamma + self.delta
        return float(val) if val.ndim == 0 else val

    def coefficients(self) -> np.ndarray:
        """Stacked (gamma, delta) vector, used for coefficient-level identities."""
        return np.concatenate([self.gamma, [self.delta]])


@dataclass(frozen=True)
class AffineVectorField:
    """Vector field x -> a x + b (the drift of an affine SDE)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _asarray(self.a, 2, "a"))
        object.__setattr__(self, "b", _asarray(self.b, 1, "b"))
        if self.a.shape[0] != self.a.shape[1] or self.a.shape[0] != self.b.shape[0]:
            raise DimensionMismatchError(
                f"drift shapes disagree: a {self.a.shape}, b {self.b.shape}")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.a.T + self.b

    def row_functional(self, gamma: np.ndarray) -> AffineScalar:
        """The scalar functional x -> gamma . (a x + b)."""
        gamma = np.asarray(gamma, dtype=float)
        return AffineScalar(gamma @ self.a, float(gamma @ self.b))


@dataclass(frozen=True)
class AffineMatrixField:
    """Symmetric-matrix field x -> A0 + sum_k A_k x_k.

    ``nvars`` (number of variables) and ``size`` (matrix dimension) may differ;
    the diffusion matrix of a p-dimensional model has both equal to p, while
    the lower-right block of a canonical transform is a field of size p-m-n in
    m+n variables.
    """

    A0: np.ndarray
    A: np.ndarray  # shape (nvars, size, size)

    def __post_init__(self):
        A0 = symmetrize(self.A0)
        A = np.array(self.A, dtype=float)
        if A.ndim and not A.shape[0]:
            A = np.zeros((0,) + A0.shape)
            A.setflags(write=False)
        else:
            # the whole stack at once; each matrix is checked at its own scale
            if A.ndim != 3 or A.shape[1] != A.shape[2]:
                raise DimensionMismatchError(
                    f"expected a square matrix, got shape {A.shape[1:]}")
            A = _symmetrized(A)
            if A.shape[1:] != A0.shape:
                raise DimensionMismatchError(
                    f"coefficient shapes disagree: A0 {A0.shape}, A {A.shape}")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A", A)

    @property
    def nvars(self) -> int:
        return self.A.shape[0]

    @property
    def size(self) -> int:
        return self.A0.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != self.nvars:
                raise DimensionMismatchError(
                    f"point has dimension {x.shape[0]}, field has {self.nvars} variables")
            return self.A0 + _contract_first(x, self.A)
        flat = x @ self.A.reshape(self.nvars, self.A0.size)
        return self.A0 + flat.reshape(x.shape[:-1] + self.A0.shape)

    def congruence(self, f: AffineMap) -> "AffineMatrixField":
        """Coefficient-exact congruence y -> L theta(L^-1 (y - ell)) L^T
        under the map f: y = L x + ell.

        Requires nvars == size (a genuine diffusion matrix field).
        """
        if self.nvars != self.size:
            raise DimensionMismatchError("congruence needs nvars == size")
        L, Minv = f.L, f.Linv
        m0 = -Minv @ f.ell
        base = self.A0 + _contract_first(m0, self.A)
        newA0 = L @ base @ L.T
        newA = np.einsum("kj,kab->jab", Minv, self.A)
        newA = np.einsum("ia,jab,kb->jik", L, newA, L)
        return AffineMatrixField(_symmetric_part(newA0),
                                 _symmetric_part(newA))


@dataclass(frozen=True)
class Polyhedron:
    """Intersection of half-spaces {x : gamma x + delta >= 0} (componentwise).

    ``minimal`` (no redundant facet) is not a constructor argument: only
    ``convex.minimalize`` proves it, and ``_minimal`` marks the polyhedra
    that inherit it.
    """

    gamma: np.ndarray  # (q, p)
    delta: np.ndarray  # (q,)
    minimal: bool = field(default=False, init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", _asarray(self.gamma, 2, "gamma"))
        object.__setattr__(self, "delta", _asarray(self.delta, 1, "delta"))
        if self.gamma.shape[0] != self.delta.shape[0]:
            raise DimensionMismatchError(
                f"facet counts disagree: gamma {self.gamma.shape}, delta {self.delta.shape}")

    @property
    def n_facets(self) -> int:
        return self.gamma.shape[0]

    @property
    def dim(self) -> int:
        return self.gamma.shape[1]

    def evaluate(self, x) -> np.ndarray:
        """Facet values u(x) = gamma x + delta; batched over leading axes."""
        x = np.asarray(x, dtype=float)
        return x @ self.gamma.T + self.delta

    def contains(self, x, tol: float | None = None) -> bool | np.ndarray:
        tol = TOL.membership if tol is None else tol
        vals = self.evaluate(x)
        return np.all(vals >= -tol, axis=-1)

    def facet(self, i: int) -> AffineScalar:
        return AffineScalar(self.gamma[i], float(self.delta[i]))

    def transformed(self, f: AffineMap) -> "Polyhedron":
        """The image f(X) = L X + ell, with rows gamma L^-1 and offsets
        delta - gamma L^-1 ell."""
        g = self.gamma @ f.Linv
        d = self.delta - g @ f.ell
        out = Polyhedron(g, d)
        return _minimal(out) if self.minimal else out


def _minimal(poly: Polyhedron) -> Polyhedron:
    """Mark ``poly`` as having no redundant facet and return it.  Only for a
    polyhedron proven minimal, or one whose facets are those of a minimal
    polyhedron in new coordinates, order or positive scale."""
    object.__setattr__(poly, "minimal", True)
    return poly


@dataclass(frozen=True)
class QuadraticForm:
    """Phi(x) = x^T A x + b^T x + c with symmetric nonzero A."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "A", symmetrize(self.A))
        object.__setattr__(self, "b", _asarray(self.b, 1, "b"))
        object.__setattr__(self, "c", float(self.c))
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatchError(
                f"quadric shapes disagree: A {self.A.shape}, b {self.b.shape}")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        val = _rowdot(x @ self.A, x) + x @ self.b + self.c
        return float(val) if val.ndim == 0 else val

    def gradient(self, x) -> np.ndarray:
        """Row gradient 2 x^T A + b^T."""
        x = np.asarray(x, dtype=float)
        return 2.0 * x @ self.A + self.b


@dataclass(frozen=True)
class QuadraticSpace:
    """State space bounded by a quadric: one side of {Phi = 0}.

    ``component`` selects {Phi > 0} ("positive") or {Phi < 0} ("negative");
    ``closed`` includes the boundary.
    """

    form: QuadraticForm
    component: str = "positive"
    closed: bool = True

    def __post_init__(self):
        if self.component not in ("positive", "negative"):
            raise DimensionMismatchError("component must be 'positive' or 'negative'")

    @property
    def dim(self) -> int:
        return self.form.dim

    def transformed(self, f: AffineMap) -> "QuadraticSpace":
        """The image f(X) = L X + ell: Phi(M y + m0) with M = L^-1,
        m0 = -M ell."""
        M = f.Linv
        m0, A = -M @ f.ell, self.form.A
        form = QuadraticForm(M.T @ A @ M, M.T @ (2.0 * A @ m0 + self.form.b),
                             self.form(m0))
        return QuadraticSpace(form, self.component, self.closed)

    def signed_value(self, x) -> float | np.ndarray:
        """Phi with sign flipped so that the state space is {value >= 0}."""
        val = self.form(x)
        return val if self.component == "positive" else -val

    def contains(self, x, tol: float | None = None) -> bool | np.ndarray:
        tol = TOL.membership if tol is None else tol
        val = self.signed_value(x)
        if self.closed:
            return np.asarray(val >= -tol)
        return np.asarray(val > -tol)


StateSpace = Union[Polyhedron, QuadraticSpace]


@dataclass(frozen=True)
class ModelSpec:
    """An affine SDE model: drift mu = a x + b, diffusion theta = A0 + sum A_i x_i,
    and a polyhedral or quadric-bounded state space, all of one dimension."""

    dimension: int
    drift: AffineVectorField
    diffusion: AffineMatrixField
    state_space: StateSpace

    def __post_init__(self):
        p = self.dimension
        if self.drift.dim != p:
            raise DimensionMismatchError(f"drift dimension {self.drift.dim} != {p}")
        if self.diffusion.nvars != p or self.diffusion.size != p:
            raise DimensionMismatchError(
                f"diffusion has {self.diffusion.nvars} vars / size {self.diffusion.size}, want {p}")
        if self.state_space.dim != p:
            raise DimensionMismatchError(
                f"state space dimension {self.state_space.dim} != {p}")

    def pushed(self, f: AffineMap, space: StateSpace) -> ModelSpec:
        """The model of y = f(x) = L x + ell on the image state space
        ``space``: drift L a L^-1 y + (L b - L a L^-1 ell), diffusion by
        congruence."""
        a = f.L @ self.drift.a @ f.Linv
        b = f.L @ self.drift.b - a @ f.ell
        return ModelSpec(self.dimension, AffineVectorField(a, b),
                         self.diffusion.congruence(f), space)


def change_model_coordinates(model: ModelSpec, L: np.ndarray, ell: np.ndarray,
                             new_space: StateSpace) -> ModelSpec:
    """``model.pushed`` through the map y = L x + ell."""
    return model.pushed(AffineMap(L, ell), new_space)


def _psd_margins(w: np.ndarray) -> np.ndarray:
    """Each row's least over 1 + |max| + |least| of ascending eigenvalues w
    (..., k), the margin a PSD test passes at >= -TOL.psd, as 0.5 w_min /
    (0.5 + |0.5 w_max| + |0.5 w_min|): the plain quotient's bits outside the
    subnormal range (halving is exact), and finite up to the largest double."""
    half = 0.5 * w
    least = half[..., 0]
    return least / (0.5 + np.abs(half[..., -1]) + np.abs(least))


def spot_check_psd(model: ModelSpec, points: np.ndarray) -> tuple[bool, float]:
    """Check theta(x) is PSD at each sample point (the X in D containment).

    Returns (all_pass, worst relative min-eigenvalue margin).  theta is
    evaluated at all points in one stacked product, a (1, k) x (k, p^2)
    product per point: the bits of the point-by-point evaluation, which the
    2-D product of the points with the coefficients does not keep (it sums
    in another order).  The eigenvalues come from one stacked ``eigvalsh``.
    """
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    if not pts.shape[0]:
        return True, np.inf
    theta = model.diffusion
    k, p = theta.nvars, theta.size
    if pts.shape[1] != k:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, field has {k} variables")
    S = theta.A0 + (pts[:, None, :] @ theta.A.reshape(k, p * p)).reshape(
        -1, p, p)
    w = np.linalg.eigvalsh(_symmetric_part(S))
    # a running Python min from inf: NaN margins are skipped, ties keep the first
    worst = min([np.inf] + _psd_margins(w).tolist())
    return worst >= -TOL.psd, worst


def jsonable(x):
    """x as a JSON value: a value with ``to_dict`` as its dict, numpy arrays
    and scalars as lists and numbers, anything else as it is."""
    if hasattr(x, "to_dict"):
        return x.to_dict()
    return x.tolist() if isinstance(x, (np.ndarray, np.generic)) else x


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def to_json(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=jsonable)``, the
    same string, without the pure-Python encoder that ``indent`` selects.
    A list of floats is joined through ``float.__repr__`` in one call, NaN
    and +-inf are spelled NaN, Infinity and -Infinity, strings go through
    ``encode_basestring_ascii``, tuples are lists, and anything else is
    written as its `jsonable` value.  ``nl`` is the newline and indent of
    obj's own level.  Unlike json, dict keys must be strings (a TypeError
    otherwise), and there is no check for circular references."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            text = sep.join(map(float.__repr__, obj))
            if "n" in text:  # only nan and inf spell an n
                text = sep.join(map(_float, obj))
        except TypeError:  # not all floats
            text = sep.join([to_json(v, inner) for v in obj])
        return "[" + inner + text + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([
            encode_basestring_ascii(k) + ": " + to_json(v, inner)
            for k, v in sorted(obj.items())]) + nl + "}"
    value = jsonable(obj)
    if value is obj:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")
    return to_json(value, nl)


@dataclass(frozen=True)
class Check:
    """The verdict of one named check and what its decider found, each part
    optional: a ``margin``, a ``certificate`` of a pass, a ``witness`` point
    of a failure and an ``info`` string."""

    name: str
    passed: bool
    margin: float | None = None
    certificate: object = None
    witness: np.ndarray | None = None
    info: str | None = None

    def to_dict(self) -> dict:
        """The report entry (schema 1): the name, the verdict and the parts
        that are set, as JSON values."""
        entry = {"name": self.name, "passed": bool(self.passed)}
        for key in ("margin", "certificate", "witness", "info"):
            value = getattr(self, key)
            if value is not None:
                entry[key] = jsonable(value)
        return entry
