import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinvar.core import (AffineMap, AffineMatrixField, AffineVectorField,
                           ModelSpec, Polyhedron, QuadraticForm,
                           QuadraticSpace)
from affinvar.errors import (NotAdmissibleError, NotAdmissibleQuadricError,
                             NotInSpanError, NotNormalizedError,
                             NumericalFailureError, PreconditionFailedError,
                             ZeroQuadraticPartError)
from affinvar.modelio import load_fixture
from affinvar.quadratic import (_verify_classification,
                                canonical_quadric_model,
                                check_cone_admissibility,
                                check_open_invariance_general,
                                check_parabolic_drift,
                                check_parabolic_psd_condition, classify_quadric,
                                cone_square_root, conical_basis,
                                conical_theta_decompose, eta_matrix,
                                normalize_parabolic, parabolic_basis,
                                parabolic_square_root,
                                parabolic_theta_decompose, zeta_parabolic)
from conftest import (_row_field_coefficients, conical_space_dimension,
                      excluded_quadric_forces_zero, parabolic_kernel_dimension,
                      phi_v_fit, random_affine_image, random_affine_map)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_parabolic_identity():
    phi = QuadraticForm(np.diag([0.0, -1.0]), np.array([1.0, 0.0]), 0.0)
    cls = classify_quadric(phi)
    assert cls.kind == "parabolic" and cls.q == 2 and cls.admissible
    assert np.allclose(cls.T, np.eye(2)) and np.allclose(cls.t, 0)


def test_classify_cone():
    phi = QuadraticForm(np.diag([1.0, -1.0, -1.0]), np.zeros(3), 0.0)
    cls = classify_quadric(phi)
    assert cls.kind == "cone" and cls.q == 3 and cls.d == 0.0 and cls.admissible


def test_classify_rotated_parabolic():
    # Phi = (x1 + x2) - (x1 - x2)^2
    A = -np.array([[1.0, -1.0], [-1.0, 1.0]])
    phi = QuadraticForm(A, np.array([1.0, 1.0]), 0.0)
    cls = classify_quadric(phi)
    assert cls.kind == "parabolic" and cls.q == 2
    rng = np.random.default_rng(0)
    Tinv = np.linalg.inv(cls.T)
    for _ in range(50):
        y = rng.standard_normal(2)
        x = Tinv @ (y - cls.t)
        assert abs(cls.sign * phi(x) - cls.canonical_form()(y)) <= 1e-8 * (1 + y @ y)


def test_classify_ellipsoid_and_excluded_kinds():
    ball = classify_quadric(QuadraticForm(np.eye(2), np.zeros(2), -1.0))
    assert ball.kind == "ellipsoid" and not ball.admissible
    hyper = classify_quadric(QuadraticForm(np.diag([1.0, -1.0]), np.zeros(2), 2.0))
    assert hyper.kind == "cone" and hyper.d != 0.0 and not hyper.admissible


def test_classify_sign_flip():
    # -Phi for a ball: all-negative signature is still an ellipsoid kind
    cls = classify_quadric(QuadraticForm(-np.eye(3), np.zeros(3), 1.0))
    assert cls.kind == "ellipsoid" and cls.sign == -1


def test_classify_errors():
    with pytest.raises(ZeroQuadraticPartError):
        classify_quadric(QuadraticForm(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0))
    with pytest.raises(NotAdmissibleQuadricError):
        classify_quadric(QuadraticForm(np.diag([1.0, 1.0, -1.0, -1.0]),
                                       np.zeros(4), 1.0))


KINDS = ("parabolic", "cone", "ellipsoid")


def _random_canonical_quadric(rng, kind: str, p: int, q: int) -> QuadraticForm:
    """A diagonal quadric of the given kind in q squares, random weights."""
    D = np.zeros(p)
    b = np.zeros(p)
    if kind == "parabolic":
        D[1:q] = -np.exp(rng.standard_normal(q - 1))
        b[0] = np.exp(rng.standard_normal())
    elif kind == "cone":
        D[0] = np.exp(rng.standard_normal())
        D[1:q] = -np.exp(rng.standard_normal(q - 1))
    else:
        D[:q] = np.exp(rng.standard_normal(q))
    return QuadraticForm(np.diag(D), b, rng.standard_normal())


def _push_forward(phi0: QuadraticForm, M: np.ndarray, s: np.ndarray) -> QuadraticForm:
    """x -> phi0(M x + s) as a quadratic form."""
    A = M.T @ phi0.A @ M
    b = M.T @ (2 * phi0.A @ s + phi0.b)
    c = float(s @ phi0.A @ s + phi0.b @ s + phi0.c)
    return QuadraticForm(A, b, c)


def test_classify_round_trip_random(rng):
    kinds = {"parabolic": 0, "cone": 0, "ellipsoid": 0}
    for _ in range(60):
        p = int(rng.integers(2, 5))
        kind = KINDS[rng.integers(0, 3)]
        q = int(rng.integers(2, p + 1))
        phi0 = _random_canonical_quadric(rng, kind, p, q)
        # push through a random affine map
        M = rng.standard_normal((p, p)) + 2 * np.eye(p)
        s = rng.standard_normal(p)
        phi = _push_forward(phi0, M, s)
        cls = classify_quadric(phi)
        kinds[cls.kind] += 1
        Tinv = np.linalg.inv(cls.T)
        for _ in range(10):
            y = rng.standard_normal(p)
            x = Tinv @ (y - cls.t)
            resid = abs(cls.sign * phi(x) - cls.canonical_form()(y))
            assert resid <= 1e-7 * (1 + abs(phi(x)) + y @ y)
    assert min(kinds.values()) > 0


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), p=st.integers(2, 5), data=st.data(),
       apex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_classification_invariant_under_affine_images(kind, p, data, apex, seed):
    q = data.draw(st.integers(2, p), label="q")
    rng = np.random.default_rng(seed)
    phi0 = _random_canonical_quadric(rng, kind, p, q)
    if apex:  # through the origin: the admissible cone and a point ellipsoid
        phi0 = QuadraticForm(phi0.A, phi0.b, 0.0)
    image = _push_forward(phi0, *random_affine_map(rng, p))
    admissible = kind == "parabolic" or (kind == "cone" and apex)
    for phi in (phi0, image):
        cls = classify_quadric(phi)  # raises NumericalFailureError if unverified
        assert (cls.kind, cls.q, cls.admissible) == (kind, q, admissible)


@pytest.mark.parametrize("phi", [
    QuadraticForm(-np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 1.0]), 0.0),
    QuadraticForm(np.array([[1.0, 0.3, 0.0], [0.3, -1.0, 0.2], [0.0, 0.2, -2.0]]),
                  np.array([0.5, -1.0, 0.0]), 0.4),
    QuadraticForm(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), -1.0),
], ids=["parabola", "cone", "ellipsoid"])
def test_classification_check_rejects_a_wrong_transform(phi):
    cls = classify_quadric(phi)
    _verify_classification(cls, phi)
    bad = [dataclasses.replace(cls, map=AffineMap(cls.T, cls.t + 1e-3))]
    for row in range(cls.q):  # the rows that carry the canonical polynomial
        T = cls.T.copy()
        T[row] *= 1.01
        bad.append(dataclasses.replace(cls, map=AffineMap(T, cls.t)))
    for wrong in bad:
        with pytest.raises(NumericalFailureError):
            _verify_classification(wrong, phi)


def test_row_field_coefficients_match_pointwise_products(rng):
    """The operator's coefficient vectors, evaluated through the monomials,
    reproduce r(x)^T M(x) computed pointwise."""
    for p in (1, 2, 3, 5):
        iu, ju = np.triu_indices(p, k=1)
        S = rng.standard_normal((p, p))
        phi = QuadraticForm(S + S.T, rng.standard_normal(p), rng.standard_normal())
        S0, Sk = rng.standard_normal((p, p)), rng.standard_normal((p, p, p))
        theta = AffineMatrixField(S0 + S0.T, Sk + np.swapaxes(Sk, 1, 2))
        coeffs = _row_field_coefficients(phi.b, 2.0 * phi.A, theta.A0, theta.A)
        # a batch of rectangular fields against a row of another length
        c, L = rng.standard_normal(3), rng.standard_normal((3, p))
        F0, F = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, p, 3, 4))
        stacked = _row_field_coefficients(c, L, F0, F)
        assert coeffs.shape == (p, 1 + p + p * (p + 1) // 2)
        assert stacked.shape == (2, 4) + coeffs.shape[1:]
        for _ in range(5):
            x = 2.0 * rng.standard_normal(p)
            mono = np.concatenate([[1.0], x, x ** 2, x[iu] * x[ju]])
            terms = np.abs(coeffs) @ np.abs(mono)
            assert np.all(np.abs(coeffs @ mono - phi.gradient(x) @ theta(x))
                          <= 1e-12 * terms)
            for field in range(2):
                expected = (c + L @ x) @ (F0[field] + np.tensordot(x, F[field], 1))
                terms = np.abs(stacked[field]) @ np.abs(mono)
                assert np.all(np.abs(stacked[field] @ mono - expected)
                              <= 1e-12 * terms)


# ---------------------------------------------------------------------------
# cancellation lemma
# ---------------------------------------------------------------------------

def test_theta_zero_lemma_nullspace_dimension():
    for p in range(2, 6):
        assert excluded_quadric_forces_zero(p, -1.0)
        assert excluded_quadric_forces_zero(p, 2.5)


# ---------------------------------------------------------------------------
# parabolic basis and decomposition
# ---------------------------------------------------------------------------

def test_parabolic_basis_sizes():
    assert len(parabolic_basis(2, 2)) == 2
    assert len(parabolic_basis(4, 4)) == 7


def test_parabolic_basis_annihilation(rng):
    for q in (2, 3, 4, 5):
        cols = parabolic_basis(q + 1, q)
        for _ in range(100):
            y = rng.standard_normal(q - 1)
            x = np.concatenate([[y @ y], y, rng.standard_normal(1)])
            row = np.concatenate([[1.0], -2 * y])
            for col in cols:
                assert abs(row @ col(x)) <= 1e-12 * (1 + y @ y)


def test_parabolic_basis_linear_independence():
    for q in (2, 3, 4):
        cols = parabolic_basis(q, q)
        M = np.stack([c.coefficients() for c in cols])
        assert np.linalg.matrix_rank(M) == len(cols)


def test_parabolic_kernel_dimensions():
    for q in range(2, 7):
        assert parabolic_kernel_dimension(q, q) == q + (q - 1) * (q - 2) // 2


def test_zeta_eta_identity(rng):
    # zeta(x) eta(x) = eta(x) for all x, and likewise for the square-root
    # factor xi(x) on the state space
    for q in (3, 4, 5):
        zeta = zeta_parabolic(q, q)
        for _ in range(20):
            x = rng.standard_normal(q)
            eta = eta_matrix(x, q)
            assert np.abs(zeta(x) @ eta - eta).max() <= 1e-12 * (1 + x @ x)
            y = x[1:]
            xi = np.zeros((q, q))
            xi[0, 0] = 2 * np.sqrt(abs(x[0] - y @ y))
            xi[0, 1:] = 2 * y
            xi[1:, 1:] = np.eye(q - 1)
            assert np.abs(xi @ eta - eta).max() <= 1e-12 * (1 + x @ x)


def test_parabolic_decompose_exact_zeta():
    z = zeta_parabolic(2, 2)
    dec = parabolic_theta_decompose(z, 2)
    assert dec.c == pytest.approx(1.0)
    assert dec.A1.size == 0 and dec.A2.size == 0
    z3 = AffineMatrixField(3 * z.A0, 3 * z.A)
    assert parabolic_theta_decompose(z3, 2).c == pytest.approx(3.0)


def test_parabolic_decompose_round_trip(rng):
    p, q = 4, 3
    z = zeta_parabolic(p, q)
    pairs = (q - 1) * (q - 2) // 2
    A1 = rng.standard_normal((q, p - q))
    A2 = rng.standard_normal((pairs, p - q))
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    A0[:q, :q] = z.A0
    for k in range(p):
        A[k][:q, :q] = z.A[k]
    # off block zeta(x) A1 + eta(x) A2 assembled coefficientwise
    offs0 = z.A0 @ A1  # eta(0) = 0
    A0[:q, q:] = offs0
    A0[q:, :q] = offs0.T
    for k in range(p):
        contrib = z.A[k] @ A1
        if 1 <= k < q:
            Fk = np.zeros((q, pairs))
            for col, (i, j) in enumerate(
                    [(i, j) for i in range(1, q - 1) for j in range(i + 1, q)]):
                if k == j:
                    Fk[i, col] = 1.0
                if k == i:
                    Fk[j, col] = -1.0
            contrib = contrib + Fk @ A2
        A[k][:q, q:] = contrib
        A[k][q:, :q] = contrib.T
    B0 = np.eye(p - q) * 5.0
    A0[q:, q:] = B0
    theta = AffineMatrixField(A0, A)
    dec = parabolic_theta_decompose(theta, q)
    assert np.abs(dec.A1 - A1).max() <= 1e-9
    assert np.abs(dec.A2 - A2).max() <= 1e-9
    assert dec.c == pytest.approx(1.0)


def test_parabolic_decompose_rejects_wrong_structure():
    theta = AffineMatrixField(np.eye(3), np.zeros((3, 3, 3)))
    from affinvar.errors import NotAdmissibleError
    with pytest.raises(NotAdmissibleError):
        parabolic_theta_decompose(theta, 2)


# ---------------------------------------------------------------------------
# PSD condition and square root
# ---------------------------------------------------------------------------

def test_psd_condition_trivial_and_structural(rng):
    z = zeta_parabolic(2, 2)
    dec = parabolic_theta_decompose(z, 2)
    ok, structural = check_parabolic_psd_condition(dec, np.zeros((1, 2)))
    assert ok and structural

    # q = 3, B = (q-2) x_1 A2^T A2 for random A2: structural
    p, q = 4, 3
    A2 = rng.standard_normal((1, 1))
    z = zeta_parabolic(p, q)
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    A0[:q, :q] = z.A0
    for k in range(p):
        A[k][:q, :q] = z.A[k]
    # off block eta(x) A2 only
    for k in range(1, q):
        Fmat = np.zeros((q, 1))
        if k == 2:
            Fmat[1, 0] = 1.0
        if k == 1:
            Fmat[2, 0] = -1.0
        A[k][:q, q:] = Fmat @ A2
        A[k][q:, :q] = (Fmat @ A2).T
    A[0][q:, q:] = (q - 2) * A2.T @ A2
    theta = AffineMatrixField(A0, A)
    dec = parabolic_theta_decompose(theta, q)
    assert dec.normalized
    ok, structural = check_parabolic_psd_condition(dec, np.zeros((1, p)))
    assert ok and structural


def test_psd_condition_negative_block():
    p, q = 3, 2
    z = zeta_parabolic(p, q)
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    A0[:q, :q] = z.A0
    for k in range(p):
        A[k][:q, :q] = z.A[k]
    A0[q:, q:] = -np.eye(1)  # B = -1: never PSD
    theta = AffineMatrixField(A0, A)
    dec = parabolic_theta_decompose(theta, q)
    x = np.array([1.0, 0.0, 0.0])
    ok, structural = check_parabolic_psd_condition(dec, x[None])
    assert not ok and not structural


def test_psd_condition_requires_normalization():
    z = zeta_parabolic(2, 2)
    dec = parabolic_theta_decompose(AffineMatrixField(2 * z.A0, 2 * z.A), 2)
    with pytest.raises(NotNormalizedError):
        check_parabolic_psd_condition(dec, np.zeros((1, 2)))


def test_parabolic_square_root_examples():
    z = zeta_parabolic(2, 2)
    dec = parabolic_theta_decompose(z, 2)
    sigma = parabolic_square_root(dec)
    S = sigma(np.array([1.0, 0.0]))
    assert np.allclose(S, [[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(S @ S.T, z(np.array([1.0, 0.0])))
    # boundary x_1 = y^T y: upper-left entry vanishes
    Sb = sigma(np.array([0.25, 0.5]))
    assert Sb[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_normalize_parabolic():
    p, q = 3, 2
    z = zeta_parabolic(p, q)
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    A0[:q, :q] = 2.5 * z.A0
    for k in range(p):
        A[k][:q, :q] = 2.5 * z.A[k]
    # off block 2.5 zeta(x) A1 for a nonzero A1, plus a constant lower block
    A1 = np.array([[0.4], [-0.3]])
    off0 = 2.5 * z.A0 @ A1
    A0[:q, q:] = off0
    A0[q:, :q] = off0.T
    for k in range(p):
        offk = 2.5 * z.A[k] @ A1
        A[k][:q, q:] = offk
        A[k][q:, :q] = offk.T
    A0[q:, q:] = 4.0 * np.eye(1)
    theta = AffineMatrixField(A0, A)
    assert parabolic_theta_decompose(theta, q).c == pytest.approx(2.5)
    S, theta_n, dec_n = normalize_parabolic(theta, q)
    assert dec_n.normalized
    assert abs(np.linalg.det(S)) > 0


def _parabolic_theta(rng, p, q, c):
    """theta = [[c zeta, c zeta A1 + eta A2], [., B]] for random A1, A2 and a
    constant positive definite B."""
    r = p - q
    z = zeta_parabolic(p, q)
    E = np.stack([eta_matrix(np.eye(q)[k], q) for k in range(q)])
    A1 = rng.standard_normal((q, r))
    A2 = rng.standard_normal((E.shape[-1], r))
    A0, A = np.zeros((p, p)), np.zeros((p, p, p))
    A0[:q, :q], A[:, :q, :q] = c * z.A0, c * z.A
    A0[:q, q:] = c * z.A0 @ A1
    A[:, :q, q:] = c * z.A @ A1
    A[:q, :q, q:] += E @ A2
    A0[q:, :q], A[:, q:, :q] = A0[:q, q:].T, np.swapaxes(A[:, :q, q:], 1, 2)
    G = rng.standard_normal((r, r))
    A0[q:, q:] = G @ G.T + np.eye(r)
    return AffineMatrixField(A0, A)


def _three_fit_normalization(theta, q):
    """The normalization by three fits: rescale by the first fit's c, fit
    again, shear off that fit's A1 (the reference for the closed form)."""
    p = theta.size
    c = parabolic_theta_decompose(theta, q).c
    S = np.eye(p)
    S[0, 0] = 1.0 / c
    for k in range(1, q):
        S[k, k] = 1.0 / np.sqrt(c)
    S2 = np.eye(p)
    S2[q:, :q] = -parabolic_theta_decompose(
        theta.congruence(AffineMap(S, np.zeros(p))), q).A1.T
    return S2 @ S


@settings(max_examples=40, deadline=None)
@given(pq=st.sampled_from([(3, 2), (5, 3), (6, 4), (4, 4), (4, 2)]),
       c=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_normalize_parabolic_matches_three_fit_reference(pq, c, seed):
    p, q = pq
    theta = _parabolic_theta(np.random.default_rng(seed), p, q, c)
    S, theta_n, dec_n = normalize_parabolic(theta, q)
    ref = _three_fit_normalization(theta, q)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()
    assert dec_n.normalized
    n = theta.congruence(AffineMap(S, np.zeros(p)))
    assert np.array_equal(theta_n.A0, n.A0) and np.array_equal(theta_n.A, n.A)


# ---------------------------------------------------------------------------
# parabolic drift admissibility
# ---------------------------------------------------------------------------

def _checks(checks) -> dict:
    return {c.name: c for c in checks}


def test_parabolic_drift_zero_a():
    rep = _checks(check_parabolic_drift(
        AffineVectorField(np.zeros((2, 2)), np.array([1.0, 0.0])), 2))
    assert rep["parabolic-drift-structure"].passed
    assert rep["parabolic-drift-psd"].passed
    assert rep["parabolic-drift-degenerate-match"].passed
    closed = rep["parabolic-drift-lower-bound"]
    assert closed.passed and closed.margin == pytest.approx(0.0)
    # every closed condition holds, so the open bound alone fails the verdict
    open_ = rep["open-invariance"]
    assert not open_.passed and open_.margin == pytest.approx(-2.0)


def test_parabolic_drift_penalty_formula():
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    b = np.array([2.0, 1.0])
    closed = _checks(check_parabolic_drift(AffineVectorField(a, b), 2))[
        "parabolic-drift-lower-bound"]
    # d = 2 - 2*0.5 = 1, penalty = (0 - 2*1)^2 / (4*1) = 1, bound = 1 + 1 = 2
    assert closed.passed and closed.margin == pytest.approx(0.0)


def test_parabolic_drift_structure_violation():
    a = np.zeros((3, 3))
    a[1, 0] = 1.0  # a_Q1 must vanish
    rep = _checks(check_parabolic_drift(
        AffineVectorField(a, np.array([5.0, 0, 0])), 2))
    # the margin is the negated largest entry off the zero pattern
    assert not rep["parabolic-drift-structure"].passed
    assert rep["parabolic-drift-structure"].margin == -1.0
    # the open verdict needs every closed condition: b_1 = 5 clears its bound
    assert rep["open-invariance"].margin > 0
    assert not rep["open-invariance"].passed


# ---------------------------------------------------------------------------
# conical basis and decomposition
# ---------------------------------------------------------------------------

def test_conical_basis_matches_printed_example():
    zeta, rho1, rho2 = conical_basis(3)
    x = np.array([1.0, 0.6, 0.8])
    assert np.allclose(zeta(x), [[1.0, 0.6, 0.8], [0.6, 1.0, 0.0],
                                 [0.8, 0.0, 1.0]])
    assert np.allclose(rho1(x), [[0.6, 1.0, 0.0], [1.0, 0.6, 0.8],
                                 [0.0, 0.8, -0.6]])
    assert np.allclose(rho2(x), [[0.8, 0.0, 1.0], [0.0, -0.8, 0.6],
                                 [1.0, 0.6, 0.8]])


def test_conical_basis_annihilation_on_cone():
    x = np.array([1.0, 0.6, 0.8])  # on the cone: 1 = 0.36 + 0.64
    row = np.array([x[0], -x[1], -x[2]])
    for f in conical_basis(3):
        assert np.abs(row @ f(x)).max() <= 1e-12


def test_conical_basis_sizes_and_independence():
    for q in range(2, 7):
        basis = conical_basis(q)
        assert len(basis) == q
        M = np.stack([np.concatenate([f.A0.reshape(-1), f.A.reshape(-1)])
                      for f in basis])
        assert np.linalg.matrix_rank(M) == q
        assert conical_space_dimension(q) == q


def test_conical_decompose_examples():
    basis = conical_basis(3)
    dec = conical_theta_decompose(basis[0], 3)
    assert dec.coeff_zeta == pytest.approx(1.0)
    assert np.abs(dec.coeff_rho).max() <= 1e-12
    mix = AffineMatrixField(basis[0].A0 + basis[1].A0, basis[0].A + basis[1].A)
    dec2 = conical_theta_decompose(mix, 3)
    assert dec2.coeff_zeta == pytest.approx(1.0)
    assert np.allclose(dec2.coeff_rho, [1.0, 0.0], atol=1e-12)


def test_conical_decompose_not_in_span():
    A = np.zeros((3, 3, 3))
    for k in range(3):
        A[k][k, k] = 1.0
    with pytest.raises(NotInSpanError):
        conical_theta_decompose(AffineMatrixField(np.zeros((3, 3)), A), 3)


def test_zeta_plus_rho_psd_on_cone(rng):
    # the printed example: zeta + rho(1) and zeta + rho(2) are PSD on the cone
    basis = conical_basis(3)
    for k in (1, 2):
        mix = AffineMatrixField(basis[0].A0 + basis[k].A0,
                                basis[0].A + basis[k].A)
        for _ in range(50):
            y = rng.standard_normal(2)
            x1 = np.linalg.norm(y) * (1 + abs(rng.standard_normal()))
            lam = np.linalg.eigvalsh(mix(np.concatenate([[x1], y])))
            assert lam[0] >= -1e-10 * (1 + lam[-1])


def test_cone_square_root_matches_eigendecomposition(rng):
    from affinvar.core import psd_square_root
    for q in (2, 3, 4):
        basis = conical_basis(q)
        sigma = cone_square_root(q)
        pts = rng.standard_normal((40, q))
        pts[:, 0] = np.abs(pts[:, 0]) + np.linalg.norm(pts[:, 1:], axis=1)
        assert np.abs(sigma(pts) - psd_square_root(basis[0](pts))).max() <= 1e-12


def test_check_cone_admissibility_examples():
    ok = check_cone_admissibility(
        AffineVectorField(np.zeros((3, 3)), np.array([2.0, 0, 0])), 3, 3)
    assert [c.name for c in ok] == ["cone-drift-symmetry", "cone-drift-psd",
                                    "cone-drift-lower-bound"]
    assert all(c.passed for c in ok) and ok[-1].margin == pytest.approx(0.5)
    bad = _checks(check_cone_admissibility(
        AffineVectorField(np.zeros((3, 3)), np.array([1.4, 0, 0])), 3, 3))
    assert not bad["cone-drift-lower-bound"].passed
    a = np.zeros((3, 3))
    a[0, 1:] = [1.0, 0.0]
    a[1:, 0] = [0.0, 1.0]
    asym = _checks(check_cone_admissibility(
        AffineVectorField(a, np.array([2.0, 0, 0])), 3, 3))
    assert not asym["cone-drift-symmetry"].passed
    assert asym["cone-drift-symmetry"].margin == -1.0   # -|a_12 - a_21|


def test_conical_rejects_extra_coordinates():
    theta = AffineMatrixField(np.zeros((4, 4)), np.zeros((4, 4, 4)))
    with pytest.raises(PreconditionFailedError):
        conical_theta_decompose(theta, 3)


# ---------------------------------------------------------------------------
# open-set invariance
# ---------------------------------------------------------------------------

def test_open_invariance_cone():
    m = load_fixture("cone3")
    rep = check_open_invariance_general(m)
    assert rep.name == "open-invariance"
    # v, with grad(Phi) theta = Phi v^T, is the certificate
    assert np.allclose(rep.certificate, [2.0, 0.0, 0.0], atol=1e-9)
    assert rep.passed
    assert rep.margin == pytest.approx(0.5)


def test_open_invariance_parabolic():
    m = load_fixture("parabola3")
    rep = check_open_invariance_general(m)
    # b_1 = 2.5 < q + 1 = 4: closed-admissible but the open bound fails
    assert not rep.passed


def _scaled(name: str, theta_scale: float, b1: float | None = None) -> ModelSpec:
    """The fixture with theta scaled and, if given, b_1 replaced."""
    m = load_fixture(name)
    b = m.drift.b.copy()
    if b1 is not None:
        b[0] = b1
    theta = AffineMatrixField(theta_scale * m.diffusion.A0,
                              theta_scale * m.diffusion.A)
    return ModelSpec(m.dimension, AffineVectorField(m.drift.a, b), theta,
                     m.state_space)


@pytest.mark.parametrize("theta_scale,b1,passed,margin", [
    (2.0, 5.0, False, -1.5),   # b_1 / c = 2.5 < q + 1
    (0.5, 2.5, True, 1.0),     # b_1 / c = 5 >= q + 1
])
def test_open_invariance_parabola_in_the_normalized_frame(theta_scale, b1,
                                                         passed, margin):
    # the closed forms hold where theta's upper block is exactly zeta: the
    # verdict is validate's, read after the normalization c = 1
    rep = check_open_invariance_general(_scaled("parabola3", theta_scale, b1))
    assert rep.passed is passed
    assert rep.margin == pytest.approx(margin)


def test_open_invariance_refuses_a_cone_off_zeta():
    # theta = 2 zeta: validate refuses it as cone-zeta-form
    with pytest.raises(PreconditionFailedError, match="theta = zeta"):
        check_open_invariance_general(_scaled("cone3", 2.0))


def test_open_invariance_needs_the_canonical_frame():
    # the dilation x -> 2x keeps grad(Phi) theta = Phi v^T and moves the
    # cone off its canonical form; the check moves it back to its frame
    m, f = load_fixture("cone3"), AffineMap(2.0 * np.eye(3), np.zeros(3))
    img = m.pushed(f, m.state_space.transformed(f))
    rep = check_open_invariance_general(img)
    assert rep.passed and rep.margin == pytest.approx(0.5)


def _open_invariance_images():
    """The 20 seed-11 affine images of parabola3 at b_1 = 2.5 and at 5, and
    three dilations of cone3, each with the base model's open margin."""
    for b1, margin in ((2.5, -1.5), (5.0, 1.0)):
        rng, base = np.random.default_rng(11), _scaled("parabola3", 1.0, b1)
        for i in range(20):
            yield pytest.param(random_affine_image(rng, base), margin,
                               id=f"parabola3-b{b1}-image{i}")
    cone = load_fixture("cone3")
    for lam in (0.5, 2.0, 3.0):
        f = AffineMap(lam * np.eye(3), np.zeros(3))
        image = cone.pushed(f, cone.state_space.transformed(f))
        yield pytest.param(image, 0.5, id=f"cone3-dilation{lam}")


def _assert_certificate_is_the_fit(rep, model):
    # v = L^-1 times the frame's v is the coefficient fit of
    # grad(Phi) theta = Phi v^T, and that identity holds to rounding
    v, resid = phi_v_fit(model)
    assert resid <= 1e-12
    assert np.linalg.norm(rep.certificate - v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("model,margin", _open_invariance_images())
def test_open_invariance_is_affine_invariant(model, margin):
    rep = check_open_invariance_general(model)
    assert rep.passed is (margin > 0)
    assert rep.margin == pytest.approx(margin, abs=1e-8)
    _assert_certificate_is_the_fit(rep, model)


def _free_parabola(rng, q: int, r: int, c: float, open_slack: float):
    """A parabola {x_1 >= y^T y} with r free coordinates, built in its
    normalized frame: theta = [[zeta, eta A2], [., B0 + x_1 K]] with
    B0 > 0 and K >= (q-2) A2^T A2, so the residual block is PSD on the
    parabola, and b_1 = q + 1 + open_slack, the open bound plus the slack;
    then moved off that frame by the inverse of the normalizing map of c
    and a random A1."""
    p = q + r
    z = zeta_parabolic(p, q)
    E = np.stack([eta_matrix(np.eye(q)[k], q) for k in range(q)])
    A2 = rng.standard_normal((E.shape[-1], r))
    G, H = rng.standard_normal((2, r, r))
    A0, A = np.zeros((p, p)), np.zeros((p, p, p))
    A0[:q, :q], A[:, :q, :q] = z.A0, z.A
    A[:q, :q, q:] = E @ A2
    A[:, q:, :q] = np.swapaxes(A[:, :q, q:], 1, 2)
    A0[q:, q:] = G @ G.T + 0.1 * np.eye(r)
    A[0, q:, q:] = (q - 2) * A2.T @ A2 + H @ H.T
    a = np.zeros((p, p))
    a[q:] = rng.standard_normal((r, p))
    b = np.concatenate([[q + 1 + open_slack], np.zeros(q - 1),
                        rng.standard_normal(r)])
    space = QuadraticSpace(QuadraticForm(np.diag([0.0] + [-1.0] * (q - 1) +
                                                 [0.0] * r),
                                         np.eye(p)[0], 0.0))
    normal = ModelSpec(p, AffineVectorField(a, b), AffineMatrixField(A0, A),
                       space)
    S = np.eye(p)
    S[0, 0] = 1.0 / c
    S[np.arange(1, q), np.arange(1, q)] = 1.0 / np.sqrt(c)
    S[q:, :q] = -rng.standard_normal((q, r)).T / c
    return normal.pushed(AffineMap(np.linalg.inv(S), np.zeros(p)), space)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.integers(2, 4), r=st.integers(1, 2), c=st.floats(0.2, 5.0),
       slack=st.floats(0.05, 1.0), side=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_open_invariance_with_free_coordinates(q, r, c, slack, side, seed):
    # p > q: the frame's normalizing shear mixes the free coordinates in,
    # and its verdict, margin and certificate survive an affine image
    rng = np.random.default_rng(seed)
    model = random_affine_image(rng, _free_parabola(rng, q, r, c, side * slack))
    rep = check_open_invariance_general(model)
    frame = canonical_quadric_model(model).normalized()
    expected = check_parabolic_drift(frame.model.drift, q)[-1]
    assert rep.passed is expected.passed is (side > 0)
    assert rep.margin == expected.margin
    assert rep.margin == pytest.approx(side * slack, abs=1e-8)
    _assert_certificate_is_the_fit(rep, model)


def test_open_invariance_phi_v_mismatch():
    # theta = Id on the disk has no v with grad(Phi) theta = Phi v^T; the
    # ellipsoid has no normalized frame, whose first gate refuses it
    theta = AffineMatrixField(np.eye(2), np.zeros((2, 2, 2)))
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.zeros(2)),
                      theta,
                      QuadraticSpace(QuadraticForm(np.eye(2), np.zeros(2), -1.0)))
    with pytest.raises(NotAdmissibleError, match="ellipsoid-type quadrics"):
        check_open_invariance_general(model)
