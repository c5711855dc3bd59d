import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinvar.core
from affinvar.core import (AffineMap, AffineMatrixField, AffineScalar,
                           AffineVectorField, Check, ModelSpec, Polyhedron,
                           QuadraticForm, QuadraticSpace, _contract_first,
                           _symmetric_part, _symmetrized,
                           change_model_coordinates, jsonable, psd_factor,
                           psd_square_root, spot_check_psd, symmetrize,
                           to_json)
from affinvar.errors import (DimensionMismatchError, NotSymmetricError,
                             ParseError, PreconditionFailedError)
from affinvar.modelio import load_fixture, model_from_dict, model_to_dict
from conftest import random_affine_image


def test_evaluate_theta_paper_example():
    theta = AffineMatrixField(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])])
    out = theta(np.array([1.0, 1.0]))
    assert np.allclose(out, np.ones((2, 2)))


def test_evaluate_theta_zero_and_constant():
    zero = AffineMatrixField(np.zeros((3, 3)), np.zeros((3, 3, 3)))
    assert np.array_equal(zero(np.array([2.0, -1.0, 5.0])), np.zeros((3, 3)))
    const = AffineMatrixField(np.eye(2), np.zeros((2, 2, 2)))
    assert np.array_equal(const(np.array([3.0, 4.0])), np.eye(2))


def test_evaluate_theta_dimension_mismatch():
    theta = AffineMatrixField(np.eye(2), np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        theta(np.array([1.0, 2.0, 3.0]))


def test_evaluate_theta_affine_combination():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        A = rng.standard_normal((p, p, p))
        A = 0.5 * (A + np.swapaxes(A, 1, 2))
        A0 = rng.standard_normal((p, p))
        theta = AffineMatrixField(0.5 * (A0 + A0.T), A)
        x, y = rng.standard_normal(p), rng.standard_normal(p)
        alpha = rng.uniform(-1, 2)
        lhs = theta(alpha * x + (1 - alpha) * y)
        rhs = alpha * theta(x) + (1 - alpha) * theta(y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


def test_psd_square_root_diagonal_and_identity():
    assert np.allclose(psd_square_root(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_square_root(np.eye(3)), np.eye(3))


def test_psd_square_root_squares_back():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = psd_square_root(S)
    assert np.abs(R @ R - S).max() <= 1e-12


def test_psd_square_root_general_gives_abs():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        S = rng.standard_normal((p, p))
        S = 0.5 * (S + S.T)
        R = psd_square_root(S)
        lam, V = np.linalg.eigh(S)
        absS = (V * np.abs(lam)) @ V.T
        assert np.abs(R @ R - absS).max() <= 1e-9 * (1 + np.abs(absS).max())


def test_psd_factor_reconstructs_psd_batches():
    # the batch is the last axis: S is (p, p, N)
    rng = np.random.default_rng(2)
    for p in (1, 2, 3, 4):
        G = rng.standard_normal((200, p, p))
        S = G @ np.swapaxes(G, 1, 2) + 1e-3 * np.eye(p)
        R = np.moveaxis(psd_factor(np.moveaxis(S, 0, -1)), -1, 0)
        assert np.abs(R @ np.swapaxes(R, 1, 2) - S).max() <= 1e-12 * \
            (1 + np.abs(S).max())
        assert np.array_equal(R, np.tril(R))   # the Cholesky factor
    S = np.array([[4.0, 2.0], [2.0, 5.0]])
    assert np.allclose(psd_factor(S), [[2.0, 0.0], [1.0, 2.0]])


def test_psd_factor_falls_back_row_locally(monkeypatch):
    seen = []
    real = affinvar.core.psd_square_root

    def spy(S):
        seen.append(S.shape[0])
        return real(S)

    monkeypatch.setattr(affinvar.core, "psd_square_root", spy)
    rng = np.random.default_rng(3)
    G = rng.standard_normal((6, 3, 3))
    S = G @ np.swapaxes(G, 1, 2)
    psd_factor(np.moveaxis(S, 0, -1))
    assert seen == []          # no pivot failed: no eigendecomposition
    S[1] = np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])   # rank one
    S[4] = np.diag([1.0, -2.0, 3.0])                      # indefinite
    R = np.moveaxis(psd_factor(np.moveaxis(S, 0, -1)), -1, 0)
    assert seen == [2]         # only the two failing matrices
    for i in (1, 4):
        assert np.array_equal(R[i], real(S[i:i + 1])[0])
    assert np.abs(R[1] @ R[1].T - S[1]).max() <= 1e-12
    # each factor depends on its own matrix only
    flipped = psd_factor(np.moveaxis(S[::-1], 0, -1))
    for i in range(6):
        assert np.array_equal(R[i], psd_factor(S[i]))
        assert np.array_equal(R[i], flipped[..., 5 - i])


def test_psd_factor_nonfinite_columns(monkeypatch):
    # 2 x 2 blocks: a PD, a rank-one, a NaN, an indefinite, an inf and a
    # second PD matrix, batch-last.  The inf and NaN matrices come back
    # NaN, only the four failing ones reach psd_square_root, and the PD
    # factors are the Cholesky factors to the bit.
    seen = []
    real = affinvar.core.psd_square_root

    def spy(S):
        seen.append(S.shape[0])
        return real(S)

    monkeypatch.setattr(affinvar.core, "psd_square_root", spy)
    nan, inf = np.nan, np.inf
    pd1 = [[4.0, 2.0], [2.0, 5.0]]
    pd2 = [[2.0, -1.0], [-1.0, 3.0]]
    mats = np.array([pd1, [[1.0, 2.0], [2.0, 4.0]], [[1.0, nan], [nan, 2.0]],
                     [[1.0, 0.0], [0.0, -2.0]], [[1.0, inf], [inf, 2.0]], pd2])
    r00 = np.sqrt(2.0)
    r10 = -1.0 / r00
    chol2 = np.array([[r00, 0.0], [r10, np.sqrt(3.0 - r10 * r10)]])
    R = np.moveaxis(psd_factor(np.moveaxis(mats, 0, -1)), -1, 0)
    assert seen == [4]
    assert np.isnan(R[2]).all() and np.isnan(R[4]).all()
    assert R[0].tobytes() == np.array([[2.0, 0.0], [1.0, 2.0]]).tobytes()
    assert R[5].tobytes() == chol2.tobytes()

    # the row form stops at a failing pivot: a NaN or an inf matrix alone
    # among PD ones still fails (a NaN propagated by the minimum); with
    # every pivot positive it gives the rows of the same factor
    for bad in (mats[2], mats[4]):
        S = np.moveaxis(np.array([pd1, pd2, bad, pd1]), 0, -1)
        assert affinvar.core._cholesky_rows(S, stop=True) is None
    S = np.moveaxis(np.array([pd1, pd2]), 0, -1)
    rows = affinvar.core._cholesky_rows(S, stop=True)
    assert [len(r) for r in rows] == [1, 2]
    assert affinvar.core._lower(rows, S.shape).tobytes() == \
        psd_factor(S).tobytes()


def test_psd_square_root_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError):
        psd_square_root(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetrize_absorbs_small_asymmetry():
    S = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
    out = symmetrize(S)
    assert np.array_equal(out, out.T)


def _symmetrize_one_by_one(M):
    """The per-matrix symmetrization the stacked one must reproduce: the
    asymmetry test at the matrix's own scale max(1, max|M|), then
    (M + M^T)/2; None for a matrix it rejects."""
    scale = max(1.0, float(np.abs(M).max()) if M.size else 0.0)
    asym = float(np.abs(M - M.T).max()) if M.size else 0.0
    return None if asym > 1e-12 * scale else 0.5 * (M + M.T)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 5), size=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-3.0, 6.0),
       log_asym=st.sampled_from([None, -16.0, -12.5, -12.0, -11.5, -9.0]))
def test_matrix_field_stack_matches_per_matrix_symmetrize(k, size, seed,
                                                         log_scale, log_asym):
    rng = np.random.default_rng(seed)
    # each matrix at a scale of its own, up to 10^log_scale
    scales = 10.0 ** rng.uniform(min(log_scale, 0.0), log_scale, k + 1)
    S = rng.standard_normal((k + 1, size, size)) * scales[:, None, None]
    S = S + np.swapaxes(S, 1, 2)
    if log_asym is not None and size > 1:
        # an asymmetry on each matrix at some ratio to its scale, on both
        # sides of the tolerance
        S[:, 0, 1] += rng.uniform(0.5, 2.0, k + 1) * 10.0 ** log_asym * \
            np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
    mats = [_symmetrize_one_by_one(M) for M in S]
    if any(M is None for M in mats):
        with pytest.raises(NotSymmetricError):
            AffineMatrixField(S[0], S[1:])
        return
    field = AffineMatrixField(S[0], S[1:])
    want = np.stack(mats[1:]) if k else np.zeros((0, size, size))
    assert field.A.shape == want.shape and field.A0.shape == (size, size)
    assert field.A0.tobytes() == mats[0].tobytes()
    assert field.A.tobytes() == want.tobytes()
    assert not field.A.flags.writeable and not field.A0.flags.writeable
    if not size:  # a list of empty matrices has lost their shape
        return
    # a list of matrices builds the same field as the stacked array
    listed = AffineMatrixField(S[0].tolist(), [M.tolist() for M in S[1:]])
    assert listed.A.tobytes() == field.A.tobytes()


def test_matrix_field_rejects_one_asymmetric_matrix_in_a_stack():
    A = np.stack([np.eye(3)] * 4)
    A[2, 0, 1] += 1e-6
    with pytest.raises(NotSymmetricError, match="1.000e-06"):
        AffineMatrixField(np.eye(3), A)
    A[2, 0, 1] -= 1e-6
    AffineMatrixField(np.eye(3), A)


@pytest.mark.parametrize("A0,A", [
    (np.eye(2), np.zeros((2, 3, 3))),       # stack and A0 disagree
    (np.eye(2), np.zeros((2, 2, 3))),       # matrices not square
    (np.eye(2), np.eye(2)),                 # a matrix, not a stack
    (np.eye(2), np.zeros((2, 2, 2, 2))),    # one axis too many
    (np.zeros((2, 3)), np.zeros((2, 2, 2))),  # A0 not square
])
def test_matrix_field_shape_mismatch(A0, A):
    with pytest.raises(DimensionMismatchError):
        AffineMatrixField(A0, A)


def test_matrix_field_empty_stacks_build():
    none = AffineMatrixField(np.eye(2), [])
    assert none.A.shape == (0, 2, 2) and none.nvars == 0
    assert np.array_equal(none(np.zeros(0)), np.eye(2))
    empty = AffineMatrixField(np.zeros((0, 0)), np.zeros((3, 0, 0)))
    assert empty.A.shape == (3, 0, 0) and (empty.nvars, empty.size) == (3, 0)
    assert empty(np.ones(3)).shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 6), size=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_contract_first_is_tensordot_bit_for_bit(k, size, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, k)
    A = rng.standard_normal((k, size, size))
    assert _contract_first(v, A).tobytes() == \
        np.tensordot(v, A, axes=(0, 0)).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(1, 12), m=st.integers(1, 8), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_products_keep_each_items_bits(k, m, n, seed):
    # a stacked product sends each item through the product of that item
    # alone, so each keeps its bits: the rule the certificates, the drift
    # rows and the theta samples are batched by.  (The 2-D product of all
    # items at once sums in another order and does not keep them.)  All
    # operands are C-contiguous, entries at scales 1e-3 .. 1e3.
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)

    P, X, B, v = draw(m, n), draw(k, m), draw(k, n), draw(m)
    # matrix @ vector, P @ B[:, :, None]: pinv @ b and A_eq @ z
    stacked = (P @ B[:, :, None])[:, :, 0]
    assert stacked.tobytes() == np.stack([P @ b for b in B]).tobytes()
    # vector @ matrix, X[:, None, :] @ P: lam @ gamma and gamma_i @ a
    stacked = (X[:, None, :] @ P)[:, 0]
    assert stacked.tobytes() == np.stack([x @ P for x in X]).tobytes()
    # (1, m) @ (m, 1), X[:, None, :] @ v[:, None]: lam . delta, gamma_i . b
    stacked = (X[:, None, :] @ v[:, None])[:, 0, 0]
    assert stacked.tobytes() == np.array([x @ v for x in X]).tobytes()
    # theta at k points, (1, m) @ (m, n) each: `_contract_first` per point
    A = draw(m, 2, 2)
    stacked = (X[:, None, :] @ A.reshape(m, 4)).reshape(k, 2, 2)
    assert stacked.tobytes() == \
        np.stack([_contract_first(x, A) for x in X]).tobytes()


def test_spot_check_psd_evaluates_theta_point_by_point(monkeypatch):
    # the stack of theta samples spot_check_psd hands to eigvalsh has the
    # bits of the field evaluated at one point at a time
    rng = np.random.default_rng(31)
    seen, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda S: seen.append(S.copy()) or real(S))
    for name in ("cir", "triangle_channel", "hyperbola_wedge", "cone3",
                 "parabola3"):
        m = load_fixture(name)
        for model in (m, random_affine_image(rng, m)):
            pts = rng.standard_normal((33, model.dimension)) * 3.0
            seen.clear()
            spot_check_psd(model, pts)
            want = np.stack([model.diffusion(x) for x in pts])
            assert seen[0].tobytes() == want.tobytes(), name


def test_symmetric_part_is_finite_at_the_largest_doubles():
    # (S + S^T)/2 overflows above ~9e307 with a RuntimeWarning; the
    # symmetric part stays finite and silent up to the largest double
    S = np.array([[1e308, 0.0], [0.0, 1.0]])
    big = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert symmetrize(S).tobytes() == S.tobytes()
        root = psd_square_root(S)
        assert np.isfinite(root).all() and root[0, 0] == np.sqrt(1e308)
        assert _symmetric_part(big).tobytes() == big.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(1, 1), (3, 3), (2, 4, 4), (5, 2, 2)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_part_has_the_bits_of_the_halved_sum(shape, seed):
    # outside the subnormal range 0.5 S + 0.5 S^T and (S + S^T)/2 agree
    rng = np.random.default_rng(seed)
    S = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    want = 0.5 * (S + np.swapaxes(S, -1, -2))
    assert _symmetric_part(S).tobytes() == want.tobytes()


def test_symmetrized_keeps_symmetric_input_and_symmetrizes_the_rest():
    S = np.array([[[2.0, -0.0, 1e-300], [-0.0, 1.0, 3.0],
                   [1e-300, 3.0, -0.0]]] * 2)
    out = _symmetrized(S)
    # bitwise symmetric: a read-only array of its bits, zeros' signs kept
    assert out.tobytes() == S.tobytes() and out is not S
    assert not out.flags.writeable and S.flags.writeable
    # a mirrored 0.0/-0.0 pair is equal as floats, not as bits: both +0.0
    S[1, 0, 1] = 0.0
    out = _symmetrized(S)
    assert not np.signbit(out[1, [0, 1], [1, 0]]).any()
    assert np.signbit(out[0, [0, 1], [1, 0]]).all()
    # an asymmetry below TOL.sym_rtol is absorbed, one above it rejected
    S[0, 1, 2] += 1e-13
    out = _symmetrized(S)
    assert out.tobytes() == (0.5 * (S + np.swapaxes(S, 1, 2))).tobytes()
    assert out[0, 1, 2] == out[0, 2, 1] != 3.0
    S[0, 1, 2] += 1e-10
    with pytest.raises(NotSymmetricError):
        _symmetrized(S)


def test_spot_check_psd_matches_per_sample_eigvalsh():
    rng = np.random.default_rng(8)
    for name in ("cir", "triangle_channel", "hyperbola_wedge", "cone3"):
        m = load_fixture(name)
        pts = rng.standard_normal((33, m.dimension))
        worst = np.inf
        for x in pts:
            w = np.linalg.eigvalsh(m.diffusion(x))
            worst = min(worst, float(w[0]) /
                        (1.0 + abs(float(w[-1])) + abs(float(w[0]))))
        ok, got = spot_check_psd(m, pts)
        assert got == worst and ok == (worst >= -1e-9)
    assert spot_check_psd(m, np.zeros((0, m.dimension))) == (True, np.inf)


def test_membership_affine_invariance():
    rng = np.random.default_rng(2)
    poly = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                      np.array([0.0, 0.0, 2.0]))
    L = np.array([[1.0, 2.0], [-1.0, 1.0]])
    ell = np.array([0.3, -0.7])
    image = poly.transformed(AffineMap(L, ell))
    for _ in range(200):
        x = rng.uniform(-2, 2, size=2)
        assert bool(poly.contains(x)) == bool(image.contains(L @ x + ell))


def test_quadric_image_carries_the_form_and_side():
    rng = np.random.default_rng(4)
    space = QuadraticSpace(QuadraticForm(np.diag([1.0, -1.0, -2.0]),
                                         np.array([0.5, 0.0, 1.0]), -0.3),
                           "negative", closed=False)
    L = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    ell = rng.standard_normal(3)
    image = space.transformed(AffineMap(L, ell))
    assert (image.component, image.closed) == ("negative", False)
    x = rng.standard_normal((50, 3))
    assert np.allclose(image.form(x @ L.T + ell), space.form(x), atol=1e-12)


def test_congruence_is_coefficient_exact():
    rng = np.random.default_rng(3)
    p = 3
    A = rng.standard_normal((p, p, p))
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    A0 = rng.standard_normal((p, p))
    theta = AffineMatrixField(0.5 * (A0 + A0.T), A)
    L = rng.standard_normal((p, p)) + 3 * np.eye(p)
    ell = rng.standard_normal(p)
    new = theta.congruence(AffineMap(L, ell))
    for _ in range(25):
        y = rng.standard_normal(p)
        x = np.linalg.solve(L, y - ell)
        assert np.abs(new(y) - L @ theta(x) @ L.T).max() <= 1e-10 * \
            (1 + np.abs(theta(x)).max())


def test_affine_map_apply_and_preimage_bits():
    # the expressions y = x L^T + ell and x = (y - ell) L^-T, bit for bit
    rng = np.random.default_rng(7)
    L = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    ell = rng.standard_normal(3)
    f = AffineMap(L, ell)
    x = rng.standard_normal((20, 3))
    assert np.array_equal(f.apply(x), x @ L.T + ell)
    assert np.array_equal(f.preimage(x), (x - ell) @ np.linalg.inv(L).T)
    assert np.array_equal(f.apply(x[0]), x[0] @ L.T + ell)
    assert np.allclose(f.preimage(f.apply(x)), x, atol=1e-12)


def test_affine_map_compose_is_sequential_application():
    rng = np.random.default_rng(8)
    outer, inner = (AffineMap(rng.standard_normal((3, 3)) + 2.0 * np.eye(3),
                              rng.standard_normal(3)) for _ in range(2))
    both = outer.compose(inner)
    x = rng.standard_normal((20, 3))
    assert np.allclose(both.apply(x), outer.apply(inner.apply(x)),
                       atol=1e-12)
    assert np.allclose(both.preimage(x), inner.preimage(outer.preimage(x)),
                       atol=1e-12)
    # a zero outer offset is not added, so that a -0.0 of S ell stays
    S = AffineMap(np.diag([2.0, 3.0]), np.zeros(2))
    shift = np.array([-0.0, -1.0])
    got = S.compose(AffineMap(np.eye(2), shift)).ell
    assert got.tobytes() == (S.L @ shift).tobytes()


@pytest.mark.parametrize("L", [np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]]],
                         ids=["zero", "rank-one"])
def test_affine_map_singular_is_a_failed_precondition(L):
    f = AffineMap(L, np.zeros(2))
    assert np.array_equal(f.apply(np.ones(2)), np.asarray(L) @ np.ones(2))
    with pytest.raises(PreconditionFailedError):
        f.preimage(np.ones(2))
    model = load_fixture("hyperbola_wedge")
    with pytest.raises(PreconditionFailedError):
        change_model_coordinates(model, L, np.zeros(2), model.state_space)


def test_affine_scalar_and_vector_field():
    f = AffineScalar(np.array([2.0, -1.0]), 0.5)
    assert f(np.array([1.0, 1.0])) == pytest.approx(1.5)
    batch = f(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(batch, [1.5, 0.5])
    mu = AffineVectorField(np.array([[-1.0, 0.0], [0.0, -2.0]]),
                           np.array([1.0, 2.0]))
    row = mu.row_functional(np.array([1.0, 1.0]))
    assert np.allclose(row.gamma, [-1.0, -2.0])
    assert row.delta == pytest.approx(3.0)


def test_modelspec_dimension_checks():
    drift = AffineVectorField(np.zeros((2, 2)), np.zeros(2))
    theta = AffineMatrixField(np.eye(2), np.zeros((2, 2, 2)))
    space = Polyhedron(np.eye(3), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        ModelSpec(2, drift, theta, space)


def test_spot_check_psd():
    m = load_fixture("cir")
    ok, worst = spot_check_psd(m, np.array([[1.0], [0.5], [2.0]]))
    assert ok and worst >= 0


def test_quadratic_space_membership():
    phi = QuadraticForm(np.diag([0.0, -1.0]), np.array([1.0, 0.0]), 0.0)
    space = QuadraticSpace(phi, "positive", closed=True)
    assert bool(space.contains(np.array([1.0, 0.5])))
    assert not bool(space.contains(np.array([0.0, 1.0])))
    flipped = QuadraticSpace(phi, "negative", closed=True)
    assert bool(flipped.contains(np.array([0.0, 1.0])))


def test_model_json_round_trip():
    for name in ("cir", "triangle_channel", "hyperbola_wedge", "parabola3",
                 "cone3"):
        m = load_fixture(name)
        m2 = model_from_dict(model_to_dict(m))
        assert np.array_equal(m2.diffusion.A0, m.diffusion.A0)
        assert np.array_equal(m2.drift.a, m.drift.a)
        assert m2.dimension == m.dimension


def test_model_parse_error():
    with pytest.raises(ParseError):
        model_from_dict({"dimension": 2})


def test_value_types_copy_instead_of_freezing_the_callers_arrays():
    g, d = np.eye(2), np.zeros(2)
    poly = Polyhedron(g, d)
    b = np.array([1.0, 0.0])
    phi = QuadraticForm(np.diag([0.0, -1.0]), b, 0.0)
    g[0, 0] = 2.0  # the caller's arrays stay writable
    d[1] = 3.0
    b[0] = 5.0
    assert poly.gamma[0, 0] == 1.0 and poly.delta[1] == 0.0 and phi.b[0] == 1.0
    for arr in (poly.gamma, poly.delta, phi.b):
        with pytest.raises(ValueError):
            arr[0] = 7.0


_SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                   1e16, 1e-05)
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_SCALARS = (_FLOATS | st.integers(-2 ** 70, 2 ** 70) | st.booleans()
            | st.none() | st.text())
_NUMPY = (_FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
          | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
          | st.booleans().map(np.bool_)
          | st.lists(_FLOATS, max_size=4).map(np.array)
          | st.lists(st.lists(_FLOATS, min_size=2, max_size=2),
                     max_size=3).map(lambda rows: np.array(rows).reshape(-1, 2)))
_JSON = st.recursive(
    _SCALARS | _NUMPY | st.lists(_FLOATS, max_size=5),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=_JSON)
def test_to_json_is_json_dumps(obj):
    # NaN, +-inf, -0.0, subnormals, large and small exponents, ints past
    # 2^53, non-ASCII and control characters, empty containers, tuples and
    # numpy values, at any depth
    assert to_json(obj) == json.dumps(obj, indent=2, sort_keys=True,
                                      default=jsonable)


def test_to_json_writes_checks_and_refuses_what_json_cannot_write():
    obj = {"\x00\xe9\u2028\U0001f600": [(), {}, None, np.bool_(True)],
           "check": Check("c", True, margin=np.float32(0.1),
                          witness=np.array([np.nan, 1.0]))}
    assert to_json(obj) == json.dumps(obj, indent=2, sort_keys=True,
                                      default=jsonable)
    for bad in ({"x": object()}, {1: 2.0}):
        with pytest.raises(TypeError):
            to_json(bad)
