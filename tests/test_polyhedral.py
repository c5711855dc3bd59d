import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affinvar.polyhedral
from affinvar.cli import main
from affinvar.core import (AffineMatrixField, AffineScalar, AffineVectorField,
                           ModelSpec, Polyhedron)
from affinvar.convex import _coefficient_multiple, interior_point
from affinvar.errors import (ModelInconsistencyError, NotAdmissibleError,
                             NotRepresentableError, NumericalFailureError,
                             PreconditionFailedError)
from affinvar.modelio import load_fixture, save_model
from affinvar.polyhedral import (ClassicalModel, _coupling_rows,
                                 build_square_root, canonical_transform,
                                 check_classical, check_open_orthant_invariance,
                                 check_polyhedral_admissibility,
                                 check_triangle_condition, diagonalize_extended,
                                 lift_drift, psd_decompose, transform_model)
from conftest import random_affine_image, random_canonical_model


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_cir_admissible():
    rep = check_polyhedral_admissibility(load_fixture("cir"))
    assert rep.admissible
    fc = rep.facets[0]
    assert fc.diffusion_multiple == pytest.approx(1.0)
    assert fc.drift_certificate is not None


def test_triangle_channel_admissible():
    rep = check_polyhedral_admissibility(load_fixture("triangle_channel"))
    assert rep.admissible
    # diffusion rows vanish identically: all coupling rows zero
    for fc in rep.facets:
        assert np.abs(fc.coupling_row).max() <= 1e-10


def test_cir_outward_drift_inadmissible():
    m = load_fixture("cir")
    bad = ModelSpec(1, AffineVectorField(np.array([[-1.0]]), np.array([-1.0])),
                    m.diffusion, m.state_space)
    rep = check_polyhedral_admissibility(bad)
    assert not rep.admissible
    fc = rep.facets[0]
    assert fc.diffusion_ok and not fc.drift_ok
    assert abs(fc.witness[0]) <= 1e-6  # witness x = 0 with gamma mu(0) = -1


def test_minimal_is_not_a_constructor_argument():
    # cir over {x >= 0, x + 1 >= 0}: the redundant second facet carries no
    # diffusion multiple, so it must be removed, never trusted away
    m = load_fixture("cir")
    gamma, delta = [[1.0], [1.0]], [0.0, 1.0]
    rep = check_polyhedral_admissibility(
        ModelSpec(1, m.drift, m.diffusion, Polyhedron(gamma, delta)))
    assert rep.admissible and rep.polyhedron.n_facets == 1
    with pytest.raises(TypeError):
        Polyhedron(gamma, delta, minimal=True)


# ---------------------------------------------------------------------------
# canonical transform
# ---------------------------------------------------------------------------

def test_canonical_transform_already_canonical():
    # theta(x) = diag(x_1, 0) on R_{>=0} x R with the single facet u = x_1
    theta = AffineMatrixField(np.zeros((2, 2)),
                              [np.diag([1.0, 0.0]), np.zeros((2, 2))])
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.array([1.0, 0.0])),
                      theta, Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1)))
    ct = canonical_transform(model)
    assert (ct.m, ct.n) == (1, 0)
    assert np.allclose(ct.L, np.eye(2))
    assert np.allclose(ct.ell, 0)
    assert ct.psi.size == 1 and np.abs(ct.psi.A0).max() <= 1e-12


def test_canonical_transform_cir_round_trip():
    ct = canonical_transform(load_fixture("cir"))
    assert (ct.m, ct.n) == (1, 0)
    assert np.allclose(ct.L, [[1.0]]) and np.allclose(ct.ell, [0.0])


def test_canonical_transform_triangle_channel():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    assert (ct.m, ct.n) == (0, 2)
    # Psi(y) = [[y_1 + 1/2, 1], [1, y_2 + 1/2]]
    assert np.allclose(ct.psi.A0, [[0.5, 1.0], [1.0, 0.5]], atol=1e-9)
    assert np.allclose(ct.psi.A[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(ct.psi.A[1], [[0.0, 0.0], [0.0, 1.0]], atol=1e-9)
    # transformed state space: first two facets are coordinates, third the cut
    tp = ct.transformed_polyhedron()
    assert np.allclose(tp.gamma[:2], np.eye(4)[:2], atol=1e-12)
    assert np.allclose(tp.delta[:2], 0, atol=1e-12)


def test_canonical_transform_block_identity_and_facet_images():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    canon = transform_model(m, ct)
    rng = np.random.default_rng(7)
    y0 = ct.to_canonical(interior_point(ct.polyhedron))
    worst = 0.0
    for _ in range(100):
        y = y0 + rng.standard_normal(4)
        worst = max(worst, np.abs(canon.diffusion(y) - ct.block_matrix(y)).max())
    assert worst <= 1e-9
    # facet hyperplanes map onto the coordinate hyperplanes: the point
    # -delta_i gamma_i / |gamma_i|^2 has u_i = 0
    for pos in range(ct.m + ct.n):
        facet = ct.polyhedron.facet(ct.facet_order[pos])
        x = -facet.delta * facet.gamma / (facet.gamma @ facet.gamma)
        assert abs(ct.to_canonical(x)[pos]) <= 1e-7


def test_canonical_transform_rejects_wedge_model():
    """The hyperbola-tangent wedge facets do not satisfy the facet diffusion
    condition (gamma_i theta(.) does not vanish on the facet segments), so the
    construction must refuse."""
    m = load_fixture("hyperbola_wedge")
    wedge = Polyhedron(m.state_space.gamma[:2], m.state_space.delta[:2])
    model = ModelSpec(2, m.drift, m.diffusion, wedge)
    with pytest.raises(NotAdmissibleError):
        canonical_transform(model)


def test_canonical_transform_psi_not_function_of_facets():
    """theta = diag(x1, 1 + x2) on {x1 >= 0}: the lower-right block 1 + x2
    depends on the free coordinate, so no canonical form exists."""
    theta = AffineMatrixField(np.diag([0.0, 1.0]),
                              [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.array([1.0, 0.0])),
                      theta, Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1)))
    with pytest.raises(ModelInconsistencyError, match="residual 1.000e"):
        canonical_transform(model)


def test_canonical_transform_random_images(rng):
    for _ in range(10):
        p = int(rng.integers(2, 5))
        m_cnt = int(rng.integers(0, p + 1))
        n_cnt = int(rng.integers(0, p - m_cnt + 1))
        if m_cnt + n_cnt == 0:
            m_cnt = 1
        base = random_canonical_model(rng, p, m_cnt, n_cnt)
        pushed = random_affine_image(rng, base)
        ct = canonical_transform(pushed)
        assert (ct.m, ct.n) == (m_cnt, n_cnt)


def test_canonical_transform_round_trip_on_canonical_model(rng):
    # an already-canonical model comes back with L a scaled permutation and a
    # tiny block residual
    model = random_canonical_model(rng, 3, 1, 1)
    ct = canonical_transform(model)
    assert (ct.m, ct.n) == (1, 1)
    perm_scale = np.abs(ct.L)
    assert np.count_nonzero(perm_scale > 1e-9) == 3  # one entry per row
    assert np.abs(ct.ell).max() <= 1e-12
    canon = model.diffusion.congruence(ct.L, ct.ell)
    y0 = np.array([1.0, 1.0, 0.0])
    worst = 0.0
    for _ in range(50):
        y = y0 + rng.standard_normal(3)
        worst = max(worst, np.abs(canon(y) - ct.block_matrix(y)).max())
    assert worst <= 1e-12 * (1 + np.abs(model.diffusion.A0).max() * 10)


def test_canonical_transform_does_not_depend_on_the_interior_point(
        monkeypatch, rng):
    # the coupling rows are read off the coefficients, so moving the interior
    # point the transform is handed changes no bit of it
    models = [load_fixture("cir"), load_fixture("triangle_channel"),
              random_affine_image(rng, random_canonical_model(rng, 4, 2, 1))]
    before = [canonical_transform(model) for model in models]
    real = affinvar.polyhedral.interior_point

    def moved(poly):
        x = real(poly) + 0.01 * np.linalg.pinv(poly.gamma) @ np.ones(poly.n_facets)
        assert np.all(poly.evaluate(x) > 0)
        return x

    monkeypatch.setattr(affinvar.polyhedral, "interior_point", moved)
    for model, ct in zip(models, before):
        other = canonical_transform(model)
        for name in ("L", "ell", "B", "facet_scale"):
            assert np.array_equal(getattr(other, name), getattr(ct, name)), name
        assert np.array_equal(other.psi.A0, ct.psi.A0)
        assert np.array_equal(other.psi.A, ct.psi.A)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       perturb=st.booleans())
def test_coupling_rows_match_the_per_component_oracle(p, data, seed, perturb):
    q = data.draw(st.integers(1, p))
    m_cnt = data.draw(st.integers(0, q))
    rng = np.random.default_rng(seed)
    model = random_affine_image(
        rng, random_canonical_model(rng, p, m_cnt, q - m_cnt))
    poly, theta = model.state_space, model.diffusion
    bad = data.draw(st.integers(0, q - 1)) if perturb else None
    if perturb:
        # add to facet bad's row gamma_bad theta the field h (w.x + w0), with
        # (w, w0) orthogonal to (gamma_bad, delta_bad) and |w, w0|_inf = 1e-2,
        # so that it is no multiple of u_bad by a margin far above the tolerance
        g, U = poly.gamma[bad], poly.facet(bad).coefficients()
        w = rng.standard_normal(p + 1)
        w -= (w @ U) / (U @ U) * U
        w *= 1e-2 / np.abs(w).max()
        h = rng.standard_normal(p)
        # symmetric D with g^T D = h^T
        gg = g @ g
        D = (np.outer(g, h) + np.outer(h, g)) / gg - (g @ h) * np.outer(g, g) / gg ** 2
        theta = AffineMatrixField(theta.A0 + w[p] * D,
                                  theta.A + w[:p, None, None] * D)
    B, c, ok = _coupling_rows(theta, poly)
    for i in range(q):
        g = poly.gamma[i]
        oracle = [_coefficient_multiple(
            AffineScalar(theta.A[:, :, j] @ g, float(g @ theta.A0[:, j])),
            poly.facet(i)) for j in range(p)]
        assert ok[i] == (None not in oracle), i
        if ok[i]:
            assert np.abs(B[i] - oracle).max() <= 1e-12 * (1 + np.abs(oracle).max())
            assert c[i] == pytest.approx(B[i] @ g, rel=1e-12, abs=1e-12)
    if perturb:
        assert not ok[bad]


# ---------------------------------------------------------------------------
# lifted drift
# ---------------------------------------------------------------------------

def test_lift_drift_cir():
    a_bar, b_bar = lift_drift(load_fixture("cir"))
    assert a_bar[0, 0] == pytest.approx(-1.0, abs=1e-8)
    assert b_bar[0] == pytest.approx(1.0, abs=1e-8)


def test_lift_drift_swapped_orthant():
    model = ModelSpec(
        2, AffineVectorField(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)),
        AffineMatrixField(np.zeros((2, 2)),
                          [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
        Polyhedron(np.eye(2), np.zeros(2)))
    a_bar, b_bar = lift_drift(model)
    assert np.allclose(a_bar, [[0.0, 1.0], [1.0, 0.0]], atol=1e-8)
    assert np.allclose(b_bar, 0, atol=1e-8)


def test_lift_drift_triangle_channel_signs():
    m = load_fixture("triangle_channel")
    a_bar, b_bar = lift_drift(m)
    off = a_bar[~np.eye(3, dtype=bool)]
    assert np.all(off >= 0)
    assert np.all(b_bar >= 0)
    # reconstruction: gamma mu(x) = a_bar u(x) + b_bar
    poly = m.state_space
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(4)
        lhs = poly.gamma @ m.drift(x)
        rhs = a_bar @ poly.evaluate(x) + b_bar
        assert np.abs(lhs - rhs).max() <= 1e-8


# ---------------------------------------------------------------------------
# square root in canonical coordinates
# ---------------------------------------------------------------------------

def test_build_square_root_scalar():
    ct = canonical_transform(load_fixture("cir"))
    sigma = build_square_root(ct)
    assert sigma(np.array([4.0]))[0, 0] == pytest.approx(2.0)
    assert sigma(np.array([0.0]))[0, 0] == 0.0


def test_build_square_root_psi_block():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    sigma = build_square_root(ct)
    y = np.array([1.0, 1.0, 0.3, -0.2])
    S = sigma(y)
    psi = ct.psi(y[:2])
    assert np.abs(S[2:, 2:] @ S[2:, 2:].T - psi).max() <= 1e-12
    # sigma sigma^T = theta on the state space (all three facets active)
    canon = transform_model(m, ct)
    rng = np.random.default_rng(13)
    for _ in range(30):
        y = np.concatenate([0.75 + np.abs(rng.standard_normal(2)),
                            rng.standard_normal(2)])
        assert bool(canon.state_space.contains(y))
        S = sigma(y)
        assert np.abs(S @ S.T - canon.diffusion(y)).max() <= 1e-9


def test_square_root_continuity_near_boundary():
    ct = canonical_transform(load_fixture("cir"))
    sigma = build_square_root(ct)
    eps = 1e-12
    assert abs(sigma(np.array([eps]))[0, 0] - sigma(np.array([0.0]))[0, 0]) <= 1e-6


# ---------------------------------------------------------------------------
# PSD facet decomposition
# ---------------------------------------------------------------------------

def test_psd_decompose_paper_witness_fixture():
    m = load_fixture("hyperbola_wedge")
    dec = psd_decompose(m)
    rec = dec.reconstruct(m.state_space)
    assert np.abs(rec.A0 - m.diffusion.A0).max() <= 1e-8
    assert np.abs(rec.A - m.diffusion.A).max() <= 1e-8
    assert dec.min_eigenvalue() >= -1e-9 * 2


def test_psd_decompose_constant_theta():
    theta = AffineMatrixField(np.eye(2), np.zeros((2, 2, 2)))
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.zeros(2)),
                      theta, Polyhedron(np.eye(2), np.zeros(2)))
    dec = psd_decompose(model)
    assert np.allclose(dec.B0, np.eye(2), atol=1e-9)
    assert np.abs(dec.Bi).max() <= 1e-9


def test_psd_decompose_triangle_channel_not_representable():
    with pytest.raises(NotRepresentableError) as exc:
        psd_decompose(load_fixture("triangle_channel"))
    assert exc.value.diagnostic["kind"] == "separating-functional"
    assert exc.value.diagnostic["gap"] > 1e-3


def test_psd_decompose_full_row_rank_never_fails(rng):
    for _ in range(15):
        p = int(rng.integers(1, 5))
        m_cnt = int(rng.integers(1, p + 1))
        n_cnt = int(rng.integers(0, p - m_cnt + 1))
        model = random_canonical_model(rng, p, m_cnt, n_cnt)
        dec = psd_decompose(model)
        rec = dec.reconstruct(model.state_space)
        scale = 1 + np.abs(model.diffusion.A0).max()
        assert np.abs(rec.A0 - model.diffusion.A0).max() <= 1e-8 * scale
        assert np.abs(rec.A - model.diffusion.A).max() <= 1e-8 * scale
        assert dec.min_eigenvalue() >= -1e-8 * scale


def _model_from_coefficients(poly: Polyhedron, B0, Bi) -> ModelSpec:
    """Zero-drift model with theta = B0 + sum_i Bi u_i."""
    p = poly.dim
    theta = AffineMatrixField(B0 + np.tensordot(poly.delta, Bi, axes=(0, 0)),
                              np.einsum("ik,iab->kab", poly.gamma, Bi))
    return ModelSpec(p, AffineVectorField(np.zeros((p, p)), np.zeros(p)),
                     theta, poly)


def _triangle_model(rng) -> ModelSpec:
    tri = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                     np.array([0.0, 0.0, 1.0]))
    G = rng.standard_normal((3, 2, 2))
    return _model_from_coefficients(tri, np.zeros((2, 2)),
                                    G @ np.swapaxes(G, 1, 2))


def test_psd_decompose_triangle_condition_route(rng):
    # the 2-D triangle has rank-deficient gamma but full-row-rank (delta gamma)
    # and satisfies the triangle condition: theta built from PSD facet
    # coefficients is the B0 = 0 start of the search, accepted as it is
    for _ in range(5):
        model = _triangle_model(rng)
        tri, A0, A = model.state_space, model.diffusion.A0, model.diffusion.A
        assert check_triangle_condition(tri)
        dec = psd_decompose(model)
        rec = dec.reconstruct(tri)
        scale = 1 + np.abs(A0).max()
        assert np.abs(rec.A0 - A0).max() <= 1e-8 * scale
        assert np.abs(rec.A - A).max() <= 1e-8 * scale
        assert dec.min_eigenvalue() >= -1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_psd_decompose_full_row_rank_recovers_coefficients(p, data, seed):
    # K = [[1, delta^T], [0, gamma^T]] has full column rank exactly when gamma
    # has full row rank: the decomposition is unique, so it must return the
    # PSD coefficients theta was built from (a transposed or misordered K
    # would not)
    q = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    gamma = rng.standard_normal((q, p))
    assume(np.linalg.cond(gamma) < 100)
    G = rng.standard_normal((q + 1, p, p)) * (rng.random((q + 1, 1, p)) < 0.7)
    Bs = G @ np.swapaxes(G, 1, 2)  # PSD, some singular
    model = _model_from_coefficients(
        Polyhedron(gamma, rng.standard_normal(q)), Bs[0], Bs[1:])
    dec = psd_decompose(model)
    scale = 1 + np.abs(Bs).max()
    assert np.abs(dec.B0 - Bs[0]).max() <= 1e-9 * scale
    assert np.abs(dec.Bi - Bs[1:]).max() <= 1e-9 * scale


def test_psd_decompose_searches_only_without_a_constructive_solution(
        monkeypatch, rng):
    # the L-BFGS search runs only where the solution is not unique and the
    # B0 = 0 start is not a decomposition: once on triangle_channel and on
    # hyperbola_wedge (three facets in the plane), never on cir, on affine
    # images of canonical models or on the triangle-condition simplex
    calls = []
    real = affinvar.polyhedral._minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(affinvar.polyhedral, "_minimize", counting)
    models = [load_fixture("cir"), _triangle_model(rng)]
    for p, m_cnt, n_cnt in ((2, 1, 0), (2, 1, 1), (3, 2, 0), (4, 1, 2),
                            (5, 3, 1)):
        models.append(random_affine_image(
            rng, random_canonical_model(rng, p, m_cnt, n_cnt)))
    for model in models:
        psd_decompose(model)
    assert calls == []
    psd_decompose(load_fixture("hyperbola_wedge"))
    assert len(calls) == 1
    with pytest.raises(NotRepresentableError):
        psd_decompose(load_fixture("triangle_channel"))
    assert len(calls) == 2


def test_psd_decompose_unique_non_psd_solution_is_inconclusive(tmp_path,
                                                                capsys):
    # theta = -5e-7 + 1000 x on {x >= 0}: the unique solution has
    # B0 = -5e-7, below the PSD floor of its block but too small against
    # theta's scale to prove that no decomposition exists
    poly = Polyhedron(np.array([[1.0]]), np.zeros(1))
    model = ModelSpec(1, AffineVectorField(np.array([[-1.0]]), np.ones(1)),
                      AffineMatrixField([[-5e-7]], [[[1000.0]]]), poly)
    with pytest.raises(NumericalFailureError):
        psd_decompose(model)
    path = tmp_path / "model.json"
    save_model(model, path)
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code != 3
    assert json.loads(out)["decompose"]["status"] == "inconclusive"


def test_psd_decompose_inconsistent_coefficient_system():
    # theta varies along a direction the facets cannot see: no affine
    # combination of the facet functionals reconstructs it
    tri3 = Polyhedron(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [-1.0, -1.0, 0.0]]),
                      np.array([0.0, 0.0, 1.0]))
    A = np.zeros((3, 3, 3))
    A[2][2, 2] = 1.0  # depends on x_3, which is invisible to the facets
    theta = AffineMatrixField(np.eye(3), A)
    model = ModelSpec(3, AffineVectorField(np.zeros((3, 3)), np.zeros(3)),
                      theta, tri3)
    with pytest.raises(NotRepresentableError) as exc:
        psd_decompose(model)
    assert exc.value.diagnostic["kind"] == "inconsistent-system"


def test_psd_decompose_affine_image_of_diagonal_model(rng):
    # an affine transformation of a diagonal-diffusion canonical model is
    # always representable with PSD facet coefficients
    for _ in range(8):
        p = int(rng.integers(2, 5))
        m_cnt = int(rng.integers(1, p + 1))
        base = random_canonical_model(rng, p, m_cnt, 0)
        pushed = random_affine_image(rng, base)
        dec = psd_decompose(pushed)
        rec = dec.reconstruct(pushed.state_space)
        scale = 1 + np.abs(pushed.diffusion.A0).max()
        assert np.abs(rec.A0 - pushed.diffusion.A0).max() <= 1e-7 * scale
        assert dec.min_eigenvalue() >= -1e-7 * scale


# ---------------------------------------------------------------------------
# triangle condition
# ---------------------------------------------------------------------------

def test_triangle_condition_simplex():
    tri = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                     np.array([0.0, 0.0, 1.0]))
    assert check_triangle_condition(tri)


def test_triangle_condition_square_vacuous():
    # every two-of-three facet system of the square is inconsistent, so the
    # implication holds vacuously for each facet
    square = Polyhedron(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([0.0, 0.0, 1.0, 1.0]))
    assert check_triangle_condition(square)


def test_triangle_condition_single_facet_fails():
    half = Polyhedron(np.array([[1.0]]), np.zeros(1))
    assert not check_triangle_condition(half)


def test_triangle_condition_slab():
    slab = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, 1.0]))
    assert check_triangle_condition(slab)


def test_triangle_channel_fails_triangle_condition():
    m = load_fixture("triangle_channel")
    assert not check_triangle_condition(m.state_space)


# ---------------------------------------------------------------------------
# diagonalization by dimension extension
# ---------------------------------------------------------------------------

def _canonical_model_from(theta_A0, theta_A, q, p, b=None):
    gamma = np.zeros((q, p))
    gamma[:, :q] = np.eye(q)
    drift = AffineVectorField(np.zeros((p, p)),
                              b if b is not None else np.ones(p))
    return ModelSpec(p, drift, AffineMatrixField(theta_A0, theta_A),
                     Polyhedron(gamma, np.zeros(q)))


def test_diagonalize_extended_zero_lambdas():
    # theta = diag(x_1, 0): Psi = 0, extension is zero padding
    A = np.zeros((2, 2, 2))
    A[0][0, 0] = 1.0
    model = _canonical_model_from(np.zeros((2, 2)), A, 1, 2)
    dec = psd_decompose(model)
    ext = diagonalize_extended(model, dec)
    assert np.abs(ext.model.diffusion.A0[2:, 2:]).max() <= 1e-12


def test_diagonalize_extended_scalar_lambda():
    # q = 1, Psi(x_1) = x_1: w(x) = (1, x_1), extended diagonal carries x_1
    A = np.zeros((2, 2, 2))
    A[0][0, 0] = 1.0
    A[0][1, 1] = 1.0
    model = _canonical_model_from(np.zeros((2, 2)), A, 1, 2)
    dec = psd_decompose(model)
    ext = diagonalize_extended(model, dec)
    # extended dimension 1 + 2*1 + 1 = 4, diagonal (x1, 1, x1, 0)
    assert ext.model.dimension == 4
    y = np.array([2.5, 9.0, 9.0, 9.0])
    diag = np.diagonal(ext.model.diffusion(y))
    assert diag[0] == pytest.approx(2.5)
    assert diag[1] == pytest.approx(1.0)
    assert diag[2] == pytest.approx(2.5)
    assert diag[3] == pytest.approx(0.0)


def test_diagonalize_extended_random_congruence(rng):
    model = random_canonical_model(rng, 4, 1, 1)
    dec = psd_decompose(model)
    ext = diagonalize_extended(model, dec)
    R = ext.recovery
    for _ in range(25):
        y = np.abs(rng.standard_normal(ext.model.dimension))
        lhs = R @ ext.model.diffusion(y) @ R.T
        rhs = model.diffusion(R @ y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + np.abs(rhs).max())


def test_diagonalize_extended_requires_canonical_coordinates():
    m = load_fixture("hyperbola_wedge")
    dec = psd_decompose(m)
    with pytest.raises(PreconditionFailedError):
        diagonalize_extended(m, dec)


# ---------------------------------------------------------------------------
# classical model
# ---------------------------------------------------------------------------

def _cir_classical(b1: float):
    m = load_fixture("cir")
    model = ModelSpec(1, AffineVectorField(np.array([[-1.0]]), np.array([b1])),
                      m.diffusion, m.state_space)
    cm = ClassicalModel(np.array([[1.0]]), np.array([[1.0]]), np.array([0.0]))
    return model, cm


def test_check_classical_cir():
    model, cm = _cir_classical(1.0)
    rep = check_classical(model, cm)
    assert rep.reconstruction_ok and rep.containment_ok
    assert rep.w1.all() and rep.w2_ok.all()
    assert rep.feller_ok.all()           # 1 >= 1/2
    assert rep.theta_pos_nonempty
    assert rep.admissible and rep.open_invariant


def test_check_classical_cir_feller_fails():
    model, cm = _cir_classical(0.25)
    rep = check_classical(model, cm)
    assert rep.w2_ok.all()               # 0.25 >= 0 on the facet
    assert not rep.feller_ok.all()       # 0.25 < 1/2
    assert rep.admissible and not rep.open_invariant


@pytest.mark.parametrize("Sigma,beta,alpha,expected", [
    (np.eye(1), np.eye(1), np.array([-2.0]), True),
    (np.eye(2), np.zeros((2, 2)), np.array([1.0, 2.0]), True),
    (np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2), False),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2), np.zeros(2), False),
    (np.eye(2), np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]),
     False),
], ids=["far-from-interior-point", "constant-v", "zero-v-row",
        "singular-sigma", "v-positive-nowhere"])
def test_check_classical_theta_positive_exact(Sigma, beta, alpha, expected):
    # theta(x) > 0 somewhere inside the orthant iff Sigma is nonsingular and
    # {v > 0} meets the interior.  theta(x) = x - 2 on {x >= 0} is positive
    # only beyond any sphere of Chebyshev radius around the interior point
    # x = 1; {x_1 > 0} and {-x_1 - 1 > 0} do not meet
    p = Sigma.shape[0]
    cm = ClassicalModel(Sigma, beta, alpha)
    model = ModelSpec(p, AffineVectorField(-np.eye(p), np.ones(p)),
                      cm.reconstructed(), Polyhedron(np.eye(p), np.zeros(p)))
    assert check_classical(model, cm).theta_pos_nonempty is expected


def test_check_classical_two_dimensional_reduces_to_signs():
    theta = AffineMatrixField(np.zeros((2, 2)),
                              [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    drift = AffineVectorField(np.array([[-1.0, 0.5], [0.2, -1.0]]),
                              np.array([1.0, 1.0]))
    model = ModelSpec(2, drift, theta, Polyhedron(np.eye(2), np.zeros(2)))
    cm = ClassicalModel(np.eye(2), np.eye(2), np.zeros(2))
    rep = check_classical(model, cm)
    assert rep.admissible
    assert rep.feller_ok.all()           # b = (1, 1) >= 1/2 with a_ij >= 0
    flags = check_open_orthant_invariance(drift)
    assert flags.all()


def test_check_open_orthant_invariance_examples():
    f1 = check_open_orthant_invariance(
        AffineVectorField(-np.eye(2), np.array([1.0, 1.0])))
    assert f1.tolist() == [True, True]
    f2 = check_open_orthant_invariance(
        AffineVectorField(-np.eye(2), np.array([0.5, 0.4])))
    assert f2.tolist() == [True, False]
    f3 = check_open_orthant_invariance(
        AffineVectorField(np.array([[-1.0, -0.1], [0.0, -1.0]]),
                          np.array([1.0, 1.0])))
    assert f3.tolist() == [False, True]
