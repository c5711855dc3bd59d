import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affinvar.polyhedral
from affinvar.cli import main
from affinvar.core import (AffineMatrixField, AffineScalar, AffineVectorField,
                           ModelSpec, Polyhedron)
from affinvar.convex import interior_point, minimalize
from affinvar.errors import (ModelInconsistencyError, NotAdmissibleError,
                             NotRepresentableError, NumericalFailureError,
                             PreconditionFailedError)
from affinvar.modelio import load_fixture, save_model
from affinvar.polyhedral import (ExtendedModel, _coupling_rows,
                                 _diffusion_condition, _drift_rows,
                                 _verify_extension, build_square_root,
                                 canonical_transform,
                                 check_open_facet_invariance,
                                 check_polyhedral_admissibility,
                                 check_triangle_condition, diagonalize_extended,
                                 lift_drift, psd_decompose, transform_model)
from affinvar.tolerances import TOL
from conftest import (coefficient_multiple, random_affine_image,
                      random_canonical_model)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_cir_admissible():
    rep = check_polyhedral_admissibility(load_fixture("cir"))
    assert rep.admissible
    diffusion, drift = rep.checks
    assert diffusion.name == "facet-0-diffusion"
    assert diffusion.margin == pytest.approx(1.0)   # c_0
    assert drift.name == "facet-0-drift" and drift.certificate is not None


def test_drift_rows_are_the_row_functionals_bit_for_bit():
    # every facet's drift functional from one stacked product has the bits
    # of drift.row_functional(gamma_i), which the certificates were solved
    # from facet by facet
    rng = np.random.default_rng(17)
    for name in ("cir", "triangle_channel", "hyperbola_wedge"):
        fixture = load_fixture(name)
        for model in [fixture] + [random_affine_image(rng, fixture, 1e3)
                                  for _ in range(5)]:
            poly = model.state_space
            want = np.stack([model.drift.row_functional(g).coefficients()
                             for g in poly.gamma])
            assert _drift_rows(model.drift, poly).tobytes() == want.tobytes()


def test_triangle_channel_admissible():
    rep = check_polyhedral_admissibility(load_fixture("triangle_channel"))
    assert rep.admissible
    # diffusion rows vanish identically: all coupling rows zero
    for fc in rep.checks[::2]:
        assert np.abs(fc.certificate).max() <= 1e-10


def test_cir_outward_drift_inadmissible():
    m = load_fixture("cir")
    bad = ModelSpec(1, AffineVectorField(np.array([[-1.0]]), np.array([-1.0])),
                    m.diffusion, m.state_space)
    rep = check_polyhedral_admissibility(bad)
    assert not rep.admissible
    diffusion, drift = rep.checks
    assert diffusion.passed and not drift.passed
    assert abs(drift.witness[0]) <= 1e-6  # witness x = 0 with gamma mu(0) = -1


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
    assert np.allclose(ct.map.L, np.eye(2))
    assert np.allclose(ct.map.ell, 0)
    assert ct.psi.size == 1 and np.abs(ct.psi.A0).max() <= 1e-12


def test_canonical_transform_cir_round_trip():
    ct = canonical_transform(load_fixture("cir"))
    assert (ct.m, ct.n) == (1, 0)
    assert np.allclose(ct.map.L, [[1.0]]) and np.allclose(ct.map.ell, [0.0])


def test_canonical_transform_triangle_channel():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    assert (ct.m, ct.n) == (0, 2)
    # Psi(y) = [[y_1 + 1/2, 1], [1, y_2 + 1/2]]
    assert np.allclose(ct.psi.A0, [[0.5, 1.0], [1.0, 0.5]], atol=1e-9)
    assert np.allclose(ct.psi.A[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(ct.psi.A[1], [[0.0, 0.0], [0.0, 1.0]], atol=1e-9)
    # transformed state space: first two facets are coordinates, third the cut
    tp = ct.model.state_space
    assert np.allclose(tp.gamma[:2], np.eye(4)[:2], atol=1e-12)
    assert np.allclose(tp.delta[:2], 0, atol=1e-12)


def test_transform_model_is_the_canonical_model():
    # the model in y is built once, by canonical_transform
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    assert transform_model(m, ct) is ct.model
    assert ct.model.state_space.minimal


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
    perm_scale = np.abs(ct.map.L)
    assert np.count_nonzero(perm_scale > 1e-9) == 3  # one entry per row
    assert np.abs(ct.map.ell).max() <= 1e-12
    canon = model.diffusion.congruence(ct.map)
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
        assert np.array_equal(other.map.L, ct.map.L)
        assert np.array_equal(other.map.ell, ct.map.ell)
        for name in ("B", "facet_scale"):
            assert np.array_equal(getattr(other, name), getattr(ct, name)), name
        assert np.array_equal(other.psi.A0, ct.psi.A0)
        assert np.array_equal(other.psi.A, ct.psi.A)


def _greedy_facet_order(model: ModelSpec) -> tuple[int, int, list[int]]:
    """(m, n, facet order) of the canonical transform by the greedy rank
    rule on the minimal polyhedron: M the square-root facets, rescaled to
    c_i = 1, and a facet that is not one joins N, in order, when its row
    adds rank to the rows of M and N taken so far."""
    poly = minimalize(model.state_space)
    _, c, _, root, _ = _diffusion_condition(model.diffusion, poly)
    M = np.flatnonzero(root).tolist()
    scale = np.ones(poly.n_facets)
    scale[M] = 1.0 / c[M]
    rows = poly.gamma * scale[:, None]

    def rank(facets):
        return int(np.linalg.matrix_rank(rows[facets])) if facets else 0

    N = []
    for i in range(poly.n_facets):
        if i not in M and rank(M + N + [i]) > rank(M + N):
            N.append(i)
    rest = [i for i in range(poly.n_facets) if i not in M + N]
    return len(M), len(N), M + N + rest


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_canonical_facets_match_the_greedy_rank_rule(p, data, seed):
    # diffusion diag(x_1, ..., x_m, 0, ...) on {x_M >= 0} cut by k facets of
    # the other r = p - m coordinates, some of them duplicated or combined
    # from others, around an interior point x*, seen through an affine
    # image with its rows rescaled and shuffled: with k <= r and no copies
    # the rows are independent and every non-root facet is in N, else the
    # greedy rank rule picks N on the minimal polyhedron
    m = data.draw(st.integers(0, p - 1))
    r = p - m
    k = data.draw(st.integers(1, r + 1))
    copies = data.draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    rows = [np.concatenate([np.zeros(m), g])
            for g in rng.standard_normal((k, r))]
    for _ in range(copies):  # a duplicate or a combination of two rows
        i, j = rng.integers(0, len(rows), 2)
        rows.append(rows[i] if rng.random() < 0.5 else
                    rng.uniform(-1.0, 1.0) * rows[i] + rng.uniform(0.1, 1.0) * rows[j])
    gamma = np.vstack([np.eye(p)[:m]] + [np.array(rows)])
    x_star = np.concatenate([np.ones(m), rng.standard_normal(r)])
    delta = rng.uniform(0.1, 1.0, gamma.shape[0]) - gamma @ x_star
    delta[:m] = 0.0
    assume(np.all(np.linalg.norm(gamma, axis=1) > 1e-3))
    A = np.zeros((p, p, p))
    A[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    model = random_affine_image(rng, ModelSpec(
        p, AffineVectorField(np.zeros((p, p)), np.zeros(p)),
        AffineMatrixField(np.zeros((p, p)), A), Polyhedron(gamma, delta)))
    order = rng.permutation(gamma.shape[0])
    scale = rng.uniform(0.5, 2.0, gamma.shape[0])
    poly = model.state_space
    model = ModelSpec(p, model.drift, model.diffusion,
                      Polyhedron(poly.gamma[order] * scale[order, None],
                                 poly.delta[order] * scale[order]))
    ct = canonical_transform(model)
    assert (ct.m, ct.n, ct.facet_order.tolist()) == \
        _greedy_facet_order(model)


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
    B, c, resid = _coupling_rows(theta, poly)
    ok = resid <= TOL.feasibility
    for i in range(q):
        g = poly.gamma[i]
        oracle = [coefficient_multiple(
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


def test_minimize_scale_free_stop():
    # |x - c|^2 with c = 1e-8 (1, 2) starts at 5e-16: a stopping floor of
    # max(f, 1) would end the search at once, the relative one goes on
    # until the gradient vanishes
    c = 1e-8 * np.array([1.0, 2.0])
    x = affinvar.polyhedral._minimize(
        lambda x: (float((x - c) @ (x - c)), 2.0 * (x - c), False),
        np.zeros(2))
    assert np.abs(x - c).max() <= 1e-6 * np.abs(c).max()


def test_minimize_rosenbrock_and_done():
    def rosenbrock(x):
        f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                      200 * (x[1] - x[0] ** 2)])
        return f, g, False

    x = affinvar.polyhedral._minimize(rosenbrock, np.array([-1.2, 1.0]))
    assert np.abs(x - 1.0).max() <= 1e-6
    # `done` on the start point ends the search before any step
    calls = []

    def done_at_once(x):
        calls.append(1)
        return (*rosenbrock(x)[:2], True)

    start = np.array([-1.2, 1.0])
    assert np.array_equal(affinvar.polyhedral._minimize(done_at_once, start),
                          start)
    assert len(calls) == 1


def _coefficient_system(model: ModelSpec):
    """K and the stacked coefficients R of psd_decompose's system K X = R,
    over the model's minimal polyhedron."""
    poly = affinvar.polyhedral._interior_polyhedron(model)
    p = poly.dim
    K = np.block([[np.ones((1, 1)), poly.delta[None]],
                  [np.zeros((p, 1)), poly.gamma.T]])
    R = np.concatenate([model.diffusion.A0[None],
                        model.diffusion.A]).reshape(p + 1, p * p)
    return K, R


def _assert_decomposes(model: ModelSpec, dec) -> None:
    rec = dec.reconstruct(affinvar.polyhedral._interior_polyhedron(model))
    scale = 1 + max(np.abs(model.diffusion.A0).max(),
                    np.abs(model.diffusion.A).max())
    assert np.abs(rec.A0 - model.diffusion.A0).max() <= 1e-8 * scale
    assert np.abs(rec.A - model.diffusion.A).max() <= 1e-8 * scale
    assert dec.min_eigenvalue() >= -1e-8 * scale


def _assert_separates(model: ModelSpec, separator: np.ndarray) -> None:
    """The separator S proves that no decomposition exists: it is blockwise
    NSD and lies in the row space of K, S = K^T W, so every solution X of
    K X = R has <S, X> = <W, R> > 0, while <S, B> <= 0 for PSD blocks B."""
    K, R = _coefficient_system(model)
    S = separator.reshape(K.shape[1], -1)
    norm = float(np.linalg.norm(S))
    W = np.linalg.lstsq(K.T, S, rcond=None)[0]
    assert np.linalg.norm(K.T @ W - S) <= 1e-6 * norm
    assert np.linalg.eigvalsh(separator).max() <= 1e-12 * norm
    assert float(np.sum(W * R)) >= 0.5 * norm ** 2


def test_psd_decompose_hyperbola_wedge_image_5_decomposes():
    # the 6th seed-11 affine image of hyperbola_wedge: a search whose
    # stopping floor is max(f, 1) stops short of the PSD floor there and
    # reports the search inconclusive
    rng = np.random.default_rng(11)
    for _ in range(6):
        model = random_affine_image(rng, load_fixture("hyperbola_wedge"))
    _assert_decomposes(model, psd_decompose(model))


def test_psd_decompose_affine_images_of_search_fixtures():
    # 20 images at each of seeds 11-15: every image of hyperbola_wedge
    # decomposes, and every image of triangle_channel is not representable,
    # with a separating functional that proves it
    for seed in range(11, 16):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            model = random_affine_image(rng, load_fixture("hyperbola_wedge"))
            _assert_decomposes(model, psd_decompose(model))
        rng = np.random.default_rng(seed)
        for _ in range(20):
            model = random_affine_image(rng, load_fixture("triangle_channel"))
            with pytest.raises(NotRepresentableError) as exc:
                psd_decompose(model)
            assert exc.value.diagnostic["kind"] == "separating-functional"
            _assert_separates(model, exc.value.diagnostic["separator"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(2, 3), extra=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_psd_decompose_thin_blocks_decompose(p, extra, seed):
    # theta = B0 + sum_i B_i u_i built from PSD blocks of random rank 0..p
    # on q = p + 1 or p + 2 facets around the origin: gamma is rank
    # deficient, the decomposition is not unique, and the search must find
    # one, never reporting it not representable or inconclusive.  The
    # search is not a decision procedure: where the blocks meet the PSD
    # cone's boundary in many directions it can stall at the rounding
    # floor of its line search, on a fraction of a percent of such draws,
    # so the draws are derandomized (a fixed set)
    rng = np.random.default_rng(seed)
    q = p + extra
    gamma = rng.standard_normal((q, p))
    delta = rng.uniform(0.5, 2.0, q)
    Bs = np.array([G @ G.T for G in (rng.standard_normal((p, r))
                                     for r in rng.integers(0, p + 1, q + 1))])
    model = _model_from_coefficients(Polyhedron(gamma, delta), Bs[0], Bs[1:])
    _assert_decomposes(model, psd_decompose(model))


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


def test_extension_with_a_wrong_drift_is_a_failed_precondition(rng):
    # R a_ext = a R and R b_ext = b on coefficients, not only the congruence
    model = random_canonical_model(rng, 4, 1, 1)
    ext = diagonalize_extended(model, psd_decompose(model))
    drift = ext.model.drift
    a_ext = drift.a.copy()
    a_ext[0, 0] += 1e-3
    wrong = ExtendedModel(ModelSpec(ext.model.dimension,
                                    AffineVectorField(a_ext, drift.b),
                                    ext.model.diffusion, ext.model.state_space),
                          ext.recovery)
    with pytest.raises(PreconditionFailedError, match="drift"):
        _verify_extension(wrong, model)


def test_diagonalize_extended_requires_canonical_coordinates():
    m = load_fixture("hyperbola_wedge")
    dec = psd_decompose(m)
    with pytest.raises(PreconditionFailedError):
        diagonalize_extended(m, dec)


# ---------------------------------------------------------------------------
# open-interior invariance
# ---------------------------------------------------------------------------

DIAG_X = AffineMatrixField(np.zeros((2, 2)),
                           [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
# x_1 [[3, 2], [2, 2]] = Sigma diag(v) Sigma^T with Sigma = [[1, 1], [0, 1]]
# and v = (x_1, 2 x_1): the facet multiple c_1 is 3, theta_11's coefficient
# of x_1, not |Sigma_1|^2 = 2
COUPLED_V = AffineMatrixField(np.zeros((2, 2)),
                              [[[3.0, 2.0], [2.0, 2.0]], np.zeros((2, 2))])


def _coupled_v_model(b1: float) -> ModelSpec:
    """theta = COUPLED_V on {x_1 >= 0} in R^2, with drift
    mu(x) = (b1 - x_1, -x_2)."""
    return ModelSpec(2, AffineVectorField(-np.eye(2), np.array([b1, 0.0])),
                     COUPLED_V, Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1)))


@pytest.mark.parametrize("theta,facets,a,b,flags", [
    (DIAG_X, 2, -np.eye(2), [1.0, 1.0], [True, True]),
    (DIAG_X, 2, -np.eye(2), [0.5, 0.4], [True, False]),
    (DIAG_X, 2, [[-1.0, -0.1], [0.0, -1.0]], [1.0, 1.0], [False, True]),
    (DIAG_X, 2, [[-1.0, 0.5], [0.2, -1.0]], [1.0, 1.0], [True, True]),
    (COUPLED_V, 1, -np.eye(2), [1.2, 0.0], [False]),
    (COUPLED_V, 1, -np.eye(2), [1.6, 0.0], [True]),
], ids=["both-pass", "b2-below-half", "a12-negative", "a-offdiag-positive",
        "coupled-v-b1.2", "coupled-v-b1.6"])
def test_open_facet_invariance_orthant_examples(theta, facets, a, b, flags):
    # theta = diag(x) on the orthant: facet i is open-invariant iff
    # a_ij >= 0 for j != i and b_i >= 1/2; on {x_1 >= 0} with
    # theta = x_1 [[3, 2], [2, 2]] (two coupled v_j) the bound is b_1 >= 3/2
    model = ModelSpec(2, AffineVectorField(np.array(a, dtype=float),
                                           np.array(b)),
                      theta, Polyhedron(np.eye(2)[:facets], np.zeros(facets)))
    checks = check_open_facet_invariance(model)
    assert [fc.passed for fc in checks] == flags
    for i, fc in enumerate(checks):
        half = 0.5 * theta.A[i][i, i]   # c_i / 2
        assert fc.name == f"facet-{i}-open"
        assert (fc.certificate is not None) is fc.passed
        assert (fc.witness is not None) is not fc.passed
        if fc.passed:   # the certificate's constant is b_i - c_i/2, the margin
            assert fc.certificate.c == fc.margin == pytest.approx(b[i] - half)
        else:           # and the witness a facet point where it is negative,
            x = fc.witness  # on the facet to rounding
            assert abs(x[i]) <= 1e-12 * max(1.0, np.abs(x).max())
            assert model.drift(x)[i] - half < 0.0


def test_brownian_half_line_is_not_admissible(tmp_path, capsys):
    # theta = 1 on {x >= 0}: Brownian noise at x = 0 leaves the half-line,
    # whatever the drift, so the diffusion condition fails on the facet
    model = ModelSpec(1, AffineVectorField([[-1.0]], [1.5]),
                      AffineMatrixField([[1.0]], [[[0.0]]]),
                      Polyhedron([[1.0]], [0.0]))
    diffusion, drift = check_polyhedral_admissibility(model).checks
    assert not diffusion.passed and drift.passed
    # the row (1) is no multiple of u_0 = x: its relative residual is 1/2
    assert diffusion.margin == pytest.approx(-0.5)
    path = tmp_path / "brownian.json"
    save_model(model, path)
    assert main(["validate", str(path)]) == 1
    checks = {c["name"]: c["passed"]
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["facet-0-diffusion"] is False


def test_open_facet_witness_on_the_facet_when_the_drift_is_constant_there(
        lp_calls):
    # gamma_0 mu - c_0 / 2 = 1.2 - x_1 - 3/2 is -0.3 all along the facet
    # {x_1 = 0}: the witness is the facet's least-distance point (0, 0), not
    # an LP's box corner (0, -1e6), and no LP runs: the NNLS residual says
    # that no certificate exists
    model = _coupled_v_model(1.2)
    (fc,) = check_open_facet_invariance(model)
    assert not fc.passed and fc.witness is not None
    x = fc.witness
    assert np.abs(x).max() <= 1e-12
    assert model.drift(x)[0] - 1.5 == pytest.approx(-0.3, abs=1e-12)
    assert lp_calls == []


def test_open_facet_invariance_cir_margin():
    (fc,) = check_open_facet_invariance(load_fixture("cir"))
    assert fc.passed and fc.certificate.c == pytest.approx(0.5)  # b - 1/2


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_open_facet_invariance_is_the_canonical_rule_in_every_frame(p, data,
                                                                    seed):
    q = data.draw(st.integers(1, p))
    _assert_open_facet_rule(p, q, data.draw(st.integers(0, q)), seed)


@pytest.mark.parametrize("p,q,m_cnt,seed", [
    (3, 2, 0, 6584), (2, 2, 2, 3800683083), (3, 2, 2, 731542325),
    (4, 3, 3, 237449204)])
def test_open_facet_invariance_recorded_witness_draws(p, q, m_cnt, seed):
    # draws whose facet witness in the affine image missed its own row
    # d <= -eps by eps, where the least-distance NNLS had refused a nearly
    # dependent column and stopped off its optimum
    _assert_open_facet_rule(p, q, m_cnt, seed)


def _assert_open_facet_rule(p: int, q: int, m_cnt: int, seed: int):
    # in canonical coordinates facet i is open-invariant iff a_ij >= 0 for
    # the other facet coordinates j and b_i >= c_i/2, with c_i = 1 on the
    # square-root facets and 0 on the others; an affine image keeps every
    # verdict.  Quarter-integer facet drifts put some b_i exactly on the bound
    rng = np.random.default_rng(seed)
    base = random_canonical_model(rng, p, m_cnt, q - m_cnt)
    a, b = base.drift.a.copy(), base.drift.b.copy()
    a[:q, :q] = rng.integers(-1, 3, (q, q)) / 4.0
    b[:q] = rng.integers(0, 5, q) / 4.0
    model = ModelSpec(p, AffineVectorField(a, b), base.diffusion,
                      base.state_space)
    expected = [bool(np.all(np.delete(a[i, :q], i) >= 0)
                     and b[i] >= (0.5 if i < m_cnt else 0.0))
                for i in range(q)]
    for frame in (model, random_affine_image(rng, model)):
        checks = check_open_facet_invariance(frame)
        assert [fc.passed for fc in checks] == expected
        for i, fc in enumerate(checks):
            if fc.witness is not None:  # a facet point where the drift is low
                x, g = fc.witness, frame.state_space.gamma[i]
                assert frame.state_space.facet(i)(x) == pytest.approx(
                    0.0, abs=1e-9 * (1 + np.abs(x).max()))
                c = 1.0 if i < m_cnt else 0.0
                assert g @ frame.drift(x) - c / 2 < 0


@pytest.mark.parametrize("fixture,sign", [("hyperbola_wedge", 1.0),
                                          ("cir", -1.0)])
def test_open_facet_invariance_needs_the_diffusion_condition(fixture, sign):
    # no facet of hyperbola_wedge has a vanishing diffusion row, and -theta
    # on cir has the negative multiple c = -1, where b - c/2 would pass
    m = load_fixture(fixture)
    m = ModelSpec(m.dimension, m.drift, AffineMatrixField(
        sign * m.diffusion.A0, sign * m.diffusion.A), m.state_space)
    assert not any(fc.passed
                   for fc in check_polyhedral_admissibility(m).checks[::2])
    for fc in check_open_facet_invariance(m):
        assert not fc.passed and fc.certificate is None and fc.witness is None
