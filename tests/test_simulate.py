import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from affinvar.core import (AffineMatrixField, AffineVectorField, ModelSpec,
                           Polyhedron, QuadraticForm, QuadraticSpace, _coldot)
from affinvar import simulate
from affinvar.errors import PreconditionFailedError, SigmaMismatchError
from affinvar.modelio import load_fixture
from affinvar.polyhedral import (_canonical_facets, build_square_root,
                                 canonical_transform, transform_model)
from affinvar.quadratic import (ParabolicDecomposition, conical_basis,
                                cone_square_root, eta_matrix,
                                parabolic_square_root,
                                parabolic_theta_decompose, zeta_parabolic)
from affinvar.simulate import (PathEnsemble, Scheme, SimConfig, _expm,
                               _noise_stream, invariance_monte_carlo,
                               make_projector, mean_ode, simulate_paths,
                               simulate_summary, simulation_frame)
from conftest import random_affine_image, random_canonical_model


def _cir_setup(b=1.0):
    m = load_fixture("cir")
    model = ModelSpec(1, AffineVectorField(np.array([[-1.0]]), np.array([b])),
                      m.diffusion, m.state_space)
    ct = canonical_transform(m)
    return model, build_square_root(ct)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0])
def test_simconfig_rejects_bad_horizon(horizon):
    with pytest.raises(PreconditionFailedError):
        SimConfig(np.array([0.7]), horizon, 5, 10, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 2.0, True])
def test_simconfig_rejects_seed_outside_64_bits(seed):
    # -1 and 2^64 would key the same Philox streams as 2^64 - 1 and 0; a
    # seed is an integer, not a float or a bool
    with pytest.raises(PreconditionFailedError):
        SimConfig(np.array([0.7]), 1.0, 5, 10, seed=seed)
    for ok in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int32(3)):
        assert SimConfig(np.array([0.7]), 1.0, 5, 10, seed=ok).seed == ok


@pytest.mark.parametrize("field", ["steps", "n_paths"])
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True])
def test_simconfig_rejects_non_integral_sizes(field, value):
    # a float would fail deep in the kernel; a bool is no size
    sizes = {"steps": 5, "n_paths": 10, field: value}
    with pytest.raises(PreconditionFailedError):
        SimConfig(np.array([0.7]), 1.0, seed=1, **sizes)
    sizes[field] = np.int64(3)
    assert getattr(SimConfig(np.array([0.7]), 1.0, seed=1, **sizes),
                   field) == 3


def test_constant_paths_without_noise_or_drift():
    theta = AffineMatrixField(np.zeros((1, 1)), np.zeros((1, 1, 1)))
    model = ModelSpec(1, AffineVectorField(np.zeros((1, 1)), np.zeros(1)),
                      theta, Polyhedron(np.array([[1.0]]), np.zeros(1)))
    cfg = SimConfig(np.array([0.7]), 1.0, 50, 20, seed=1)
    ens = simulate_paths(model, lambda x: np.zeros(x.shape[:-1] + (1, 1)), cfg)
    assert np.all(ens.states == 0.7)


def test_cir_mean_from_stationary_start():
    model, sigma = _cir_setup()
    cfg = SimConfig(np.array([1.0]), 1.0, 500, 20_000, seed=7)
    summ = simulate_summary(model, sigma, cfg)
    mean = summ.final_states.mean()
    se = summ.final_states.std() / np.sqrt(cfg.n_paths)
    assert abs(mean - 1.0) <= 3 * se


def test_mean_ode_examples():
    m = load_fixture("cir")
    null = ModelSpec(1, AffineVectorField(np.zeros((1, 1)), np.zeros(1)),
                     m.diffusion, m.state_space)
    _, traj = mean_ode(null, np.array([0.3]), 2.0)
    assert np.all(traj == 0.3)
    _, traj = mean_ode(m, np.array([0.0]), 1.0)
    assert traj[-1, 0] == pytest.approx(1 - np.exp(-1), abs=1e-10)


def test_mean_ode_matches_matrix_exponential(rng):
    for _ in range(5):
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((p, p)) - 2 * np.eye(p)
        b = rng.standard_normal(p)
        x0 = rng.standard_normal(p)
        theta = AffineMatrixField(np.eye(p), np.zeros((p, p, p)))
        model = ModelSpec(p, AffineVectorField(a, b), theta,
                          Polyhedron(np.zeros((0, p)), np.zeros(0)))
        _, traj = mean_ode(model, x0, 1.0)
        E = scipy.linalg.expm(a)
        closed = E @ x0 + np.linalg.solve(a, (E - np.eye(p)) @ b)
        assert np.abs(traj[-1] - closed).max() <= 1e-8


def _augmented_generator(a, b) -> np.ndarray:
    p = len(b)
    G = np.zeros((p + 1, p + 1))
    G[:p, :p] = a
    G[:p, p] = b
    return G


@pytest.mark.parametrize("h", [1e-4, 1.0, 10.0])
@pytest.mark.parametrize("fixture", ["cir", "triangle_channel", "parabola3",
                                     "cone3"])
def test_expm_matches_scipy_on_fixture_generators(fixture, h):
    # the propagator of mean_ode: h G has 1-norm up to 25 at h = 10, so
    # the squaring phase runs too
    model = load_fixture(fixture)
    G = h * _augmented_generator(model.drift.a, model.drift.b)
    ref = scipy.linalg.expm(G)
    assert np.abs(_expm(G) - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), norm=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_expm_matches_scipy_on_random_generators(p, norm, seed):
    # random augmented generators scaled to a 1-norm up to 2; beyond that
    # the two differ by up to a few 1e-12, and the error is scipy's (a
    # 50-digit reference puts the numpy Pade within 2e-14)
    rng = np.random.default_rng(seed)
    G = _augmented_generator(rng.standard_normal((p, p)),
                             rng.standard_normal(p))
    G *= norm / np.abs(G).sum(axis=0).max()
    ref = scipy.linalg.expm(G)
    assert np.abs(_expm(G) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_expm_of_a_subnormal_generator():
    # a 1-norm below theta_13 * 2^-1074 once overflowed the scaling exponent
    assert _expm(np.array([[5e-324]])) == pytest.approx(np.eye(1))


def _triangle_setup():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    return transform_model(m, ct), build_square_root(ct)


def test_expm_out_of_range_is_nan_without_warnings():
    # the generator of the cir-overflow model of tools/cli_digests.py, and a
    # smaller one whose squarings overflow: NaN, and no RuntimeWarning
    m = load_fixture("cir")
    model = ModelSpec(1, AffineVectorField(np.array([[1e20]]), m.drift.b),
                      m.diffusion, m.state_space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_expm(np.array([[1e16, 1.0], [0.0, 0.0]]))).all()
        _, mean = mean_ode(model, np.array([1.0]), 0.25, n_steps=1)
    assert np.isnan(mean[-1]).all()


def test_mean_ode_grid_matches_propagator(rng):
    # 7 intervals: the doubling fills 1, 2 and then the last 4 points
    p = 3
    a = rng.standard_normal((p, p)) - np.eye(p)
    b = rng.standard_normal(p)
    x0 = rng.standard_normal(p)
    model = ModelSpec(p, AffineVectorField(a, b),
                      AffineMatrixField(np.eye(p), np.zeros((p, p, p))),
                      Polyhedron(np.zeros((0, p)), np.zeros(0)))
    times, traj = mean_ode(model, x0, 0.7, n_steps=7)
    assert np.allclose(times, np.linspace(0.0, 0.7, 8))
    for t, m in zip(times, traj):
        E = scipy.linalg.expm(a * t)
        exact = E @ x0 + np.linalg.solve(a, (E - np.eye(p)) @ b)
        assert np.abs(m - exact).max() <= 1e-12 * (1 + np.abs(exact).max())


def test_deterministic_and_prefix_stable():
    # cir has a closed-form root; triangle_channel's Psi block is factored
    # row by row, so paths still depend on their own state only
    for (model, sigma), x0 in ((_cir_setup(), [0.5]),
                               (_triangle_setup(), [1.0, 1.0, 0.0, 0.0])):
        cfg = SimConfig(np.array(x0), 1.0, 100, 500, seed=99)
        e1 = simulate_paths(model, sigma, cfg)
        e2 = simulate_paths(model, sigma, cfg)
        assert np.array_equal(e1.states, e2.states)
        # adding paths leaves existing rows untouched
        cfg_big = SimConfig(np.array(x0), 1.0, 100, 800, seed=99)
        e3 = simulate_paths(model, sigma, cfg_big)
        assert np.array_equal(e3.states[:500], e1.states)


def test_noise_stream_is_keyed_philox():
    for seed in (0, 99, -3):
        normals = _noise_stream(seed)
        for step in (5, 0, 5, 123456):
            key = np.array([seed & 0xFFFFFFFFFFFFFFFF, step], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(normals(step, 7, 3),
                                  fresh.standard_normal((7, 3)))


def _parabolic_random_sigma(rng, q, r):
    """A normalized parabolic decomposition with residual block, as in the
    sigma reconstruction criterion: its square root and its theta,
    [[zeta, eta A2], [A2^T eta^T, B]] at the rows x."""
    p = q + r
    A2 = rng.standard_normal(((q - 1) * (q - 2) // 2, r))
    G = rng.standard_normal((r, r))
    B_A = np.zeros((p, r, r))
    B_A[0] = (q - 2) * A2.T @ A2
    dec = ParabolicDecomposition(1.0, np.zeros((q, r)), A2,
                                 AffineMatrixField(G @ G.T, B_A), q, p)
    zeta = zeta_parabolic(p, q)

    def theta(x):
        off = eta_matrix(x[:, :q], q) @ A2
        return np.block([[zeta(x), off], [off.swapaxes(1, 2), dec.B(x)]])

    return parabolic_square_root(dec), theta


def _sigma_cases():
    """(sigma, points (N, p), theta, inside) per canonical root: theta(x)
    is the diffusion that sigma is a root of at the rows x, on the rows
    where inside(x), the state space, holds."""
    rng = np.random.default_rng(31)
    cir_ct = canonical_transform(load_fixture("cir"))
    tri_ct = canonical_transform(load_fixture("triangle_channel"))
    tri = rng.uniform(0.0, 3.0, (60, 4))
    tri[:, 2:] = rng.standard_normal((60, 2))
    tri[:20, 0] = 0.0                      # on a facet
    for name, ct, x in (
            ("cir", cir_ct, rng.uniform(0.0, 3.0, (60, 1))),
            ("triangle_channel", tri_ct, tri_ct.to_canonical(tri))):
        yield pytest.param(build_square_root(ct), x, ct.model.diffusion,
                           ct.model.state_space.contains, id=name)
    for q in (2, 3, 4):
        x = rng.standard_normal((60, q))
        x[:, 0] = np.abs(x[:, 0]) + np.linalg.norm(x[:, 1:], axis=1)
        x[:10, 1:] = 0.0                   # on the axis, y = 0
        x[10:20, 0] = np.linalg.norm(x[10:20, 1:], axis=1)  # on the cone
        yield pytest.param(
            cone_square_root(q), x, conical_basis(q)[0],
            lambda x: x[:, 0] >= np.linalg.norm(x[:, 1:], axis=1),
            id=f"cone{q}")
    parabola3 = load_fixture("parabola3").diffusion
    dec = parabolic_theta_decompose(parabola3, 3)
    for name, (sigma, theta), q, r in (
            ("parabola3", (parabolic_square_root(dec), parabola3), 3, 0),
            ("parabola4+2", _parabolic_random_sigma(rng, 4, 2), 4, 2)):
        y = rng.standard_normal((60, q - 1))
        x = np.hstack([(np.sum(y * y, axis=1) + rng.uniform(0, 2, 60))[:, None],
                       y, rng.standard_normal((60, r))])
        yield pytest.param(
            sigma, x, theta,
            lambda x, q=q: x[:, 0] >= np.sum(x[:, 1:q] ** 2, axis=1), id=name)


@pytest.mark.parametrize("sigma,x,theta,inside", _sigma_cases())
def test_apply_matches_matrix(sigma, x, theta, inside):
    # apply takes and returns columns (p, N); the matrices are row-batched
    z = np.random.default_rng(7).standard_normal(x.shape)
    S = sigma(x)
    want = np.einsum("nij,nj->ni", S, z)
    got = sigma.apply(np.ascontiguousarray(x.T), np.ascontiguousarray(z.T))
    assert got.shape == want.T.shape
    assert np.abs(got - want.T).max() <= 1e-12 * (1 + np.abs(S).max())
    # the matrices are read off apply, so check them against theta too:
    # sigma sigma^T = theta on the state space
    member = inside(x)
    assert member.sum() >= 40
    S, th = S[member], theta(x[member])
    assert np.abs(S @ S.swapaxes(1, 2) - th).max() <= \
        1e-12 * (1 + np.abs(th).max())


@pytest.mark.parametrize("sigma,x,theta,inside", _sigma_cases())
def test_matrix_is_apply_on_the_unit_columns(sigma, x, theta, inside):
    # column j of sigma(x) is sigma.apply(x, e_j), bit for bit, at a point,
    # on a stack of any shape and on no point at all
    p = x.shape[1]
    cols = np.stack([sigma.apply(np.repeat(xi[:, None], p, axis=1), np.eye(p))
                     for xi in x])
    for i in (0, 15, 59):
        assert np.array_equal(sigma(x[i]), cols[i])
    assert np.array_equal(sigma(x[:48].reshape(6, 8, p)),
                          cols[:48].reshape(6, 8, p, p))
    assert sigma(np.zeros((0, p))).shape == (0, p, p)


def test_apply_mismatch_rejected():
    model, sigma = _cir_setup()

    def bad(x):
        return sigma(x)

    bad.apply = lambda x, z: 2.0 * sigma.apply(x, z)
    with pytest.raises(SigmaMismatchError):
        simulate_paths(model, bad, SimConfig(np.array([0.5]), 1.0, 10, 5, seed=0))


def _canonical_case(fixture):
    """Canonical model, sigma evaluator and start point of a fixture."""
    m = load_fixture(fixture)
    if fixture in ("cir", "triangle_channel"):
        ct = canonical_transform(m)
        x0 = [0.5] if fixture == "cir" else [1.0, 1.0, 0.0, 0.0]
        return transform_model(m, ct), build_square_root(ct), np.array(x0)
    if fixture == "parabola3":
        sigma = parabolic_square_root(parabolic_theta_decompose(m.diffusion, 3))
    else:
        sigma = cone_square_root(3)
    return m, sigma, np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("fixture", ["cone3", "triangle_channel"])
def test_row_contract_apply_rejected(fixture):
    # an apply on the (N, p) row contract must not pass the start check
    model, sigma, x0 = _canonical_case(fixture)

    def bad(x):
        return sigma(x)

    bad.apply = lambda x, z: np.einsum("nij,nj->ni", sigma(x), z)
    with pytest.raises(SigmaMismatchError):
        simulate_paths(model, bad, SimConfig(x0, 1.0, 10, 5, seed=0))


@pytest.mark.parametrize("coords", [(0, 1), ()], ids=["coords0", "coords4"])
def test_polyhedral_projector_clamps_facet_coordinates(coords):
    # the leading facet coordinates are clamped at zero, through one slice,
    # and the input is left as it was
    space = Polyhedron(np.eye(3)[list(coords)], np.zeros(len(coords)))
    x = np.random.default_rng(4).standard_normal((3, 50))
    before = x.copy()
    want = x.copy()
    for j in coords:
        want[j] = np.maximum(want[j], 0.0)
    assert np.array_equal(make_projector(space)(x), want)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("gamma,delta", [
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0]),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0]),
    ([[0.0, 0.0, 1.0]], [0.0]),
    ([[1.0, 0.0, 0.0], [-1.0, -1.0, 0.0]], [0.0, 1.0])],
    ids=["coords12", "coords02", "coords2", "cut-past-k"])
def test_polyhedral_projector_refuses_other_layouts(gamma, delta):
    # coordinate facets that are not the leading coordinates, or a cut with
    # a coefficient beyond them, are not the layout R^m_+ x C x R^r of a
    # canonical model: full truncation refuses them instead of clamping by
    # position
    space = Polyhedron(np.array(gamma), np.array(delta))
    assert _canonical_facets(space) is None
    with pytest.raises(PreconditionFailedError, match="canonical layout"):
        make_projector(space)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=st.sampled_from(["cir", "triangle_channel", "random"]),
       p=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_projector_clamps_the_canonical_facet_coordinates(source, p, data,
                                                          seed):
    # the canonical frame of an affine image lays its facets out as
    # R^m_+ x C x R^r: k = m + n leading coordinate facets, which the
    # projector clamps, and the cuts of C (triangle_channel's) after them
    rng = np.random.default_rng(seed)
    if source == "random":
        m = data.draw(st.integers(0, p), label="m")
        n = data.draw(st.integers(0, p - m), label="n")
        model = random_canonical_model(rng, p, m, n)
    else:
        model = load_fixture(source)
    ct = canonical_transform(random_affine_image(rng, model))
    k = _canonical_facets(ct.model.state_space)
    assert k == ct.m + ct.n
    x = rng.standard_normal((ct.dim, 40))
    want = x.copy()
    want[:k] = np.maximum(want[:k], 0.0)
    assert np.array_equal(make_projector(ct.model.state_space)(x), want)


def test_q1_cone_projector_rejected():
    # {x_1^2 >= 0} is all of R^2: a clamp of x_1 would move (-2, 1), a member
    space = QuadraticSpace(QuadraticForm(np.diag([1.0, 0.0]), np.zeros(2), 0.0))
    assert space.contains(np.array([-2.0, 1.0]))
    with pytest.raises(PreconditionFailedError):
        make_projector(space)


def _outside_parabola(b=(0.0, 0.0), scale=0.0):
    """A model on {x_1 - x_2^2 < 0}, the outside of a parabola, with drift
    b and diffusion scale^2 I, its root sigma and the start (-1, 0)."""
    form = QuadraticForm(np.diag([0.0, -1.0]), np.array([1.0, 0.0]), 0.0)
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.array(b)),
                      AffineMatrixField(scale ** 2 * np.eye(2),
                                        np.zeros((2, 2, 2))),
                      QuadraticSpace(form, "negative"))

    def sigma(x):
        return np.broadcast_to(scale * np.eye(2), np.shape(x)[:-1] + (2, 2))

    return model, sigma, np.array([-1.0, 0.0])


def test_outside_of_a_quadric_projector_rejected():
    # a clamp of x_1 at x_2^2 would move the member (-1, 0) to (0, 0): full
    # truncation refuses, and the plain scheme keeps the state where it is
    model, sigma, x0 = _outside_parabola()
    assert model.state_space.contains(x0)
    with pytest.raises(PreconditionFailedError):
        make_projector(model.state_space)
    with pytest.raises(PreconditionFailedError):
        simulate_paths(model, sigma, SimConfig(x0, 1.0, 4, 3, seed=0))
    ens = simulate_paths(model, sigma, SimConfig(
        x0, 1.0, 4, 3, seed=0, scheme=Scheme.PLAIN_EULER))
    assert np.array_equal(ens.states[:, -1], np.tile(x0, (3, 1)))


def test_exits_outside_a_quadric_match_the_states():
    # the drift carries the paths across x_1 = x_2^2 into the parabola: the
    # exit tracker negates Phi on the outside, and its exit steps and worst
    # value are those of the stored states, evaluated one by one
    model, sigma, x0 = _outside_parabola(b=(1.0, 0.0), scale=0.3)
    ens = simulate_paths(model, sigma, SimConfig(
        x0, 2.0, 20, 16, seed=5, scheme=Scheme.PLAIN_EULER))
    tol = 1e-3
    stats = invariance_monte_carlo(ens, model.state_space, tol)
    values = np.array([[model.state_space.signed_value(x) for x in path]
                       for path in ens.states])
    exits = [int(np.argmax(v < -tol)) if (v < -tol).any() else -1
             for v in values]
    assert 0 < stats.exit_fraction and stats.exit_steps.tolist() == exits
    assert stats.worst_violation.shape == (1,)
    assert np.isclose(stats.worst_violation[0], values.min(),
                      rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("fixture", ["cir", "triangle_channel", "parabola3",
                                     "cone3"])
def test_canonical_roots_take_stacks(fixture):
    # a point (p,), rows (N, p) and a stack (..., p) are one evaluation each
    model, sigma, x0 = _canonical_case(fixture)
    pts = x0 + 0.1 * np.random.default_rng(2).standard_normal((2, 3, x0.size))
    want = np.stack([[sigma(x) for x in row] for row in pts])
    assert np.array_equal(sigma(pts), want)
    assert np.array_equal(sigma(pts[0]), want[0])


def _reference_euler(model, sigma, cfg):
    """Row-major Euler loop from the sigma(x) matrices, independent of the
    kernel: final states (N, p), first exit steps and nonfinite flags."""
    space = model.state_space
    p = model.dimension

    def clamp(x):              # full truncation on rows (N, p)
        out = x.copy()
        if isinstance(space, Polyhedron):
            # the coordinate facets x_j >= 0; the drift keeps the others
            for g, d in zip(space.gamma, space.delta):
                if d == 0.0 and np.count_nonzero(g) == 1:
                    j = int(np.flatnonzero(g)[0])
                    out[:, j] = np.maximum(out[:, j], 0.0)
        else:
            yy = np.sum(out[:, 1:] ** 2, axis=1)
            if space.form.b[0]:            # parabola x_1 >= y^T y
                out[:, 0] = np.maximum(out[:, 0], yy)
            else:                          # cone x_1 >= |y|
                out[:, 0] = np.maximum(out[:, 0], np.sqrt(yy) * (1.0 + 1e-12))
        return out

    def exits(x):
        if isinstance(space, Polyhedron):
            return np.any(space.evaluate(x) < -1e-8, axis=1)
        return space.signed_value(x) < -1e-8

    full = cfg.scheme is Scheme.FULL_TRUNCATION_EULER
    normals = _noise_stream(cfg.seed)
    dt = cfg.horizon / cfg.steps
    x = np.tile(cfg.x0, (cfg.n_paths, 1))
    exit_step = np.where(exits(x), 0, -1)
    nonfinite = np.zeros(cfg.n_paths, dtype=bool)
    for step in range(cfg.steps):
        xs = clamp(x) if full else x
        noise = np.einsum("nij,nj->ni", sigma(xs), normals(step, cfg.n_paths, p))
        x_new = x + model.drift(x) * dt + noise * np.sqrt(dt)
        bad = ~np.isfinite(x_new).all(axis=1)
        nonfinite |= bad
        x_new[bad] = x[bad]
        x = clamp(x_new) if full else x_new
        exit_step[(exit_step < 0) & exits(x)] = step + 1
    return x, exit_step, nonfinite


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("fixture",
                         ["cir", "triangle_channel", "parabola3", "cone3"])
def test_kernel_matches_row_major_reference(fixture, scheme):
    model, sigma, x0 = _canonical_case(fixture)
    cfg = SimConfig(x0, 1.0, 20, 50, seed=3, scheme=scheme)
    final, exit_step, nonfinite = _reference_euler(model, sigma, cfg)
    summ = simulate_summary(model, sigma, cfg)
    scale = 1.0 + float(np.abs(final).max())
    assert summ.final_states.shape == final.shape
    assert np.abs(summ.final_states - final).max() <= 1e-12 * scale
    assert np.array_equal(summ.exit_stats.exit_steps, exit_step)
    assert np.array_equal(summ.nonfinite, nonfinite)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("fixture",
                         ["cir", "triangle_channel", "parabola3", "cone3"])
def test_kernel_in_place_clamp_matches_called_projector(fixture, scheme):
    # the package projector's in-place clamp and the projector called as a
    # plain function (which hides the clamp) give the same paths, bit for
    # bit; parabola3 under the plain scheme leaves the state space
    model, sigma, x0 = _canonical_case(fixture)
    proj = make_projector(model.state_space)
    cfg = SimConfig(x0, 1.0, 50, 200, seed=7919, scheme=scheme)
    own, called = (simulate_summary(model, sigma, cfg, projector=pr,
                                    functionals=(lambda r: r[:, 0],))
                   for pr in (proj, lambda x: proj(x)))
    if fixture == "parabola3" and scheme is Scheme.PLAIN_EULER:
        assert own.exit_stats.exit_fraction > 0
    assert np.array_equal(_bits(own.final_states), _bits(called.final_states))
    assert np.array_equal(own.exit_stats.exit_steps,
                          called.exit_stats.exit_steps)
    assert np.array_equal(_bits(own.exit_stats.worst_violation),
                          _bits(called.exit_stats.worst_violation))
    assert np.array_equal(_bits(own.functional_minima),
                          _bits(called.functional_minima))
    assert np.array_equal(own.nonfinite, called.nonfinite)


def test_public_projector_returns_a_copy():
    for fixture in ("cir", "parabola3", "cone3"):
        model, _, _ = _canonical_case(fixture)
        proj = make_projector(model.state_space)
        x = np.full((model.dimension, 4), -1.0)
        before = x.copy()
        out = proj(x)
        assert np.array_equal(x, before) and not np.array_equal(out, x)
        proj.clamp(x)
        assert np.array_equal(x, out)


def test_full_truncation_membership_guarantee():
    model, sigma = _cir_setup()
    cfg = SimConfig(np.array([0.05]), 1.0, 400, 2000, seed=3)
    ens = simulate_paths(model, sigma, cfg)
    stats = invariance_monte_carlo(ens, model.state_space, 1e-8)
    assert stats.exit_fraction == 0.0
    assert np.all(stats.worst_violation >= -1e-8)


def test_full_truncation_membership_triangle_channel():
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    canon = transform_model(m, ct)
    sigma = build_square_root(ct)
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    cfg = SimConfig(x0, 1.0, 500, 500, seed=5)
    ens = simulate_paths(canon, sigma, cfg)
    stats = invariance_monte_carlo(ens, canon.state_space, 1e-8)
    assert stats.exit_fraction == 0.0


def test_full_truncation_membership_parabola():
    m = load_fixture("parabola3")
    dec = parabolic_theta_decompose(m.diffusion, 3)
    sigma = parabolic_square_root(dec)
    cfg = SimConfig(np.array([1.0, 0.0, 0.0]), 1.0, 500, 500, seed=8)
    ens = simulate_paths(m, sigma, cfg)
    stats = invariance_monte_carlo(ens, m.state_space, 1e-8)
    assert stats.exit_fraction == 0.0


def test_plain_euler_outward_drift_exits():
    # constant outward drift: exit by T = 1 for most paths (the fine-grid
    # oracle gives an exit fraction near 1; asserted only as > 0.5)
    m = load_fixture("cir")
    model = ModelSpec(1, AffineVectorField(np.zeros((1, 1)), np.array([-1.0])),
                      m.diffusion, m.state_space)
    ct = canonical_transform(m)
    sigma = build_square_root(ct)
    cfg = SimConfig(np.array([0.1]), 1.0, 1000, 2000, seed=11,
                    scheme=Scheme.PLAIN_EULER)
    ens = simulate_paths(model, sigma, cfg)
    stats = invariance_monte_carlo(ens, model.state_space, 1e-8)
    assert stats.exit_fraction > 0.5


def test_empty_ensemble_zero_stats():
    ens = PathEnsemble(np.linspace(0, 1, 3), np.zeros((0, 3, 1)),
                       np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
    space = Polyhedron(np.array([[1.0]]), np.zeros(1))
    stats = invariance_monte_carlo(ens, space, 1e-8)
    assert stats.exit_fraction == 0.0


def test_boundary_attainment_inward_and_boundary_start():
    # the fraction of paths that come within 1e-4 of the facet, read off
    # the functional minima of a streaming run
    model, sigma = _cir_setup()
    facet = model.state_space.facet(0)
    zero_sigma = lambda x: np.zeros(x.shape[:-1] + (1, 1))  # noqa: E731
    inward = ModelSpec(1, AffineVectorField(np.zeros((1, 1)), np.array([1.0])),
                       AffineMatrixField(np.zeros((1, 1)), np.zeros((1, 1, 1))),
                       model.state_space)
    cfg = SimConfig(np.array([0.5]), 1.0, 100, 50, seed=2)
    summ = simulate_summary(inward, zero_sigma, cfg, functionals=(facet,))
    assert np.mean(summ.functional_minima[0] < 1e-4) == 0.0
    cfg0 = SimConfig(np.array([0.0]), 1.0, 100, 50, seed=2)
    summ0 = simulate_summary(model, sigma, cfg0, functionals=(facet,))
    assert np.mean(summ0.functional_minima[0] < 1e-4) == 1.0


def test_streaming_matches_ensemble_reductions():
    model, sigma = _cir_setup()
    facet = model.state_space.facet(0)
    cfg = SimConfig(np.array([0.2]), 1.0, 200, 300, seed=17)
    ens = simulate_paths(model, sigma, cfg)
    summ = simulate_summary(model, sigma, cfg, functionals=(facet,))
    assert np.array_equal(summ.final_states, ens.states[:, -1])
    assert np.array_equal(summ.exit_stats.exit_steps, ens.exit_flags)
    # the boundary-hit fraction of the stored states, (n_paths, steps+1)
    hit = (ens.states @ facet.gamma + facet.delta < 1e-4).any(axis=1)
    f_ens = np.count_nonzero(hit) / cfg.n_paths
    f_str = np.mean(summ.functional_minima[0] < 1e-4)
    assert 0.0 < f_ens < 1.0 and f_ens == f_str


def _direct_exit_stats(states, space, tol):
    """First exit steps and worst values of a stored (n, T, p) ensemble,
    reduced over all steps at once; each step's values are formed as the
    exit tracker forms them, on (p, n) columns."""
    cols = np.moveaxis(states, 0, -1)                       # (T, p, n)
    if isinstance(space, Polyhedron):
        vals = np.stack([space.gamma @ x + space.delta[:, None] for x in cols])
        worst, low = vals.min(axis=(0, 2)), vals.min(axis=1)
    else:
        form = space.form
        low = np.stack([_coldot(form.A @ x, x) + form.b @ x + form.c
                        for x in cols])
        if space.component != "positive":
            low = -low
        worst = low.min(keepdims=True).ravel()
    out = low < -tol                                        # (T, n)
    first = np.where(out.any(axis=0), out.argmax(axis=0), -1)
    return first, np.where(np.isfinite(worst), worst, 0.0)


def _free_orthant_case():
    """Brownian motion from (0.5, 1) in R^2_+, which it leaves through
    either facet."""
    space = Polyhedron(np.eye(2), np.zeros(2))
    model = ModelSpec(2, AffineVectorField(np.zeros((2, 2)), np.zeros(2)),
                      AffineMatrixField(np.eye(2), np.zeros((2, 2, 2))), space)
    sigma = lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))  # noqa: E731
    return model, sigma, np.array([0.5, 1.0])


@pytest.mark.parametrize("fixture",
                         ["cir", "parabola3", "cone3", "free-orthant"])
def test_exit_tracker_matches_direct_reduction(fixture):
    model, sigma, x0 = _free_orthant_case() if fixture == "free-orthant" \
        else _canonical_case(fixture)
    cfg = SimConfig(x0, 5.0, 20, 257, seed=7919, scheme=Scheme.PLAIN_EULER)
    ens = simulate_paths(model, sigma, cfg)
    first, worst = _direct_exit_stats(ens.states, model.state_space, 1e-8)
    assert 0 < np.count_nonzero(first >= 0) < cfg.n_paths  # paths do leave
    assert np.array_equal(ens.exit_flags, first)
    summ = simulate_summary(model, sigma, cfg)
    stats = invariance_monte_carlo(ens, model.state_space, 1e-8)
    for got in (summ.exit_stats, stats):
        assert np.array_equal(got.exit_steps, first)
        assert got.worst_violation.tobytes() == worst.tobytes()
        assert got.exit_fraction == np.count_nonzero(first >= 0) / cfg.n_paths


@pytest.mark.parametrize("space,worst", [
    (Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 2.0])), [-0.5, 0.5]),
    (QuadraticSpace(QuadraticForm(np.array([[1.0]]), np.zeros(1), -1.0)),
     [-0.75]),
], ids=["polyhedral", "quadric"])
def test_exit_found_beside_a_nan_path(space, worst):
    # min over a step with a NaN path is NaN: the per-step gate must still
    # let the other path's exit through, at its first step out, and the
    # worst values skip the NaN path (x = -0.5: facet -0.5, x^2 - 1 = -0.75)
    states = np.empty((3, 6, 1))
    states[0] = np.nan
    states[1, :, 0] = [1.5, 1.5, 1.5, -0.5, 1.5, -0.5]
    states[2] = 1.5
    stats = invariance_monte_carlo(PathEnsemble(np.arange(6.0), states,
                                                np.full(3, -1),
                                                np.zeros(3, dtype=bool)),
                                   space, 1e-8)
    assert stats.exit_steps.tolist() == [-1, 3, -1]
    assert stats.exit_fraction == 1 / 3
    assert stats.worst_violation.tolist() == worst


def test_mean_consistency_with_ode_oracle():
    # E[u(X_t)] = u(E[X_t]) for affine u: Monte Carlo vs the moment ODE
    m = load_fixture("triangle_channel")
    ct = canonical_transform(m)
    canon = transform_model(m, ct)
    sigma = build_square_root(ct)
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    cfg = SimConfig(x0, 1.0, 400, 4000, seed=23)
    summ = simulate_summary(canon, sigma, cfg)
    _, traj = mean_ode(canon, x0, 1.0)
    u = canon.state_space.evaluate(summ.final_states)
    u_mean = u.mean(axis=0)
    u_se = u.std(axis=0) / np.sqrt(cfg.n_paths)
    u_ode = canon.state_space.evaluate(traj[-1])
    assert np.all(np.abs(u_mean - u_ode) <= 3 * u_se + 1e-12)


def test_nonfinite_paths_flagged_and_frozen():
    # explosive drift overflows within the horizon; paths are flagged and
    # frozen at their last finite state instead of aborting the run
    theta = AffineMatrixField(np.zeros((1, 1)), np.zeros((1, 1, 1)))
    model = ModelSpec(1, AffineVectorField(np.array([[1e8]]), np.zeros(1)),
                      theta, Polyhedron(np.array([[1.0]]), np.zeros(1)))
    zero_sigma = lambda x: np.zeros(x.shape[:-1] + (1, 1))  # noqa: E731
    cfg = SimConfig(np.array([1.0]), 1.0, 100, 10, seed=0,
                    scheme=Scheme.PLAIN_EULER)
    ens = simulate_paths(model, zero_sigma, cfg)
    assert ens.nonfinite.all()
    assert np.isfinite(ens.states).all()


def test_nonfinite_guard_sees_one_exploding_coordinate():
    # x_1 overflows to +inf while x_2 stays at 0.5: the guard must not
    # judge the step by a reduction that an inf entry leaves finite
    theta = AffineMatrixField(np.zeros((2, 2)), np.zeros((2, 2, 2)))
    model = ModelSpec(2, AffineVectorField(np.diag([1e8, 0.0]), np.zeros(2)),
                      theta, Polyhedron(np.eye(2), np.zeros(2)))
    zero_sigma = lambda x: np.zeros(x.shape[:-1] + (2, 2))  # noqa: E731
    cfg = SimConfig(np.array([1.0, 0.5]), 1.0, 100, 4, seed=0,
                    scheme=Scheme.PLAIN_EULER)
    summ = simulate_summary(model, zero_sigma, cfg)
    assert summ.nonfinite.all()
    assert np.isfinite(summ.final_states).all()
    assert np.all(summ.final_states[:, 1] == 0.5)


def test_x0_outside_state_space_rejected():
    model, sigma = _cir_setup()
    with pytest.raises(PreconditionFailedError):
        simulate_paths(model, sigma,
                       SimConfig(np.array([-1.0]), 1.0, 10, 5, seed=0))


def _vertex_channel():
    """triangle_channel cut at x_1 + x_2 >= 1.4 instead of 1.5: at the
    vertex (0, 1.4) its theta block [[0.5 + x_1, 1], [1, 0.5 + x_2]] has
    determinant -0.05."""
    m = load_fixture("triangle_channel")
    space = Polyhedron(m.state_space.gamma, np.array([0.0, 0.0, -1.4]))
    return ModelSpec(4, m.drift, m.diffusion, space)


@pytest.mark.parametrize("model,x0", [
    (load_fixture("cone3"), [-2.0, 0.5, 0.0]),
    (_vertex_channel(), [0.0, 1.4, 0.0, 0.0])],
    ids=["cone3-backward-nappe", "channel-vertex"])
def test_start_where_theta_is_not_psd_rejected(model, x0):
    # a member of the state space where theta is not PSD: (-2, 0.5, 0) is
    # on the backward nappe of {x_1^2 >= |y|^2}, where zeta is negative
    # definite; no sigma has sigma sigma^T = theta there
    x0 = np.array(x0)
    assert model.state_space.contains(x0)
    canon, sigma, f, _ = simulation_frame(model)
    for scheme in Scheme:
        with pytest.raises(PreconditionFailedError, match="not PSD at x0"):
            simulate_paths(canon, sigma, SimConfig(
                f.apply(x0), 1.0, 10, 5, seed=0, scheme=scheme))


@pytest.mark.parametrize("fixture,x0", [
    ("cir", [0.0]), ("triangle_channel", [0.0, 1.5, 0.0, 0.0]),
    ("cone3", [0.0, 0.0, 0.0]), ("parabola3", [0.0, 0.0, 0.0])])
def test_start_where_theta_is_singular_runs(fixture, x0):
    # theta is PSD but singular at these boundary points: the run starts
    canon, sigma, f, _ = simulation_frame(load_fixture(fixture))
    for scheme in Scheme:
        ens = simulate_paths(canon, sigma, SimConfig(
            f.apply(np.array(x0)), 1.0, 10, 5, seed=0, scheme=scheme))
        assert np.isfinite(ens.states).all()


def test_sigma_mismatch_rejected():
    model, _ = _cir_setup()
    bad = lambda x: np.ones(x.shape[:-1] + (1, 1))  # noqa: E731
    with pytest.raises(SigmaMismatchError):
        simulate_paths(model, bad,
                       SimConfig(np.array([0.5]), 1.0, 10, 5, seed=0))


# -- the noise helper ---------------------------------------------------------


def _in_process(monkeypatch):
    """Draw the noise of every run in process."""
    monkeypatch.setattr(simulate, "_helper_usable", lambda values: False)


def _helper_runs(monkeypatch):
    """Let the helper serve runs of any size; returns the list of what
    ``take`` returned, one entry per step the helper was asked for."""
    served = []
    take = simulate._NoiseHelper.take

    def counted(helper, step, out):
        ok = take(helper, step, out)
        served.append(ok)
        return ok

    monkeypatch.setattr(simulate, "_helper_usable", lambda values: True)
    monkeypatch.setattr(simulate._NoiseHelper, "take", counted)
    return served


def _same_summary(a, b) -> bool:
    return (np.array_equal(_bits(a.final_states), _bits(b.final_states)) and
            np.array_equal(a.exit_stats.exit_steps, b.exit_stats.exit_steps) and
            np.array_equal(_bits(a.exit_stats.worst_violation),
                           _bits(b.exit_stats.worst_violation)) and
            np.array_equal(a.nonfinite, b.nonfinite))


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_helper_serves_forking_processes_on_two_cpus(monkeypatch):
    # a step may draw half the ring, 65536 normals, and no more
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert simulate._helper_usable(1)
    assert simulate._helper_usable(65536)
    assert not simulate._helper_usable(65537)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert not simulate._helper_usable(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not simulate._helper_usable(1)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("fixture",
                         ["cir", "triangle_channel", "parabola3", "cone3"])
def test_helper_and_in_process_noise_give_the_same_paths(monkeypatch, fixture,
                                                         scheme):
    model, sigma, x0 = _canonical_case(fixture)
    cfg = SimConfig(x0, 1.0, 60, 300, seed=7919, scheme=scheme)
    _in_process(monkeypatch)
    paths, summary = (simulate_paths(model, sigma, cfg),
                      simulate_summary(model, sigma, cfg))
    served = _helper_runs(monkeypatch)
    h_paths, h_summary = (simulate_paths(model, sigma, cfg),
                          simulate_summary(model, sigma, cfg))
    assert served == [True] * 2 * cfg.steps
    assert np.array_equal(_bits(h_paths.states), _bits(paths.states))
    assert np.array_equal(h_paths.exit_flags, paths.exit_flags)
    assert np.array_equal(h_paths.nonfinite, paths.nonfinite)
    assert _same_summary(h_summary, summary)


def test_run_ending_by_an_exception_kills_the_helper(monkeypatch):
    model, sigma, x0 = _canonical_case("parabola3")
    cfg = SimConfig(x0, 1.0, 80, 400, seed=5)
    _in_process(monkeypatch)
    expected = simulate_summary(model, sigma, cfg)
    served = _helper_runs(monkeypatch)
    pids = []

    def failing(rows):
        pids.append(simulate._helper.pid)
        if len(pids) == 10:
            raise RuntimeError("a functional failed")
        return rows[:, 0]

    with pytest.raises(RuntimeError, match="functional failed"):
        simulate_summary(model, sigma, cfg, functionals=(failing,))
    # killed and reaped, with its job half drawn; the next run forks anew
    assert simulate._helper is None and _gone(pids[0])
    served.clear()
    assert _same_summary(simulate_summary(model, sigma, cfg), expected)
    assert served == [True] * cfg.steps
    assert simulate._helper.pid != pids[0]


def test_helper_killed_mid_job_changes_no_path(monkeypatch):
    # 50000 paths fill 2 slots of the ring, so the helper is at most two
    # steps ahead when it is killed at step 5 of 40
    model, sigma = _cir_setup()
    cfg = SimConfig(np.array([0.5]), 1.0, 40, 50_000, seed=3)
    assert simulate._ring_slots(cfg.n_paths) == 2
    _in_process(monkeypatch)
    expected = simulate_summary(model, sigma, cfg)
    served = _helper_runs(monkeypatch)
    calls, killed = [], []

    def killer(rows):
        calls.append(step := len(calls))
        if step == 5:
            killed.append(simulate._helper.pid)
            os.kill(killed[0], signal.SIGKILL)
        return rows[:, 0]

    got = simulate_summary(model, sigma, cfg, functionals=(killer,))
    assert _same_summary(got, expected)
    # the steps drawn before the kill are read, then the rest in process
    assert 5 <= served.count(True) < cfg.steps and served.count(False) == 1
    assert simulate._helper is None and _gone(killed[0])


def test_helper_killed_between_runs_changes_no_path(monkeypatch):
    # a helper killed while it waits for a job is found dead by the next
    # run, whose job write or first read fails: that run has the paths
    # drawn in process and reaps the dead helper, and a live helper serves
    # one of the two runs after it
    model, sigma, x0 = _canonical_case("triangle_channel")
    cfg = SimConfig(x0, 1.0, 30, 200, seed=13)
    _in_process(monkeypatch)
    expected = simulate_summary(model, sigma, cfg)
    served = _helper_runs(monkeypatch)
    assert _same_summary(simulate_summary(model, sigma, cfg), expected)
    dead = simulate._helper.pid
    os.kill(dead, signal.SIGKILL)
    assert _same_summary(simulate_summary(model, sigma, cfg), expected)
    assert _gone(dead)
    whole = []
    for _ in range(2):
        served.clear()
        assert _same_summary(simulate_summary(model, sigma, cfg), expected)
        whole.append(served == [True] * cfg.steps)
    assert True in whole and simulate._helper.pid != dead


def test_threads_take_turns_at_the_helper(monkeypatch):
    # a run that finds the helper held draws in process; every path is the
    # same whichever run the helper serves
    model, sigma, x0 = _canonical_case("triangle_channel")
    cfgs = [SimConfig(x0, 1.0, 30, 100 + 10 * i, seed=i) for i in range(6)]
    _in_process(monkeypatch)
    expected = [simulate_summary(model, sigma, cfg) for cfg in cfgs]
    served = _helper_runs(monkeypatch)
    same = []

    def work(i):
        for _ in range(3):
            same.append(_same_summary(
                simulate_summary(model, sigma, cfgs[i]), expected[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert same == [True] * 18 and True in served


def test_forked_child_leaves_the_parents_helper_alone(monkeypatch):
    model, sigma, x0 = _canonical_case("cone3")
    cfg = SimConfig(x0, 1.0, 50, 200, seed=11)
    _in_process(monkeypatch)
    expected = simulate_summary(model, sigma, cfg)
    _helper_runs(monkeypatch)
    simulate_summary(model, sigma, cfg)
    parent_helper = simulate._helper.pid
    child = os.fork()
    if child == 0:
        code = 1
        try:
            dropped = simulate._helper is None
            got = simulate_summary(model, sigma, cfg)
            own = simulate._helper.pid not in (None, parent_helper)
            simulate._discard_helper()
            code = 0 if dropped and own and _same_summary(got, expected) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert simulate._helper.pid == parent_helper
    assert _same_summary(simulate_summary(model, sigma, cfg), expected)
    assert simulate._helper.pid == parent_helper


def test_helper_is_reaped_at_exit():
    code = ("import numpy as np\n"
            "from affinvar import simulate\n"
            "from affinvar.modelio import load_fixture\n"
            "from affinvar.polyhedral import build_square_root, "
            "canonical_transform, transform_model\n"
            "simulate._helper_usable = lambda values: True\n"
            "m = load_fixture('cir')\n"
            "ct = canonical_transform(m)\n"
            "simulate.simulate_summary(transform_model(m, ct), "
            "build_square_root(ct), "
            "simulate.SimConfig(np.array([0.5]), 1.0, 20, 100, seed=1))\n"
            "print(simulate._helper.pid)\n")
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=120)
    assert _gone(int(out.stdout.split()[-1]))
