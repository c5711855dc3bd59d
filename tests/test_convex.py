import contextlib
import io
import json

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import affinvar.cli
import affinvar.convex
from affinvar.convex import (FarkasCertificate, _certificate, _certificates,
                             _least_distance, _nnls, _nonnegative_solution,
                             farkas_decompose, interior_point, minimalize)
from affinvar.core import (AffineMatrixField, AffineScalar, AffineVectorField,
                           ModelSpec, Polyhedron, _coefficient_scale)
from affinvar.errors import InteriorEmptyError, NumericalFailureError
from affinvar.modelio import fixture_path
from affinvar.polyhedral import check_polyhedral_admissibility
from affinvar.tolerances import TOL, tolerances
from conftest import (assert_witness, grid_min, grid_min_bruteforce,
                      lp_certificate_exists, lp_minimum, random_grid_simplex)

UNIT_SQUARE = Polyhedron(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([0.0, 0.0, 1.0, 1.0]))

SEGMENT = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]))  # [0, 1]

HALFLINE = Polyhedron(np.array([[1.0]]), np.array([0.0]))  # x >= 0


def _assert_valid(cert: FarkasCertificate, d, poly, free=None):
    assert cert is not None
    assert cert.residual(d, poly) <= 1e-8 * (1 + np.abs(d.coefficients()).max())
    lam = cert.lam.copy()
    if free is not None:
        lam[free] = 0.0
    assert np.all(lam >= 0)
    assert cert.c >= 0


def test_farkas_identity_case():
    d = UNIT_SQUARE.facet(0)
    cert, witness = farkas_decompose(d, UNIT_SQUARE)
    _assert_valid(cert, d, UNIT_SQUARE)
    assert witness is None


def test_farkas_segment_case():
    d = AffineScalar(np.array([-1.0]), 2.0)  # d(x) = 2 - x on [0, 1]
    cert, _ = farkas_decompose(d, SEGMENT)
    _assert_valid(cert, d, SEGMENT)
    # coefficient identity forces lam_2 in [1, 2] and c = 2 - lam_2
    assert 1.0 - 1e-8 <= cert.lam[1] <= 2.0 + 1e-8


def test_farkas_negative_with_witness():
    d = AffineScalar(np.array([1.0]), -1.0)  # d(x) = x - 1 on x >= 0
    cert, witness = farkas_decompose(d, HALFLINE)
    assert cert is None
    assert abs(witness[0]) <= 1e-6
    assert d(witness) == pytest.approx(-1.0, abs=1e-6)


def test_facet_relative_identity():
    d = AffineScalar(-UNIT_SQUARE.gamma[0], -UNIT_SQUARE.delta[0])  # -u_1
    cert, _ = farkas_decompose(d, UNIT_SQUARE, 0)
    _assert_valid(cert, d, UNIT_SQUARE, free=0)


def test_facet_relative_unique_coefficients():
    d = AffineScalar(np.array([-1.0]), 1.0)  # 1 - x on x >= 0, facet {x = 0}
    cert, _ = farkas_decompose(d, HALFLINE, 0)
    assert cert.lam[0] == pytest.approx(-1.0, abs=1e-8)
    assert cert.c == pytest.approx(1.0, abs=1e-8)


def test_facet_relative_cir_drift():
    d = AffineScalar(np.array([-1.0]), 1.0)  # mu(x) = 1 - x
    cert, _ = farkas_decompose(d, HALFLINE, 0)
    _assert_valid(cert, d, HALFLINE, free=0)


def test_facet_relative_failure_witness():
    d = AffineScalar(np.array([0.0]), -1.0)  # identically -1
    cert, witness = farkas_decompose(d, HALFLINE, 0)
    assert cert is None
    assert HALFLINE.facet(0)(witness) == pytest.approx(0.0, abs=1e-9)
    assert d(witness) < 0


@pytest.mark.parametrize("lam", [1e6, 1e20])
def test_large_multipliers_are_certified_without_a_warning(lam, recwarn):
    # d = lam * u on the half-line: the certificate has no bound on its
    # multipliers, so lam = 1e6 and far beyond it are certified as given
    d = AffineScalar(np.array([lam]), 0.0)
    cert, witness = farkas_decompose(d, HALFLINE)
    _assert_valid(cert, d, HALFLINE)
    assert cert.lam[0] == lam and witness is None
    assert len(recwarn) == 0


def test_interior_point_examples():
    assert np.allclose(interior_point(UNIT_SQUARE), [0.5, 0.5])
    slab = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    assert interior_point(slab) is None
    orthant = Polyhedron(np.eye(2), np.zeros(2))
    x = interior_point(orthant)
    assert x is not None and np.all(x >= 1e-9)


def test_minimalize_examples():
    poly = Polyhedron(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    red = minimalize(poly)
    assert red.n_facets == 1 and red.minimal
    assert red.delta[0] == 0.0
    # already minimal: unchanged facet count
    assert minimalize(UNIT_SQUARE).n_facets == 4
    # duplicated facet removed
    dup = Polyhedron(np.vstack([UNIT_SQUARE.gamma, UNIT_SQUARE.gamma[:1]]),
                     np.concatenate([UNIT_SQUARE.delta, UNIT_SQUARE.delta[:1]]))
    assert minimalize(dup).n_facets == 4


def test_interior_point_memo_keyed_and_private(lp_calls):
    # a slab of width 2e-8: its center has slack 1e-8, interior under the
    # default interior_slack (1e-9) but not under --tol 1e-6 (1e-7)
    slab = Polyhedron(np.array([[1.0], [-1.0]]), np.array([1e-8, 1e-8]))
    x = interior_point(slab)
    assert x is not None and abs(x[0]) < 1e-9
    solved = len(lp_calls)
    x[0] = 5.0                      # the caller's copy, not the memo
    again = interior_point(slab)
    assert len(lp_calls) == solved and abs(again[0]) < 1e-9
    with tolerances(feasibility=1e-6):
        assert interior_point(slab) is None
    x = interior_point(slab)
    assert x is not None and abs(x[0]) < 1e-9


def _lp_costs(mp: pytest.MonkeyPatch) -> list[np.ndarray]:
    """Records, through mp, the cost vector of each LP the package solves."""
    real = affinvar.convex.linprog
    costs = []

    def spy(c, *args, **kwargs):
        costs.append(np.array(c))
        return real(c, *args, **kwargs)

    mp.setattr(affinvar.convex, "linprog", spy)
    return costs


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_linear_algebra_matches_lp(p, data, seed):
    # with gamma of full row rank the certificate equations have at most one
    # solution: the pseudo-inverse, the NNLS and a scipy LP must reach the
    # same verdict, the first two the same certificate, and neither takes
    # an LP
    q = data.draw(st.integers(1, p))
    free = data.draw(st.one_of(st.none(), st.integers(0, q - 1)))
    rng = np.random.default_rng(seed)
    gamma = rng.standard_normal((q, p))
    assume(np.linalg.cond(gamma) < 100)
    delta = rng.standard_normal(q)
    # multipliers and constant each zero, positive or negative; when q < p a
    # random offset puts d.gamma off the row space (no solution at all)
    z = rng.choice([0.0, 1.0, -1.0], size=q + 1, p=[0.3, 0.5, 0.2]) * \
        rng.uniform(0.1, 3.0, size=q + 1)
    off = data.draw(st.sampled_from([0.0, 1.0])) * rng.standard_normal(p)
    d = AffineScalar(gamma.T @ z[:q] + off, float(delta @ z[:q] + z[q]))
    with pytest.MonkeyPatch.context() as mp:
        costs = _lp_costs(mp)
        cert = _certificate(d, Polyhedron(gamma, delta), free)
        system = affinvar.convex._certificate_system
        mp.setattr(affinvar.convex, "_certificate_system",
                   lambda poly: (system(poly)[0], None, system(poly)[2]))
        nnls_cert = _certificate(d, Polyhedron(gamma, delta), free)
    assert costs == []
    assert (cert is None) == (nnls_cert is None) == \
        (not lp_certificate_exists(d, Polyhedron(gamma, delta), free))
    if cert is not None:
        scale = _coefficient_scale(d.coefficients())
        assert np.abs(cert.lam - nnls_cert.lam).max() <= 1e-9 * scale
        assert abs(cert.c - nnls_cert.c) <= 1e-9 * scale
        _assert_valid(cert, d, Polyhedron(gamma, delta), free)


def test_certificate_rank_deficient_gamma_by_nnls(lp_calls):
    # x >= 0, y >= 0, x + y >= 0: gamma has rank 2 < 3 facets, so the
    # certificate of 2x + 2y is not unique.  One NNLS finds a valid one, with
    # the free multiplier of facet-relative certificates split in two.
    poly = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                      np.zeros(3))
    d = AffineScalar(np.array([2.0, 2.0]), 0.0)
    _assert_valid(farkas_decompose(d, poly)[0], d, poly)
    _assert_valid(farkas_decompose(d, poly, 2)[0], d, poly, free=2)
    # -u_2 = -x - y is nonnegative on facet 2 only with a negative multiplier
    minus = AffineScalar(-poly.gamma[2], 0.0)
    cert, _ = farkas_decompose(minus, poly, 2)
    _assert_valid(cert, minus, poly, free=2)
    # x - 1 < 0 at the origin: the NNLS residual says there is no
    # certificate, and the witness is the least-distance point of the set
    # where bad <= -eps, the origin
    bad = AffineScalar(np.array([1.0, 0.0]), -1.0)
    cert, witness = farkas_decompose(bad, poly)
    assert cert is None
    assert bad(witness) < 0 and poly.contains(witness)
    assert np.abs(witness).max() <= 1e-12
    assert lp_calls == []


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 8), n=st.integers(0, 12), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nnls_matches_scipy_and_kkt(m, n, data, seed):
    # random problems with duplicated and zero columns, right-hand sides in
    # the cone of the columns or off it; the residual norm is scipy's, and
    # x satisfies the KKT conditions of min |A x - b| over x >= 0
    rng = np.random.default_rng(seed)
    zero = data.draw(st.integers(0, min(n, 2)))
    dup = data.draw(st.integers(0, min(n - zero - 1, 3))) if n > zero else 0
    base = rng.standard_normal((m, n - zero - dup))
    cols = np.hstack([base, np.zeros((m, zero)),
                      base[:, rng.integers(n - zero - dup, size=dup)]])
    A = cols[:, rng.permutation(n)]
    b = A @ rng.uniform(0.0, 2.0, n) + \
        data.draw(st.sampled_from([0.0, 1.0])) * rng.standard_normal(m)
    _assert_nnls_solves(A, b)


def _assert_nnls_solves(A: np.ndarray, b: np.ndarray):
    n = A.shape[1]
    x = _nnls(A, b)
    assert x is not None and x.shape == (n,)
    norm_b = float(np.linalg.norm(b))
    # scipy's nnls aborts the interpreter on a matrix with no columns
    ref = scipy.optimize.nnls(A, b)[1] if n else norm_b
    assert abs(np.linalg.norm(A @ x - b) - ref) <= 1e-10 * max(norm_b, 1e-300)
    w = A.T @ (b - A @ x)
    tol = 1e-9 * (1.0 + np.abs(A).max(initial=0.0) *
                  (norm_b + np.abs(A).max(initial=0.0) * x.sum()))
    assert np.all(x >= 0.0)
    assert np.all(w[x == 0.0] <= tol) and np.all(np.abs(w[x > 0.0]) <= tol)


def test_nnls_refuses_a_dependent_column_and_refines_its_solution():
    # five unit columns in R^5 whose Gram matrix has least eigenvalue 2e-8:
    # the dual of a sixth, dependent column clears the rounding level, but
    # its pivot is zero, so it is refused (a Cholesky solve with it fails);
    # the final refinement step takes the residual from 3e-9 to 6e-13
    m, n, zero, dup, off = 5, 10, 1, 2, 1.0
    rng = np.random.default_rng(55257)
    base = rng.standard_normal((m, n - zero - dup))
    cols = np.hstack([base, np.zeros((m, zero)),
                      base[:, rng.integers(n - zero - dup, size=dup)]])
    A = cols[:, rng.permutation(n)]
    b = A @ rng.uniform(0.0, 2.0, n) + off * rng.standard_normal(m)
    _assert_nnls_solves(A, b)
    x = _nnls(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_nnls_iteration_limit_raises_and_validate_exits_3(monkeypatch,
                                                          lp_calls):
    # nearly dependent columns (problem 1212 of tools/sweep.py's nnls
    # sweep): a step back empties the passive set, which ends the passive
    # solve, and the iteration runs into its limit of 3n solves.  A failing
    # NNLS is a numerical failure, from _nnls and from every oracle on it,
    # never a None that reads as a proof; validate reports it as
    # inconclusive (exit 3)
    A = np.array([
        [-0.05599368172012328, -0.9577833000242851, -0.08930706867208003,
         -1.1112096414222492, -2.0024987744511438, 1.101539701296981,
         -1.760048772834087, 0.009405969350970112],
        [0.7049254285301938, 0.5718020715504288, 0.3685282084766266,
         -0.5596907303832854, -0.13678210118138756, -0.530379802329056,
         0.30978087665607884, -0.649632531705987],
        [-0.7436892084996801, 1.0683968855452015, -0.27879843669449583,
         -1.0072007553557552, -0.2135641202600685, -0.995012785565819,
         2.219737999877891, 0.7626657553303455],
        [-0.3962013674204602, -0.6333479340039677, -0.22765795357594373,
         -1.1260141325774686, -1.7503187144860943, 0.769109037534128,
         -0.9456835763090025, 0.3506949675170682]])
    b = np.array([-1.0164404085666805, -0.22672097202190514,
                  0.785987318084702, 0.38669227404977063])
    with pytest.raises(NumericalFailureError, match="ran out of iterations"):
        _nnls(A, b)

    def failing(A, b):
        raise NumericalFailureError("NNLS ran out of iterations")

    monkeypatch.setattr(affinvar.convex, "_nnls", failing)
    G, h = np.array([[1.0]]), np.array([1.0])
    E = np.vstack([G.T, h])
    f = np.array([0.0, 1.0])
    # x >= 1, x >= 0, x >= -1: each facet's redundancy is one NNLS
    poly = Polyhedron(np.ones((3, 1)), np.array([-1.0, 0.0, 1.0]))
    for call in (lambda: _least_distance(G, h),
                 lambda: _nonnegative_solution(E, f, None),
                 lambda: _nonnegative_solution(E, f, 0),
                 lambda: interior_point(poly),
                 lambda: minimalize(poly)):
        with pytest.raises(NumericalFailureError):
            call()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert affinvar.cli.main(["validate", str(fixture_path("cir"))]) == 3
    assert json.loads(err.getvalue())["error"] == "NumericalFailureError"
    assert lp_calls == []


def test_least_distance_is_a_point_a_proof_or_a_failure(monkeypatch):
    # x >= 1: the NNLS u = 1/2 gives the residual (1/2, -1/2), the point 1;
    # the empty x >= 1, -x >= 0 gives u = (1, 1), a Farkas vector.  An NNLS
    # result that is neither, here u = 10 with residual (10, 9), raises
    G, h = np.array([[1.0]]), np.array([1.0])
    assert _least_distance(G, h) == pytest.approx([1.0], abs=1e-12)
    assert _least_distance(np.array([[1.0], [-1.0]]),
                           np.array([1.0, 0.0])) is None
    monkeypatch.setattr(affinvar.convex, "_nnls",
                        lambda A, b: np.full(A.shape[1], 10.0))
    with pytest.raises(NumericalFailureError):
        _least_distance(G, h)


def test_nnls_takes_a_nearly_dependent_column_and_ends_at_kkt():
    # the least-distance matrix of a facet witness in an affine image of a
    # random canonical model: column 1 is at distance 2.6e-8 from the span of
    # columns 0 and 2, a pivot the Gram matrix squares into its rounding, and
    # its dual is 1.9e-8.  Refusing it left the residual 1.4e-8 above the
    # optimum, where passive set {1, 2} reaches scipy's
    A = np.array([
        [-0.9910176023568357, -0.769447791884578, -0.09059948920854699,
         0.09059948920854699],
        [-0.0543317409938067, -0.554537478072954, 0.9170256722178042,
         -0.9170256722178042],
        [-0.12219727386276057, -0.316919991443322, 0.3884014019653313,
         -0.3884014019653313],
        [1.0, 0.3340530026253338, 0.88747509157125, -0.88747509157125]])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    _assert_nnls_solves(A, b)
    x = _nnls(A, b)
    assert x[0] == 0.0 and x[1] > 0.0 and x[2] > 0.0


def test_nnls_checks_its_duals_on_every_exit():
    # columns 0, 1, 2 and 4 have condition 1.5e8 (scipy's solution is near
    # 5e7): the Gram-matrix loop ends, no candidate refused, with entries
    # near 1e31, and its refinement step clamps them all to zero, 0.108 |b|
    # above scipy's residual, where column 4's dual against the columns is
    # 0.41.  The dual check on every exit, not only after a refusal, turns
    # that into a failure
    A = np.array([
        [1.5325724315775813, -0.46238749742736934, 1.6887832083234515,
         2.012911497453958, 0.28023714280372225],
        [-0.11845312455525245, -1.6344762461038416, 0.16975411904658064,
         0.21996885326639223, 2.096579410800107],
        [0.048411604416180094, 0.5321412592409024, -1.1477096737489054,
         -1.4385209613613936, -0.6845566892507657],
        [0.07804060568959602, -0.8987330603346175, 1.0491118304520621,
         1.3070264022040265, 1.1242213546322173],
        [1.1819098799240375, -0.2947223617081179, -0.7266087462037215,
         -0.985217892527313, 0.13765360845901825],
        [0.40360617097850743, -0.9882018997905326, 0.03606663252436142,
         0.01898953330305303, 1.1726470252901635],
        [0.7943460791899414, 1.0786231439305458, 0.09419236698022729,
         0.06639995735535438, -1.5266544931719452]])
    b = np.array([0.6421291123563363, 0.7184112810243017, 0.7045544566266321,
                  -0.9494110246755553, -0.3995165355887438,
                  -0.4236435568008148, -1.1247853752300496])
    try:
        x = _nnls(A, b)
    except NumericalFailureError:
        return
    ref = scipy.optimize.nnls(A, b)[1]
    assert np.linalg.norm(A @ x - b) - ref <= 1e-10 * np.linalg.norm(b)


def _max_slack(poly: Polyhedron) -> float:
    """The Chebyshev radius: the largest minimum normalized slack, by LP."""
    p = poly.dim
    norms = np.linalg.norm(poly.gamma, axis=1)
    res = scipy.optimize.linprog(
        np.r_[np.zeros(p), -1.0], A_ub=np.hstack([-poly.gamma, norms[:, None]]),
        b_ub=poly.delta, bounds=[(None, None)] * p + [(None, 10.0)],
        method="highs")
    assert res.status == 0
    return float(res.x[p])


POLYHEDRON_KINDS = ("full", "deficient", "simplex")
SIMPLEX_SCALES = (0.01, 0.1, 1.0, 10.0)


def _random_polyhedron(rng, p: int, kind: str, q: int = 1, k: int = 1,
                       scale: float = 1.0) -> Polyhedron | None:
    """Full-row-rank gamma with q facets (None unless its condition number
    is below 100), rank-k gamma with q facets around a point with random
    facet distances, or a random grid simplex scaled by `scale`, so that
    its Chebyshev radius falls below or above 1."""
    if kind == "full":
        gamma = rng.standard_normal((q, p))
        if not np.linalg.cond(gamma) < 100:
            return None
        return Polyhedron(gamma, 3.0 * rng.standard_normal(q))
    if kind == "deficient":
        gamma = rng.standard_normal((q, k)) @ rng.standard_normal((k, p))
        centre = 3.0 * rng.standard_normal(p)
        dist = rng.uniform(0.1, 3.0, size=q)
        return Polyhedron(gamma, np.linalg.norm(gamma, axis=1) * dist -
                          gamma @ centre)
    simplex = random_grid_simplex(rng, p)
    return Polyhedron(simplex.gamma, scale * simplex.delta)


def _polyhedron_choices(p: int, data) -> dict:
    """The choices of `_random_polyhedron` in R^p, drawn from data: q in
    [1, p] for "full", q in [2, p + 2] and k in [1, min(q - 1, p)] for
    "deficient", a scale of SIMPLEX_SCALES for "simplex"."""
    kind = data.draw(st.sampled_from(POLYHEDRON_KINDS))
    if kind == "full":
        return {"kind": kind, "q": data.draw(st.integers(1, p))}
    if kind == "deficient":
        q = data.draw(st.integers(2, p + 2))
        return {"kind": kind, "q": q,
                "k": data.draw(st.integers(1, min(q - 1, p)))}
    return {"kind": kind, "scale": data.draw(st.sampled_from(SIMPLEX_SCALES))}


def _least_distance_failure(poly: Polyhedron, x: np.ndarray,
                            radius: float) -> str | None:
    """What is wrong with x as `interior_point(poly)`, None when nothing is.

    With Chebyshev radius at least 1, x must have every normalized slack
    >= 1 and (KKT) be a nonnegative combination of the unit normals of the
    facets at slack 1; below 1, its least slack must lie in
    [radius/2, radius]."""
    norms = np.linalg.norm(poly.gamma, axis=1)
    unit = poly.gamma / norms[:, None]
    slack = unit @ x + poly.delta / norms
    scale = max(1.0, float(np.abs(x).max()))
    if radius < 1.0:
        if not radius / 2 - 1e-9 * scale <= slack.min() <= radius + 1e-9:
            return f"least slack {slack.min():.3e} at radius {radius:.3e}"
        return None
    if not slack.min() >= 1.0 - 1e-9:
        return f"least slack short of 1 by {1.0 - slack.min():.3e}"
    active = slack <= 1.0 + 1e-8 * scale
    # nnls aborts the interpreter on a matrix with no columns
    residual = scipy.optimize.nnls(unit[active].T, x)[1] if active.any() \
        else np.linalg.norm(x)
    if not residual <= 1e-9 * scale:
        return f"KKT residual {residual:.3e}"
    return None


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_interior_point_least_distance_kkt(p, data, seed):
    # when some point has every normalized slack >= 1, interior_point is the
    # least-distance one: its slacks are >= 1 and (KKT) it is a nonnegative
    # combination of the unit normals of the facets at slack 1.  Otherwise
    # it is the least-distance point at the first halved target that has
    # one, so its least slack is in [radius/2, radius].  No LP runs.
    poly = _random_polyhedron(np.random.default_rng(seed), p,
                              **_polyhedron_choices(p, data))
    assume(poly is not None)
    radius = _max_slack(poly)
    assume(abs(radius - 1.0) > 1e-6)
    with pytest.MonkeyPatch.context() as mp:
        costs = _lp_costs(mp)
        x = interior_point(poly)
    assert costs == []
    assert _least_distance_failure(poly, x, radius) is None


def test_interior_point_chebyshev_fallback(lp_calls):
    # the unit square's Chebyshev radius is 1/2: no point has unit slack,
    # and the target 1/2 leaves the Chebyshev center alone, found without an
    # LP (a copy: UNIT_SQUARE's is memoized).  The interval [0, 1/3] has no
    # point at slack 1/4 either; at 1/8 the least-distance point is 1/8
    square = Polyhedron(UNIT_SQUARE.gamma, UNIT_SQUARE.delta)
    assert np.allclose(interior_point(square), [0.5, 0.5], atol=1e-12)
    third = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0 / 3.0]))
    assert interior_point(third) == pytest.approx([0.125], abs=1e-12)
    assert lp_calls == []


def test_interior_point_large_offset(lp_calls):
    # the half-line x >= 1065.40 with its offset carried by one facet of
    # three: the least-distance point is just beyond 1066.4, at unit slack,
    # and needs no LP (solved unscaled, its slack fell short of 1 - 1e-9
    # and the LP returned the box corner x = 1e6)
    poly = Polyhedron(np.array([[1.6276815797399324], [1.8548223627423241],
                                [0.5211777295847361]]),
                      np.array([-1734.129456580131, 0.0, 0.0]))
    x = interior_point(poly)
    slack = (poly.gamma @ x + poly.delta) / np.linalg.norm(poly.gamma, axis=1)
    assert x[0] == pytest.approx(1734.129456580131 / 1.6276815797399324 +
                                 1.0, rel=1e-12)
    assert slack.min() >= 1.0 - 1e-12
    assert lp_calls == []


def test_interior_point_thin_wedge():
    # {1e-7 x_1 >= |x_2|}: at every target t the least-distance point is
    # near (1e7 t, 0), so the least-distance residual's last entry is about
    # -1e-14, below the NNLS's rounding level, and yet no Farkas vector
    # exists.  The point is returned and passes substitution
    poly = Polyhedron(np.array([[1e-7, 1.0], [1e-7, -1.0]]), np.zeros(2))
    x = interior_point(poly)
    slack = poly.evaluate(x) / np.linalg.norm(poly.gamma, axis=1)
    assert x[0] == pytest.approx(1e7, rel=0.05)
    assert slack.min() >= 0.5
    # the empty interval x >= 1, -x >= 0 still gets its proof
    empty = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
    assert interior_point(empty) is None


def test_interior_point_no_facet_rows():
    # no facet, or only the facet 0 x + 1 >= 0: the state space is R^2 and
    # the least-distance point is the origin; 0 x - 1 >= 0 is empty
    for poly in (Polyhedron(np.zeros((0, 2)), np.zeros(0)),
                 Polyhedron(np.zeros((1, 2)), np.array([1.0]))):
        x = interior_point(poly)
        assert x is not None and np.array_equal(x, [0.0, 0.0])
    assert interior_point(Polyhedron(np.zeros((1, 2)), np.array([-1.0]))) is None


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_minimalize_full_row_rank_takes_no_lp(p, data, seed):
    # with gamma of full row rank every facet is irredundant, acute angles
    # between the normals included: minimalize keeps all rows without an LP
    rng = np.random.default_rng(seed)
    q = data.draw(st.integers(1, p))
    gamma = rng.standard_normal((q, p))
    assume(np.linalg.cond(gamma) < 100)
    poly = Polyhedron(gamma, 3.0 * rng.standard_normal(q))
    with pytest.MonkeyPatch.context() as mp:
        costs = _lp_costs(mp)
        red = minimalize(poly)
    assert costs == []
    _assert_same_rows(red, poly, list(range(q)))


def _minimalize_by_lp(poly: Polyhedron) -> list[int]:
    """The LP-only sequential rule: each facet in turn takes one scipy LP
    against the facets still kept and is dropped when it cannot be
    violated."""
    keep = list(range(poly.n_facets))
    i = 0
    while i < len(keep):
        idx = keep[i]
        others = [j for j in keep if j != idx]
        if others:
            sub = Polyhedron(poly.gamma[others], poly.delta[others])
            val = lp_minimum(poly.facet(idx), sub)
            if val is not None and poly.facet(idx)(val) >= -TOL.feasibility:
                keep.pop(i)
                continue
        i += 1
    return keep


def _assert_same_rows(red: Polyhedron, poly: Polyhedron, keep: list[int]):
    assert red.minimal
    assert np.array_equal(red.gamma, poly.gamma[keep])
    assert np.array_equal(red.delta, poly.delta[keep])


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 3), n_dup=st.integers(0, 3), n_cut=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_minimalize_matches_lp_rule(p, n_dup, n_cut, seed):
    rng = np.random.default_rng(seed)
    simplex = random_grid_simplex(rng, p)
    g, d = simplex.gamma, simplex.delta
    rows, offs = [g], [d]
    for _ in range(n_dup):  # duplicated rows and positively scaled copies
        k = rng.integers(g.shape[0])
        s = rng.choice([1.0, 0.5, 4.0])
        rows.append(s * g[k:k + 1])
        offs.append(s * d[k:k + 1])
    for _ in range(n_cut):  # redundant: a nonnegative combination + constant
        w = rng.integers(0, 3, size=g.shape[0]).astype(float)
        w[rng.integers(g.shape[0])] += 1.0
        rows.append((w @ g)[None])
        offs.append([w @ d + rng.choice([0.0, 0.5])])
    order = rng.permutation(sum(len(o) for o in offs))
    poly = Polyhedron(np.vstack(rows)[order], np.concatenate(offs)[order])
    _assert_same_rows(minimalize(poly), poly, _minimalize_by_lp(poly))


def _rank_deficient_polyhedron(rng, kind: str, p: int,
                               scale: float) -> Polyhedron:
    """A polyhedron with a nonempty interior and rank-deficient gamma, in
    permuted row order, its rows rescaled by factors in [1/2, 2] and the set
    by `scale`:
      - "tangent": planes tangent to the unit sphere or to the sphere of
        radius 3/2 around one center, so that some are redundant;
      - "low-rank": rows spanning a subspace of dimension k < q, at random
        distances from one center;
      - "orthant": x >= 0 plus cuts w.x + c >= 0 with w >= 0, which are
        redundant for c >= 0 (exact duplicates of a facet included) and may
        make an orthant facet redundant for c < 0."""
    if kind == "tangent":
        q = int(rng.integers(p + 2, 3 * p + 4))
        normals = rng.standard_normal((q, p))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        centre = rng.standard_normal(p)
        gamma = -normals
        delta = normals @ centre + rng.choice([1.0, 1.5], size=q)
    elif kind == "low-rank":
        q = int(rng.integers(2, p + 4))
        k = int(rng.integers(1, min(q - 1, p) + 1))
        gamma = rng.standard_normal((q, k)) @ rng.standard_normal((k, p))
        centre = rng.standard_normal(p)
        delta = np.linalg.norm(gamma, axis=1) * rng.uniform(0.1, 3.0, size=q) \
            - gamma @ centre
    else:
        n_cut = int(rng.integers(1, p + 2))
        w = rng.integers(0, 3, size=(n_cut, p)).astype(float)
        w[np.arange(n_cut), rng.integers(p, size=n_cut)] += 1.0
        gamma = np.vstack([np.eye(p), w])
        delta = np.concatenate([np.zeros(p), rng.choice(
            [-1.0, 0.0, 0.5], size=n_cut) * rng.uniform(0.5, 2.0, n_cut)])
    rows = rng.uniform(0.5, 2.0, size=len(delta))
    order = rng.permutation(len(delta))
    return Polyhedron((rows[:, None] * gamma)[order],
                      (rows * scale * delta)[order])


def _functional(rng, poly: Polyhedron, scale: float, certified: bool
                ) -> AffineScalar:
    """A functional with a certificate (a nonnegative combination of the
    facets plus a constant), or a random one that may have none."""
    q, p = poly.gamma.shape
    if certified:
        lam = rng.uniform(0.0, 2.0, size=q) * (rng.random(q) < 0.6)
        return AffineScalar(lam @ poly.gamma,
                            float(lam @ poly.delta + scale * rng.uniform(0, 1)))
    return AffineScalar(rng.standard_normal(p), scale * rng.standard_normal())


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["tangent", "low-rank", "orthant"]),
       p=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_minimalize_rank_deficient_matches_lp_oracle(kind, p, scale, data,
                                                     seed):
    # rank-deficient gamma: minimalize keeps the rows of the LP-only rule
    # without an LP.  The drift certificates on the same polyhedron, found
    # by NNLS, agree with an LP-only verdict.
    rng = np.random.default_rng(seed)
    poly = _rank_deficient_polyhedron(rng, kind, p, scale)
    assert np.linalg.matrix_rank(poly.gamma) < poly.n_facets
    with pytest.MonkeyPatch.context() as mp:
        costs = _lp_costs(mp)
        red = minimalize(poly)
    assert costs == []
    _assert_same_rows(red, poly, _minimalize_by_lp(poly))
    free = data.draw(st.one_of(st.none(), st.integers(0, poly.n_facets - 1)))
    d = _functional(rng, poly, scale, data.draw(st.booleans()))
    cert = _certificate(d, poly, free)
    assert (cert is not None) == lp_certificate_exists(d, poly, free)
    if cert is not None:
        _assert_valid(cert, d, poly, free)


def test_certificate_refused_column_at_the_optimum_is_none():
    # a low-rank gamma (5 x 2, rank 1) and a functional with no
    # certificate: the NNLS ends at its optimum with passive columns whose
    # gamma parts are parallel, and the column of c, refused as dependent
    # on them, keeps a dual of 2.6e-14 against a level of 8.8e-15.  That
    # is the rounding of its combination, so the exit stands
    rng = np.random.default_rng(120660)
    poly = _rank_deficient_polyhedron(rng, "low-rank", 2, 0.01)
    d = _functional(rng, poly, 0.01, False)
    assert not lp_certificate_exists(d, poly, None)
    assert _certificate(d, poly, None) is None


def _one_certificate(row: np.ndarray, poly: Polyhedron, free):
    """(lam, c) of the functional with coefficients row, or None, solved
    alone: pinv @ b refined once (the NNLS for rank-deficient gamma), the
    clamp, np.delete of the free entry and the residual test."""
    q = poly.n_facets
    A_eq, pinv, s = affinvar.convex._certificate_system(poly)
    b_eq = np.concatenate([row[:-1], [row[-1] / s]])
    if pinv is not None:
        z = pinv @ b_eq
        z += pinv @ (b_eq - A_eq @ z)
    else:
        z = _nonnegative_solution(A_eq, b_eq, free)
    mask = (z < 0) & (z >= -TOL.lam_clip)
    if free is not None:
        mask[free] = False
    z[mask] = 0.0
    if np.any((np.delete(z, free) if free is not None else z) < 0):
        return None
    lam, c = z[:q], float(z[q])
    rec = np.concatenate([lam @ poly.gamma, [float(lam @ poly.delta + c)]])
    tol = TOL.feasibility * _coefficient_scale(row)
    return (lam, c) if float(np.abs(rec - row).max()) <= tol else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["full", "tangent", "low-rank", "orthant"]),
       p=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_match_the_one_functional_solve(kind, p, seed):
    # each row of one stacked solve has the verdict and the bits of lam and
    # c of its functional solved alone, with facet i free in row i and with
    # no free facet, on full-row-rank gamma (the pseudo-inverse) and
    # rank-deficient gamma (the NNLS).  Most rows are nonnegative
    # combinations of the facets plus a constant, so they have a
    # certificate; a shifted constant or a random row may have none.
    rng = np.random.default_rng(seed)
    if kind == "full":
        q = int(rng.integers(1, p + 1))
        poly = Polyhedron(rng.standard_normal((q, p)), rng.standard_normal(q))
        assume(np.linalg.matrix_rank(poly.gamma) == q)
    else:
        poly = _rank_deficient_polyhedron(rng, kind, p, 1.0)
    q = poly.n_facets
    assert (affinvar.convex._certificate_system(poly)[1] is not None) == \
        (kind == "full")
    lam = rng.uniform(0.0, 2.0, (q, q)) * (rng.random((q, q)) < 0.7)
    lam[np.arange(q), np.arange(q)] = rng.uniform(-1.0, 2.0, q)
    F = lam @ np.column_stack([poly.gamma, poly.delta])
    F[:, -1] += rng.uniform(-0.2, 1.0, q)
    noise = rng.random(q) < 0.2
    F[noise] = rng.standard_normal((int(noise.sum()), p + 1))
    for free in (list(range(q)), [None] * q):
        got = _certificates(F, poly, free)
        assert len(got) == q
        for row, f, cert in zip(F, free, got):
            want = _one_certificate(row.copy(), poly, f)
            assert (cert is None) == (want is None)
            if cert is not None:
                assert cert.lam.tobytes() == want[0].tobytes()
                assert cert.c == want[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_system_is_matrix_rank_and_pinv_of_one_svd(p, seed):
    # the rank of the certificate matrix at matrix_rank's tolerance decides
    # the pseudo-inverse, and that has the bits of np.linalg.pinv
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, p + 2))
    gamma = rng.standard_normal((q, p)) * 10.0 ** rng.uniform(-3, 3)
    if q > 1 and rng.random() < 0.3:
        gamma[-1] = 2.0 * gamma[0]
    delta = rng.standard_normal(q) * 10.0 ** rng.uniform(-3, 17)
    A_eq, pinv, _ = affinvar.convex._certificate_system(
        Polyhedron(gamma, delta))
    assert (pinv is not None) == (np.linalg.matrix_rank(A_eq) == q + 1)
    if pinv is not None:
        assert pinv.tobytes() == np.linalg.pinv(A_eq).tobytes()


def test_certificates_at_a_constant_far_above_the_rows():
    # gamma has full row rank, but at |delta| / |gamma| = 1e16 the column of
    # c, (0, 1e-16), is below the rank tolerance of the certificate matrix:
    # the NNLS finds the certificates a pseudo-inverse would drop c from
    poly = Polyhedron(np.array([[1.0]]), np.array([1e16]))
    assert affinvar.convex._certificate_system(poly)[1] is None
    cert = _certificate(AffineScalar(np.array([1.0]), 2e16), poly)
    assert cert is not None and abs(cert.c - 1e16) <= 1e-15 * 1e16
    assert abs(cert.lam[0] - 1.0) <= 1e-15
    cert = _certificate(AffineScalar(np.array([0.0]), 1.0), poly)
    assert cert is not None and (cert.lam.tolist(), cert.c) == ([0.0], 1.0)
    assert _certificate(AffineScalar(np.array([1.0]), 0.0), poly) is None
    got = _certificates(np.array([[1.0, 2e16], [0.0, 1.0], [1.0, 0.0]]),
                        poly, [None] * 3)
    assert [c is not None for c in got] == [True, True, False]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["tangent", "low-rank", "orthant"]),
       p=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]),
       certified=st.booleans(), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_farkas_alternative_matches_lp_with_verified_witnesses(
        kind, p, scale, certified, data, seed):
    # whether a certificate exists agrees with a scipy LP, on the polyhedron
    # or on one facet segment; every refusal on a nonempty set carries a
    # witness that substitution verifies, and no LP runs
    rng = np.random.default_rng(seed)
    poly = _rank_deficient_polyhedron(rng, kind, p, scale)
    free = data.draw(st.one_of(st.none(), st.integers(0, poly.n_facets - 1)))
    d = _functional(rng, poly, scale, certified)
    with pytest.MonkeyPatch.context() as mp:
        costs = _lp_costs(mp)
        cert, witness = farkas_decompose(d, poly, free)
    assert costs == []
    assert (cert is not None) == lp_certificate_exists(d, poly, free)
    if cert is not None:
        _assert_valid(cert, d, poly, free)
    elif lp_minimum(d, poly, free) is not None:
        assert_witness(witness, d, poly, free)


def test_minimalize_empty_interior_takes_no_lp(lp_calls):
    # the segment {x1 = 0, 0 <= x2 <= 1} has no interior point: minimalize
    # needs none, and keeps the rows of the LP-only rule without an LP
    poly = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                [0.0, -1.0], [0.0, 2.0]]),
                      np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
    red = minimalize(poly)
    _assert_same_rows(red, poly, _minimalize_by_lp(poly))
    assert _minimalize_by_lp(poly) == [0, 1, 3, 4]
    assert lp_calls == []


def test_minimal_polyhedron_every_row_essential(rng):
    # on minimalize output, deleting any row strictly enlarges the set: the
    # per-facet LP finds a point violating the deleted facet
    for _ in range(6):
        poly = minimalize(random_grid_simplex(rng, 2))
        for i in range(poly.n_facets):
            others = [j for j in range(poly.n_facets) if j != i]
            sub = Polyhedron(poly.gamma[others], poly.delta[others])
            x = lp_minimum(poly.facet(i), sub)
            assert x is not None and poly.facet(i)(x) < -1e-9


def test_minimalize_preserves_membership(rng):
    for _ in range(10):
        poly = random_grid_simplex(rng, 2)
        extra = Polyhedron(np.vstack([poly.gamma, poly.gamma[0] * 0.5]),
                           np.concatenate([poly.delta, [poly.delta[0] * 0.5 + 1.0]]))
        red = minimalize(extra)
        pts = rng.uniform(-9, 9, size=(300, 2))
        assert np.array_equal(np.asarray(extra.contains(pts)),
                              np.asarray(red.contains(pts)))


def _model(space: Polyhedron, A: np.ndarray) -> ModelSpec:
    """Zero drift and the diffusion sum_k A_k x_k on the given space."""
    p = space.dim
    return ModelSpec(p, AffineVectorField(np.zeros((p, p)), np.zeros(p)),
                     AffineMatrixField(np.zeros((p, p)), A), space)


def test_detect_facet_multiple_examples():
    # A_1 = 3 e_1 e_1^T: gamma_0 theta(x) = (3 x_1, 0) = (3, 0) u_0(x)
    A = np.zeros((2, 2, 2))
    A[0, 0, 0] = 3.0
    checks = {c.name: c for c in
              check_polyhedral_admissibility(_model(UNIT_SQUARE, A)).checks}
    # the coupling row is the diffusion check's certificate
    assert checks["facet-0-diffusion"].certificate == pytest.approx([3.0, 0.0])
    # the row -3 x_1 of facet 2 is not a multiple of u_2 = 1 - x_1
    fc = checks["facet-2-diffusion"]
    assert fc.certificate is None and not fc.passed


def test_detect_facet_multiple_scaled_coordinate():
    # theta(x) = c x_1 e_1 e_1^T on the orthant, facet u_0 = x_1
    orthant = Polyhedron(np.eye(2), np.zeros(2))
    for c in (0.5, 2.0, 7.25):
        A = np.zeros((2, 2, 2))
        A[0, 0, 0] = c
        fc = check_polyhedral_admissibility(_model(orthant, A)).checks[0]
        assert fc.name == "facet-0-diffusion"
        assert fc.certificate == pytest.approx([c, 0.0])


def test_detect_facet_multiple_interior_empty():
    # the slab {x = 0} has no interior, so no coupling row is meaningful
    slab = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    with pytest.raises(InteriorEmptyError):
        check_polyhedral_admissibility(_model(slab, np.ones((1, 1, 1))))


def test_grid_min_matches_bruteforce(rng):
    for _ in range(10):
        poly = random_grid_simplex(rng, 2, pitch=0.5)
        d = AffineScalar(rng.standard_normal(2), rng.standard_normal())
        fast = grid_min(d, poly, pitch=0.5)
        brute = grid_min_bruteforce(d, poly, pitch=0.5)
        if brute is None:
            assert fast is None
        else:
            assert fast == pytest.approx(brute, abs=1e-12)


def test_oracle_equivalence_small(rng):
    agree = 0
    total = 40
    for k in range(total):
        p = int(rng.integers(1, 4))
        poly = random_grid_simplex(rng, p)
        if k % 2 == 0:
            lam = np.abs(rng.standard_normal(poly.n_facets))
            d = AffineScalar(lam @ poly.gamma,
                             float(lam @ poly.delta + abs(rng.standard_normal())))
        else:
            d = AffineScalar(rng.standard_normal(p), rng.standard_normal())
        gm = grid_min(d, poly)
        verdict = farkas_decompose(d, poly)[0] is not None
        assert gm is not None
        if verdict == (gm >= -1e-6):
            agree += 1
        else:
            assert abs(gm) <= 1e-5
    assert agree >= total - 1
