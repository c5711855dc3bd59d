"""Path simulation with state-space-preserving discretization, the moment ODE
oracle, and Monte Carlo invariance statistics.

Noise is drawn from counter-based Philox streams keyed by (seed, step) with
one row per path (one bit generator, re-keyed every step), so ensembles are
bit-identical across runs and adding paths never perturbs existing ones.  The
full-truncation scheme projects the state onto the state space before
evaluating the diffusion coefficient and stores the projected state, which
keeps membership exact along the whole path.

The kernel holds its state column-major, as a C-contiguous (p, N) array with
one path per column, so every per-step operation runs on whole length-N path
vectors.  The noise keeps its (N, p) draw order, which is what fixes the
paths, and is transposed into columns once per step.  The public layouts
stay row-major: stored states are (n_paths, steps+1, p), final states
(n_paths, p), and user functionals receive (N, p) rows.  Projectors, the
exit tracker and ``sigma.apply(x, z)`` take (p, N) columns.

The kernel applies sigma(x) z without building sigma(x) when the evaluator
has a matrix-free ``apply(x, z)``, as the package's canonical square roots
do; generic blocks there are Cholesky factors (``core.psd_factor``), which
are path-local, so the prefix-stability above holds.  ``mean_ode`` is the
exact mean from the propagator of the augmented drift, not an integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (AffineScalar, ModelSpec, Polyhedron, QuadraticForm,
                   QuadraticSpace, _coefficient_scale, _coldot,
                   psd_square_root)
from .errors import PreconditionFailedError, SigmaMismatchError
from .quadratic import _canonical_kind
from .tolerances import TOL

_EXIT_TOL = 1e-8  # how far outside the state space a state counts as exited


class Scheme(Enum):
    FULL_TRUNCATION_EULER = "full-truncation"
    PLAIN_EULER = "plain"


@dataclass(frozen=True)
class SimConfig:
    x0: np.ndarray
    horizon: float
    steps: int
    n_paths: int
    seed: int
    scheme: Scheme = Scheme.FULL_TRUNCATION_EULER

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if not 0 < self.horizon < np.inf or self.steps <= 0 or self.n_paths <= 0:
            raise PreconditionFailedError(
                "horizon must be finite and positive, steps and n_paths positive")


@dataclass
class PathEnsemble:
    times: np.ndarray            # (steps+1,)
    states: np.ndarray           # (n_paths, steps+1, p)
    exit_flags: np.ndarray       # (n_paths,) first exit step index, -1 if none
    nonfinite: np.ndarray        # (n_paths,) bool

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def _noise_stream(seed: int):
    """normals(step, n_paths, p): the first n_paths * p standard normals of
    the Philox stream keyed by (seed, step), one row per path.

    One bit generator is re-keyed every step; resetting its counter and
    buffers makes each draw that of a fresh ``Philox(key=[seed, step])``.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)

    def normals(step: int, n_paths: int, p: int) -> np.ndarray:
        key[1] = step
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": np.zeros(4, dtype=np.uint64),
                                  "key": key},
                        "buffer": np.zeros(4, dtype=np.uint64),
                        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return rng.standard_normal((n_paths, p))

    return normals


def _contraction(sigma):
    """(x, z) -> sigma(x) z for columns (p, N): the evaluator's matrix-free
    ``apply`` when it has one, else a contraction of the matrices sigma(x),
    which a plain callable evaluates at the rows x.T."""
    apply = getattr(sigma, "apply", None)
    if apply is not None:
        return apply
    return lambda x, z: np.einsum("nij,jn->in", np.asarray(sigma(x.T)), z)


def generic_square_root(model: ModelSpec):
    """Pointwise symmetric root |theta(x)|^(1/2); batched eigendecomposition."""
    theta = model.diffusion

    def sigma(x):
        return psd_square_root(theta(np.asarray(x, dtype=float)))

    return sigma


def make_projector(space) -> callable:
    """Cheap exact projections for the canonical state-space shapes.

    The projector maps columns (p, N), one point per column, to columns.
    Polyhedral spaces must be in canonical coordinates (facets u_i(x) = x_i):
    the projection clamps the facet coordinates at zero.  Parabolic spaces
    clamp x_1 at y^T y; conical spaces clamp x_1 at |y| radially.  A cone
    needs q >= 2: the q = 1 form x_1^2 bounds all of R^p, where a clamp
    would move members.  General state spaces must be canonicalized first.
    """
    if isinstance(space, Polyhedron):
        q, p = space.gamma.shape
        # coordinate facets u_i(x) = x_j are clamped at zero; any remaining
        # facets are the extra cuts of the canonical polyhedron C, which the
        # (admissible) drift keeps nonnegative without projection
        coord = []
        noncoord = 0
        for i in range(q):
            row = space.gamma[i]
            j = int(np.argmax(np.abs(row)))
            unit = np.zeros(p)
            unit[j] = 1.0
            if abs(space.delta[i]) <= TOL.feasibility and \
                    float(np.abs(row - unit).max()) <= TOL.feasibility:
                coord.append(j)
            else:
                noncoord += 1
        if not coord and noncoord:
            raise PreconditionFailedError(
                "full-truncation projection needs canonical facets u_i(x) = x_i; "
                "canonicalize the model first")
        idx = np.array(sorted(set(coord)), dtype=int)
        # canonical coordinates put the facets first: a contiguous block is
        # clamped through a slice, with no gather and scatter
        sel = slice(int(idx[0]), int(idx[-1]) + 1) \
            if idx.size and idx[-1] - idx[0] + 1 == idx.size else idx

        def proj(x):
            out = x.copy()
            out[sel] = np.maximum(out[sel], 0.0)
            return out

        return proj
    if isinstance(space, QuadraticSpace):
        kind, q = _canonical_kind(space.form) or (None, 0)
        if kind == "parabolic":
            def proj(x):
                out = x.copy()
                out[0] = np.maximum(out[0], _coldot(out[1:q], out[1:q]))
                return out

            return proj
        if kind == "cone":
            if q < 2:
                raise PreconditionFailedError(
                    "full-truncation projection needs a cone with q >= 2; "
                    "the q = 1 form bounds all of R^p")

            def proj(x):
                out = x.copy()
                r = np.sqrt(_coldot(out[1:q], out[1:q]))
                out[0] = np.maximum(out[0], r * (1.0 + 1e-12))
                return out

            return proj
        raise PreconditionFailedError(
            "full-truncation projection needs a canonical quadric")
    raise PreconditionFailedError(f"unsupported state space {type(space)!r}")


class _ExitTracker:
    """Running first-exit and worst-violation statistics over all paths,
    given as columns (p, N) one step at a time.

    While no path is out, a step costs one reduction: the least facet (or
    Phi) value of the step gates the per-path exit bookkeeping.  The worst
    value of each facet is an elementwise running minimum over the steps,
    reduced over the paths only when ``worst`` is read; the worst Phi value
    is the running minimum of the gate values.  Both minima skip NaN values,
    so a path that is NaN hides no other path's violation.
    """

    def __init__(self, space, n_paths: int, tol: float):
        self.space = space
        self.tol = tol
        self.exit_step = np.full(n_paths, -1, dtype=int)
        if isinstance(space, Polyhedron):
            self._low = np.full((space.n_facets, n_paths), np.inf)
        else:
            self._worst = np.inf

    @property
    def worst(self) -> np.ndarray:
        """Worst value per facet (polyhedral) or of Phi; inf before any
        state was seen."""
        if isinstance(self.space, Polyhedron):
            return self._low.min(axis=1, initial=np.inf)
        return np.array([self._worst])

    def update(self, step: int, x: np.ndarray) -> None:
        if x.shape[1] == 0:
            return
        space = self.space
        if isinstance(space, Polyhedron):
            vals = space.gamma @ x + space.delta[:, None]      # (q, N)
            # fmin keeps the new value on ties, as minimum(low, vals) does
            np.fmin(vals, self._low, out=self._low)
            least = vals.min(initial=np.inf)
        else:
            # Phi per column; the sign makes the state space {value >= 0}
            form = space.form
            vals = _coldot(form.A @ x, x) + form.b @ x + form.c
            if space.component != "positive":
                vals = -vals
            least = vals.min()
            # the least is NaN when some path is: the worst skips that path
            self._worst = min(self._worst,
                              np.fmin.reduce(vals) if least != least else least)
        # written so that a NaN value (which min propagates) still lets an
        # exit of another path through
        if not least >= -self.tol:
            low = vals.min(axis=0) if vals.ndim == 2 else vals
            self.exit_step[(low < -self.tol) & (self.exit_step < 0)] = step


@dataclass
class ExitStats:
    exit_fraction: float
    worst_violation: np.ndarray   # per facet (polyhedral) or the Phi value
    exit_steps: np.ndarray        # (n_paths,), -1 for none


def _stats_from_tracker(tracker: _ExitTracker) -> ExitStats:
    n = tracker.exit_step.shape[0]
    frac = float(np.count_nonzero(tracker.exit_step >= 0)) / n if n else 0.0
    worst = np.where(np.isfinite(tracker.worst), tracker.worst, 0.0)
    return ExitStats(frac, worst, tracker.exit_step.copy())


def _check_start(model: ModelSpec, sigma, cfg: SimConfig) -> None:
    if cfg.x0.shape != (model.dimension,):
        raise PreconditionFailedError(
            f"x0 has shape {cfg.x0.shape}, expected ({model.dimension},)")
    if not bool(model.state_space.contains(cfg.x0)):
        raise PreconditionFailedError("x0 is outside the state space")
    S = np.asarray(sigma(cfg.x0[None]))[0]
    theta0 = model.diffusion(cfg.x0)
    resid = float(np.abs(S @ S.T - theta0).max())
    if resid > TOL.feasibility * _coefficient_scale(theta0):
        raise SigmaMismatchError(
            f"sigma sigma^T differs from theta at x0 by {resid:.3e}")
    p = model.dimension
    # p + 1 columns, so that an evaluator on the (N, p) row contract cannot
    # take the batch for a square one of its own
    noise = np.hstack([np.eye(p), np.ones((p, 1))])
    try:
        got = np.asarray(_contraction(sigma)(
            np.tile(cfg.x0[:, None], (1, p + 1)), noise))
    except (ValueError, IndexError) as exc:
        raise SigmaMismatchError(
            f"sigma.apply does not take (p, N) columns: {exc}") from exc
    if got.shape != (p, p + 1):
        raise SigmaMismatchError(
            f"sigma.apply returned shape {got.shape} for (p, N) columns "
            f"of shape {(p, p + 1)}")
    gap = float(np.abs(got - S @ noise).max())
    if gap > TOL.feasibility * _coefficient_scale(S):
        raise SigmaMismatchError(
            f"sigma.apply differs from sigma at x0 by {gap:.3e}")


def _run(model: ModelSpec, sigma, cfg: SimConfig, projector, on_step):
    """Shared Euler stepping kernel on columns: the state x is (p, N).

    ``on_step(step_index, x)`` is called with the (p, N) state for every
    grid index including 0; the kernel itself stores no path.  The noise
    enters through sigma(x) z (``_contraction``), so evaluators with a
    matrix-free ``apply`` never build sigma(x) here.  Returns the final
    states (n_paths, p) and the nonfinite flags.
    """
    _check_start(model, sigma, cfg)
    contract = _contraction(sigma)
    normals = _noise_stream(cfg.seed)
    p = model.dimension
    n = cfg.n_paths
    dt = cfg.horizon / cfg.steps
    sqdt = np.sqrt(dt)
    full_trunc = cfg.scheme is Scheme.FULL_TRUNCATION_EULER
    if full_trunc and projector is None:
        projector = make_projector(model.state_space)

    x = np.tile(cfg.x0[:, None], (1, n))
    nonfinite = np.zeros(n, dtype=bool)
    on_step(0, x)

    # b spread over the paths once: a broadcast add is slower in the loop
    a, b = model.drift.a, np.repeat(model.drift.b[:, None], n, axis=1)
    drift, kick = np.empty((p, n)), np.empty((p, n))
    # sigma sees the projected state; after the first step x is projected
    # already, and a projection maps its image to itself
    xs = projector(x) if full_trunc else x
    for step in range(cfg.steps):
        # drawn as (N, p), one row per path: the draw order fixes the paths
        noise = np.ascontiguousarray(normals(step, n, p).T)
        with np.errstate(over="ignore", invalid="ignore"):
            # x + (a x + b) dt + sigma(xs) z sqrt(dt), in that order
            np.matmul(a, x, out=drift)
            drift += b
            drift *= dt
            x_new = x + drift
            x_new += np.multiply(contract(xs, noise), sqdt, out=kick)
            # a non-finite entry makes the sum non-finite; a sum that
            # overflows from finite entries only costs the mask below
            finite = np.isfinite(x_new.sum())
        if not finite:
            bad = ~np.isfinite(x_new).all(axis=0)
            nonfinite |= bad
            x_new[:, bad] = x[:, bad]  # freeze exploded paths at the last finite state
        if full_trunc:
            x_new = projector(x_new)
        x = xs = x_new
        on_step(step + 1, x)
    return np.ascontiguousarray(x.T), nonfinite


def simulate_paths(model: ModelSpec, sigma, cfg: SimConfig,
                   projector=None) -> PathEnsemble:
    """Euler simulation of the affine SDE; returns the full path ensemble.

    Under the full-truncation scheme the state is projected onto the state
    space before each diffusion evaluation and after each update, so every
    stored state is a member; under the plain scheme states evolve freely and
    the square-root guards in sigma handle excursions.
    """
    times = np.linspace(0.0, cfg.horizon, cfg.steps + 1)
    tracker = _ExitTracker(model.state_space, cfg.n_paths, _EXIT_TOL)
    states = np.empty((cfg.n_paths, cfg.steps + 1, model.dimension))

    def on_step(step, x):
        states[:, step] = x.T
        tracker.update(step, x)

    _, nonfinite = _run(model, sigma, cfg, projector, on_step)
    return PathEnsemble(times, states, tracker.exit_step, nonfinite)


@dataclass
class SimSummary:
    """Streaming reductions over an ensemble that was never materialized."""

    times: np.ndarray
    final_states: np.ndarray
    exit_stats: ExitStats
    functional_minima: np.ndarray  # (n_functionals, n_paths)
    nonfinite: np.ndarray


def simulate_summary(model: ModelSpec, sigma, cfg: SimConfig, projector=None,
                     functionals: tuple = ()) -> SimSummary:
    """Run the same stepping kernel as simulate_paths but reduce on the fly.

    Produces final states, per-path minima of the given functionals over the
    whole grid (each is called with the (N, p) rows of the states), and exit
    statistics, without storing the paths; results agree exactly with
    reducing a stored ensemble (same noise keying).
    """
    times = np.linspace(0.0, cfg.horizon, cfg.steps + 1)
    tracker = _ExitTracker(model.state_space, cfg.n_paths, _EXIT_TOL)
    minima = np.full((len(functionals), cfg.n_paths), np.inf)

    def on_step(step, x):
        tracker.update(step, x)
        for k, fn in enumerate(functionals):
            minima[k] = np.minimum(minima[k], fn(x.T))

    final, nonfinite = _run(model, sigma, cfg, projector, on_step)
    return SimSummary(times, final, _stats_from_tracker(tracker),
                      minima, nonfinite)


# numerator coefficients of the [13/13] Pade approximant of exp, divided by
# the first so that exp(0) comes out as I exactly, and the largest 1-norm at
# which the approximant is accurate to double precision unscaled
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring with the [13/13] Pade approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): A is scaled by 2^-s
    until its 1-norm is at most theta_13, and the approximant squared s
    times."""
    norm = float(np.abs(A).sum(axis=0).max())
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm else 0
    A = A / 2.0 ** s
    b = _PADE13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def mean_ode(model: ModelSpec, x0, horizon: float,
             n_steps: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    """The mean m(t) of dm/dt = a m + b, m(0) = x0, on a uniform grid of
    n_steps intervals, from the exact propagator.

    (m, 1) evolves by the augmented generator G = [[a, b], [0, 0]], so one
    grid step multiplies it by P = expm(h G).  The grid is filled by
    doubling: the first k points times P^k give the next k, about
    log2(n_steps) matrix products in all.
    """
    a, b = model.drift.a, model.drift.b
    x0 = np.asarray(x0, dtype=float)
    p = x0.shape[0]
    G = np.zeros((p + 1, p + 1))
    G[:p, :p] = a
    G[:p, p] = b
    P = _expm((horizon / n_steps) * G)
    out = np.empty((n_steps + 1, p + 1))
    out[0, :p] = x0
    out[0, p] = 1.0
    done = 1
    while done <= n_steps:
        k = min(done, n_steps + 1 - done)
        out[done:done + k] = out[:k] @ P.T
        P = P @ P
        done += k
    return np.linspace(0.0, horizon, n_steps + 1), out[:, :p]


def invariance_monte_carlo(ens: PathEnsemble, space, tol: float) -> ExitStats:
    """Empirical invariance statistics of a stored ensemble: fraction of paths
    leaving the state space by more than tol, worst violations, and each
    path's first exit step."""
    tracker = _ExitTracker(space, ens.n_paths, tol)
    for step in range(ens.states.shape[1]):
        tracker.update(step, ens.states[:, step].T)
    return _stats_from_tracker(tracker)


def boundary_attainment(ens: PathEnsemble, functional, eps: float) -> float:
    """Fraction of paths whose functional value drops below eps at any grid time."""
    if ens.n_paths == 0:
        return 0.0
    if isinstance(functional, (AffineScalar, QuadraticForm)):
        vals = functional(ens.states.reshape(-1, ens.states.shape[-1]))
        vals = np.asarray(vals).reshape(ens.states.shape[:2])
    else:
        vals = np.asarray(functional(ens.states))
    hit = np.any(vals < eps, axis=1)
    return float(np.count_nonzero(hit)) / ens.n_paths
