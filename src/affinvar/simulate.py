"""Path simulation with state-space-preserving discretization, the moment ODE
oracle, and Monte Carlo invariance statistics.

Noise is drawn from counter-based Philox streams keyed by (seed, step) with
one row per path (one bit generator, re-keyed every step), so ensembles are
bit-identical across runs and adding paths never perturbs existing ones.
Since any step's draw can be made anywhere, a helper process forked on the
first run draws the steps ahead of the kernel into shared memory, on another
CPU; the kernel draws in process when the helper cannot serve a run, with
the same paths either way (``_Noise``).  The
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

import atexit
import contextlib
import gc
import math
import numbers
import os
import struct
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .convex import interior_point
from .core import (ModelSpec, Polyhedron, QuadraticSpace, _coefficient_scale,
                   _coldot, _psd_margins, psd_square_root)
from .errors import PreconditionFailedError, SigmaMismatchError
from .polyhedral import (_canonical_facets, build_square_root,
                         canonical_transform)
from .quadratic import (_canonical_kind, canonical_quadric_model,
                        cone_square_root, parabolic_square_root)
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
        # a bool is an Integral too; numpy integers are valid
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
               for v in (self.steps, self.n_paths, self.seed)):
            raise PreconditionFailedError(
                "steps, n_paths and seed must be integers, got "
                f"{self.steps!r}, {self.n_paths!r} and {self.seed!r}")
        if not 0 < self.horizon < np.inf or self.steps <= 0 or self.n_paths <= 0:
            raise PreconditionFailedError(
                "horizon must be finite and positive, steps and n_paths positive")
        # the noise keys Philox with the seed as one 64-bit word: outside
        # [0, 2^64) two seeds would share a stream
        if not 0 <= self.seed < 2 ** 64:
            raise PreconditionFailedError(
                f"seed must lie in [0, 2^64), got {self.seed}")


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

    def normals(step: int, n_paths: int, p: int, out=None) -> np.ndarray:
        key[1] = step
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": np.zeros(4, dtype=np.uint64),
                                  "key": key},
                        "buffer": np.zeros(4, dtype=np.uint64),
                        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return rng.standard_normal((n_paths, p), out=out)

    return normals


# The noise helper: a process forked on the first kernel run that draws the
# steps' normals into a ring of slots in shared memory while the kernel
# steps.  Philox is counter-based, so a step drawn there is the step drawn
# here, and the kernel can switch to drawing in process at any step.
_RING_BYTES = 1 << 20
# at most this many one-byte tokens are ever in a pipe: fewer than a pipe
# holds, so no token write blocks
_MAX_SLOTS = 1024
_JOB = struct.Struct("<4Q")     # seed, steps, n_paths, p
_helper = None                  # this process's helper, once forked
_helper_lock = threading.Lock()  # held by the run the helper serves


def _ring_slots(values: int) -> int:
    """Slots of `values` normals in the ring."""
    return min(_RING_BYTES // (8 * values), _MAX_SLOTS)


def _helper_usable(values: int) -> bool:
    """Whether the helper can serve a run whose steps draw `values` normals:
    this platform forks, this process may run on a second CPU, and a step's
    draw fills at most half the ring."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1 and 0 < 16 * values <= _RING_BYTES


def _current_cpu():
    """The CPU this process last ran on, from Linux's /proc; None elsewhere."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _serve(ring, job_r: int, full_w: int, free_r: int, cpu) -> None:
    """The helper's life, in the forked child; leaves by ``os._exit`` only,
    so none of the parent's exit handlers run and none of its copied stdio
    buffers is flushed.

    For each job (seed, steps, N, p) read from job_r, step s is drawn into
    slot s mod k of the ring and announced by a token on full_w; from step k
    on, each draw first takes a token from free_r, which the kernel sends
    once it has copied out the slot that the draw reuses.  The child leaves
    when a pipe of the kernel's closes.
    """
    try:
        import signal
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # a full collection would write to every object inherited from the
        # parent, and so copy the pages the two processes still share
        gc.disable()
        # draw beside the kernel, off the CPU it ran on at the fork: a child
        # starts on its parent's CPU, and a scheduler need not move it
        others = os.sched_getaffinity(0) - {cpu} if cpu is not None else ()
        if others:
            os.sched_setaffinity(0, others)
        # keep no other file of the parent's open: a pipe end held here
        # would hide the EOF of that pipe from its reader
        low = 3
        for fd in sorted((job_r, full_w, free_r)):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        # a job is written at once, and a pipe keeps a write that short whole
        while header := os.read(job_r, _JOB.size):
            seed, steps, n, p = _JOB.unpack(header)
            k = _ring_slots(n * p)
            slots = np.frombuffer(ring, count=k * n * p).reshape(k, n, p)
            normals = _noise_stream(seed)
            free = k
            for step in range(steps):
                if not free:
                    free = len(os.read(free_r, _MAX_SLOTS))
                    if not free:
                        return
                free -= 1
                normals(step, n, p, out=slots[step % k])
                os.write(full_w, b"\0")
    finally:
        os._exit(0)


class _NoiseHelper:
    """The parent's side of a helper process: the ring, the parent's ends of
    the job, "slot full" and "slot free" pipes, and the child's pid."""

    def __init__(self):
        import mmap
        self.ring = mmap.mmap(-1, _RING_BYTES)   # shared and anonymous
        cpu = _current_cpu()
        fds = []
        try:
            for _ in range(3):
                fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        job_r, self.job_w, self.full_r, full_w, free_r, self.free_w = fds
        if self.pid == 0:
            _serve(self.ring, job_r, full_w, free_r, cpu)
        for fd in (job_r, full_w, free_r):
            os.close(fd)

    def start(self, seed: int, steps: int, n: int, p: int) -> None:
        """Send the job; the helper starts drawing its first k steps."""
        self.steps, self.k = steps, _ring_slots(n * p)
        self.slots = np.frombuffer(self.ring, count=self.k * n * p) \
            .reshape(self.k, n, p)
        # slots announced and not yet read; slots read and not yet given
        # back, which go back half a ring at a time, or before a wait
        self.ready = self.owed = 0
        os.write(self.job_w, _JOB.pack(seed, steps, n, p))

    def take(self, step: int, out: np.ndarray) -> bool:
        """Copy step's draw, transposed, into out; False once the helper has
        died, and the caller draws the step itself."""
        try:
            if not self.ready:
                self.give_back()
                self.ready = len(os.read(self.full_r, _MAX_SLOTS))
                if not self.ready:
                    return False
            self.ready -= 1
            np.copyto(out, self.slots[step % self.k].T)
            # a slot is given back only if a later step of the job reuses it
            if step + self.k < self.steps:
                self.owed += 1
                if 2 * self.owed >= self.k:
                    self.give_back()
        except OSError:
            return False
        return True

    def give_back(self) -> None:
        if self.owed:
            os.write(self.free_w, b"\0" * self.owed)
            self.owed = 0

    def close_pipes(self) -> None:
        for fd in (self.job_w, self.full_r, self.free_w):
            os.close(fd)

    def end(self) -> None:
        """Kill the helper, whatever its job, and reap it."""
        import signal
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        self.close_pipes()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def _discard_helper() -> None:
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.end()


def _forget_helper() -> None:
    """In a child forked from this process: the helper and the run holding
    its lock are the parent's.  Close this copy of the pipes; the child's
    first run forks a helper of its own."""
    global _helper, _helper_lock
    _helper_lock = threading.Lock()
    if _helper is not None:
        _helper.close_pipes()
        _helper = None


atexit.register(_discard_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


class _Noise:
    """The noise of a run's steps as (p, N) columns, in one buffer that
    every step reuses: ``noise(step)``.  Within ``with``, the helper draws it
    when it can serve the run (``_helper_usable``) and no other run holds
    it; otherwise, and from the step at which the helper is found dead, the
    draw is made in process.  A run that ends by an exception kills and
    reaps the helper, so that no job is left behind; the next run forks a
    new one.
    """

    def __init__(self, cfg: SimConfig, p: int):
        self.cfg, self.p = cfg, p
        self.cols = np.empty((p, cfg.n_paths))
        self.normals = _noise_stream(cfg.seed)
        self.helper = None
        self.lock = None      # the helper's lock, while this run holds it

    def __enter__(self):
        global _helper
        cfg = self.cfg
        if _helper_usable(cfg.n_paths * self.p) and \
                _helper_lock.acquire(blocking=False):
            self.lock = _helper_lock
            try:
                if _helper is None:
                    _helper = _NoiseHelper()
                _helper.start(cfg.seed, cfg.steps, cfg.n_paths, self.p)
                self.helper = _helper
            except OSError:
                _discard_helper()
            except BaseException:       # no __exit__ follows
                _discard_helper()
                self.lock.release()
                raise
        return self

    def __call__(self, step: int) -> np.ndarray:
        if self.helper is not None:
            if self.helper.take(step, self.cols):
                return self.cols
            self.helper = None
            _discard_helper()
        # drawn as (N, p), one row per path: the draw order fixes the paths
        np.copyto(self.cols, self.normals(step, self.cfg.n_paths, self.p).T)
        return self.cols

    def __exit__(self, exc_type, exc, tb):
        if self.lock is not None:
            if exc_type is not None and self.helper is not None:
                _discard_helper()
            self.lock.release()


def _contraction(sigma):
    """(x, z) -> sigma(x) z for columns (p, N): the evaluator's matrix-free
    ``apply`` when it has one, else a contraction of the matrices sigma(x),
    which a plain callable evaluates at the rows x.T."""
    apply = getattr(sigma, "apply", None)
    if apply is not None:
        return apply
    return lambda x, z: np.einsum("nij,jn->in", np.asarray(sigma(x.T)), z)


def simulation_frame(model: ModelSpec):
    """(canonical model, sigma, f, x0): the frame a simulation runs in.

    f is the map y = L x + ell to the canonical coordinates, the canonical
    transform of a polyhedron or the normalized frame of a quadric, and x0
    the default start in the model's own coordinates: the least-distance
    interior point of a polyhedron, the preimage of e_1 for a quadric.
    A quadric without a normalized frame raises (`QuadricFrame.normalized`):
    only the inside of a parabola, or of a cone with theta = zeta, has one.
    """
    if isinstance(model.state_space, Polyhedron):
        ct = canonical_transform(model)
        return (ct.model, build_square_root(ct), ct.map,
                interior_point(ct.polyhedron))
    frame = canonical_quadric_model(model).normalized()
    cls = frame.classification
    sigma = parabolic_square_root(frame.structure) \
        if cls.kind == "parabolic" else cone_square_root(cls.q)
    return (frame.model, sigma, frame.map,
            frame.map.preimage(np.eye(model.dimension)[0]))


def generic_square_root(model: ModelSpec):
    """Pointwise symmetric root |theta(x)|^(1/2); batched eigendecomposition."""
    theta = model.diffusion

    def sigma(x):
        return psd_square_root(theta(np.asarray(x, dtype=float)))

    return sigma


def make_projector(space) -> callable:
    """Cheap exact projections for the canonical state-space shapes.

    The projector maps columns (p, N), one point per column, to new columns;
    its ``clamp(x)`` projects columns x in place, with the same operations.
    Polyhedral spaces must have ``canonical_transform``'s layout
    R^m_+ x C x R^r (`polyhedral._canonical_facets`); any other is refused.
    It clamps the k = m + n leading facet coordinates at zero through one
    slice; the admissible drift keeps the cuts of C.  Parabolic spaces
    clamp x_1 at y^T y; conical spaces clamp x_1 at |y| radially, onto the
    forward nappe {x_1 >= |y|}, where zeta is PSD and where every run starts
    (``_check_start``); a backward-nappe member is moved to it.  Only the
    inside of a quadric is clamped, and of a cone only with q >= 2: the
    outside, and the R^p that the q = 1 form x_1^2 bounds, have members a
    clamp would move.  General state spaces must be canonicalized first.
    """
    if isinstance(space, Polyhedron):
        k = _canonical_facets(space)
        if k is None:
            raise PreconditionFailedError(
                "full-truncation projection needs the canonical layout: the "
                "facets u_i(x) = x_i first, then cuts on those coordinates; "
                "canonicalize the model first")

        def clamp(x):
            np.maximum(x[:k], 0.0, out=x[:k])
    elif isinstance(space, QuadraticSpace):
        kind, q = _canonical_kind(space.form) or (None, 0)
        if space.component != "positive" or kind == "cone" and q < 2:
            raise PreconditionFailedError(
                "full-truncation projection needs the inside of a parabola "
                "or of a cone with q >= 2, where a clamp moves no member")
        if kind == "parabolic":
            def clamp(x):
                np.maximum(x[0], _coldot(x[1:q], x[1:q]), out=x[0])
        elif kind == "cone":
            def clamp(x):
                r = np.sqrt(_coldot(x[1:q], x[1:q]))
                r *= 1.0 + 1e-12
                np.maximum(x[0], r, out=x[0])
        else:
            raise PreconditionFailedError(
                "full-truncation projection needs a canonical quadric")
    else:
        raise PreconditionFailedError(f"unsupported state space {type(space)!r}")

    def proj(x):
        out = x.copy()
        clamp(out)
        return out

    proj.clamp = clamp
    return proj


class _ExitTracker:
    """Running first-exit and worst-violation statistics over all paths,
    given as columns (p, N) one step at a time (``update(step, x)``).

    A step's values are rows (k, N) that are >= 0 in the state space: the
    q facet values of a polyhedron, or the one signed Phi row of a quadric,
    each formed in a buffer that every step reuses.  While no path is out,
    a step costs one reduction: the least value of the step gates the
    per-path exit bookkeeping.  The worst value of each row is an
    elementwise running minimum over the steps, reduced over the paths only
    when ``worst`` is read.  The minima skip NaN values, so a path that is
    NaN hides no other path's violation.
    """

    def __init__(self, space, n_paths: int, tol: float):
        self.tol = tol
        self.exit_step = np.full(n_paths, -1, dtype=int)
        if isinstance(space, Polyhedron):
            gamma, k = space.gamma, space.n_facets
            buf = np.empty((k, n_paths))
            # delta spread over the paths once: a broadcast add is slower
            delta = np.repeat(space.delta[:, None], n_paths, axis=1)

            def values(x):
                vals = np.matmul(gamma, x, out=buf)
                vals += delta
                return vals
        else:
            form, k = space.form, 1
            flip = space.component != "positive"
            buf = np.empty((form.A.shape[0], n_paths))
            bx = np.empty(n_paths)
            phi = buf[:1]

            def values(x):
                # Phi = (A x).x + b.x + c per column, in the first row of
                # buf, the dot summed left to right over the rows as
                # _coldot sums it
                np.multiply(np.matmul(form.A, x, out=buf), x, out=buf)
                vals = buf[0]
                for row in buf[1:]:
                    vals += row
                vals += np.matmul(form.b, x, out=bx)
                vals += form.c
                # the sign makes the state space {value >= 0}
                if flip:
                    np.negative(vals, out=vals)
                return phi

        self._values = values
        self._low = np.full((k, n_paths), np.inf)

    @property
    def worst(self) -> np.ndarray:
        """Worst value per row, (q,) or (1,); inf before any state was
        seen."""
        return self._low.min(axis=1, initial=np.inf)

    def update(self, step: int, x: np.ndarray) -> None:
        vals = self._values(x)
        # fmin keeps the new value on ties, as minimum(low, vals) does
        np.fmin(vals, self._low, out=self._low)
        least = np.minimum.reduce(vals, axis=None, initial=np.inf)
        # written so that a NaN value (which the minimum propagates) still
        # lets an exit of another path through
        if not least >= -self.tol:
            low = vals.min(axis=0)
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
    theta0 = model.diffusion(cfg.x0)
    # a member where theta is not PSD (the backward nappe of a cone, say)
    # has no sigma to start from
    margin = float(_psd_margins(np.linalg.eigvalsh(theta0)))
    if margin < -TOL.psd:
        raise PreconditionFailedError(
            f"theta is not PSD at x0 (relative margin {margin:.3e})")
    S = np.asarray(sigma(cfg.x0[None]))[0]
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
    matrix-free ``apply`` never build sigma(x) here.  A projector with a
    ``clamp`` (``make_projector``'s) projects each step's fresh state in
    place; any other projector is called.  The step loop, every on_step
    included, runs in one error-state scope that ignores overflow, invalid
    and divide errors.  Each step's noise comes from ``_Noise``: drawn by
    the helper process while the kernel steps, or in process.  Returns the
    final states (n_paths, p) and the nonfinite flags.
    """
    _check_start(model, sigma, cfg)
    contract = _contraction(sigma)
    p = model.dimension
    n = cfg.n_paths
    dt = cfg.horizon / cfg.steps
    sqdt = np.sqrt(dt)
    full_trunc = cfg.scheme is Scheme.FULL_TRUNCATION_EULER
    if full_trunc and projector is None:
        projector = make_projector(model.state_space)
    clamp = getattr(projector, "clamp", None) if full_trunc else None

    x = np.tile(cfg.x0[:, None], (1, n))
    nonfinite = np.zeros(n, dtype=bool)
    # b spread over the paths once: a broadcast add is slower in the loop
    a, b = model.drift.a, np.repeat(model.drift.b[:, None], n, axis=1)
    drift, kick = np.empty((p, n)), np.empty((p, n))
    # sigma sees the projected state; after the first step x is projected
    # already, and a projection maps its image to itself
    xs = projector(x) if full_trunc else x
    with _Noise(cfg, p) as noise_of, \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        on_step(0, x)
        for step in range(cfg.steps):
            noise = noise_of(step)
            # x + (a x + b) dt + sigma(xs) z sqrt(dt), in that order
            np.matmul(a, x, out=drift)
            drift += b
            drift *= dt
            x_new = x + drift
            x_new += np.multiply(contract(xs, noise), sqdt, out=kick)
            # a non-finite entry makes the sum non-finite; a sum that
            # overflows from finite entries only costs the mask below
            if not math.isfinite(np.add.reduce(x_new, axis=None)):
                bad = ~np.isfinite(x_new).all(axis=0)
                nonfinite |= bad
                # freeze exploded paths at the last finite state
                x_new[:, bad] = x[:, bad]
            if clamp is not None:
                clamp(x_new)        # x_new is the kernel's own
            elif full_trunc:
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
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
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
    # an exponential out of range overflows to inf and NaN here, which the
    # caller reads as a non-finite mean
    with np.errstate(over="ignore", invalid="ignore"):
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
