"""The three workloads: what one round of calls is, and how each call's
output is checked.

A workload is set up once (`setup`), warmed up (`warmup`), and then runs
rounds of `calls()`.  Each call is a pair (run, check): only `run` is timed,
`check` compares its output with the expected verdict or the moment oracle
and returns True when the output is correct.  Every round issues the same
calls in the same order, so a round is a fixed amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

# Package functions are looked up on their modules at call time, so that the
# tracer's wrappers see the calls made from here too.
import affinvar
import affinvar.cli
from affinvar import Polyhedron, QuadraticForm, QuadraticSpace, Scheme, SimConfig
from affinvar.modelio import fixture_path

import bench_models
import bench_moments

POLY_FIXTURES = ("cir", "triangle_channel", "hyperbola_wedge")
QUAD_FIXTURES = ("parabola3", "cone3")
SIM_FIXTURES = ("cir", "triangle_channel", "parabola3", "cone3")
SCHEMES = ("full-truncation", "plain")

# Expected (exit code, verdict) of every certify call on the shipped fixtures.
# hyperbola_wedge is not invariant (validate and canonicalize exit 1) but its
# diffusion decomposes; triangle_channel is invariant but admits no PSD facet
# decomposition (decompose exits 1).
FIXTURE_VERDICTS = {
    ("cir", "validate"): (0, True, (1, 0), "ok"),
    ("cir", "canonicalize"): (0, (1, 0)),
    ("cir", "decompose"): (0, "ok"),
    ("triangle_channel", "validate"): (0, True, (0, 2), "not-representable"),
    ("triangle_channel", "canonicalize"): (0, (0, 2)),
    ("triangle_channel", "decompose"): (1, "not-representable"),
    ("hyperbola_wedge", "validate"): (1, False, None, None),
    ("hyperbola_wedge", "canonicalize"): (1, "NotAdmissibleError"),
    ("hyperbola_wedge", "decompose"): (0, "ok"),
    ("parabola3", "validate"): (0, True, "parabolic"),
    ("parabola3", "classify"): (0, "parabolic"),
    ("parabola3", "decompose"): (0, "ok", "parabolic"),
    ("cone3", "validate"): (0, True, "cone"),
    ("cone3", "classify"): (0, "cone"),
    ("cone3", "decompose"): (0, "ok", "conical"),
}


def run_cli(argv: list[str], tracer=None) -> tuple[int, str, str]:
    """`affinvar.cli.main` in process, with its stdout and stderr captured;
    under a tracer the call is a `cli.main` span."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = affinvar.cli.main(argv) if tracer is None else \
            tracer.call("cli.main", affinvar.cli.main, argv)
    return code, out.getvalue(), err.getvalue()


def verdict(op: str, code: int, out: str, err: str) -> tuple:
    """The part of a certify report that the expected tables pin down."""
    if not out.strip():
        return (code, json.loads(err)["error"] if err.strip() else None)
    rep = json.loads(out)
    if op == "validate":
        if "classification" in rep:
            return (code, rep["passed"], rep["classification"]["kind"])
        canon = rep.get("canonical")
        return (code, rep["passed"],
                None if canon is None else (canon["m"], canon["n"]),
                rep.get("decompose", {}).get("status"))
    if op == "canonicalize":
        return (code, (rep["transform"]["m"], rep["transform"]["n"]))
    if op == "classify":
        return (code, rep["classification"]["kind"])
    dec = rep["decomposition"]
    return (code, dec["status"]) if "kind" not in dec else \
        (code, dec["status"], dec["kind"])


class Workload:
    name = ""
    tracer = None   # a bench_trace.Tracer while a traced unit runs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _cli(self, label: str, argv: list[str]):
        if self.tracer is not None:
            self.tracer.label = label
        return run_cli(argv, self.tracer)


class Certify(Workload):
    """validate / canonicalize / decompose on polyhedral models and
    validate / classify / decompose on quadric models, via the CLI."""

    name = "certify"

    def setup(self) -> None:
        self.cases = []   # (label, op, path, expected verdict)
        for fx in POLY_FIXTURES + QUAD_FIXTURES:
            ops = ("validate", "canonicalize", "decompose") \
                if fx in POLY_FIXTURES else ("validate", "classify", "decompose")
            for op in ops:
                self.cases.append((fx, op, str(fixture_path(fx)),
                                   FIXTURE_VERDICTS[(fx, op)]))
        for name, model, (m, n) in bench_models.generated_models(self.seed):
            path = self.workdir / f"{name}.json"
            with open(path, "w") as fh:
                json.dump(model, fh)
            self.cases += [
                (name, "validate", str(path), (0, True, (m, n), "ok")),
                (name, "canonicalize", str(path), (0, (m, n))),
                (name, "decompose", str(path), (0, "ok")),
            ]

    def warmup(self) -> None:
        for label, op, path, _ in self.cases[:15]:
            run_cli([op, path])

    def calls(self):
        for label, op, path, expected in self.cases:
            def run(label=label, op=op, path=path):
                return self._cli(label, [op, path])

            def check(result, op=op, expected=expected):
                code, out, err = result
                return code != 3 and verdict(op, code, out, err) == expected

            yield label, run, check

    def gate_info(self) -> dict:
        return {"calls_per_round": len(self.cases)}


def simulation_setup(model):
    """Canonical model, sigma evaluator and canonical start point, built from
    the package's public functions the way `affinvar simulate` builds them."""
    if isinstance(model.state_space, Polyhedron):
        ct = affinvar.canonical_transform(model)
        return (affinvar.transform_model(model, ct),
                affinvar.build_square_root(ct),
                ct.to_canonical(affinvar.interior_point(ct.polyhedron)))
    space = model.state_space
    cls = affinvar.classify_quadric(space.form)
    p = model.dimension
    A = np.zeros((p, p))
    idx = np.arange(1, cls.q)
    A[idx, idx] = -1.0
    if cls.kind == "parabolic":
        form = QuadraticForm(A, np.eye(p)[0], 0.0)
    else:
        A[0, 0] = 1.0
        form = QuadraticForm(A, np.zeros(p), cls.d)
    flipped = (space.component == "positive") != (cls.sign == 1)
    canon = affinvar.core.change_model_coordinates(
        model, cls.T, cls.t,
        QuadraticSpace(form, "negative" if flipped else "positive", space.closed))
    if cls.kind == "parabolic":
        S, _, dec = affinvar.normalize_parabolic(canon.diffusion, cls.q)
        canon = affinvar.core.change_model_coordinates(
            canon, S, np.zeros(p), canon.state_space)
        sigma = affinvar.parabolic_square_root(dec)
    else:
        sigma = affinvar.cone_square_root(cls.q)
    return canon, sigma, np.eye(p)[0]


class _Simulation(Workload):
    """Shared shape of the simulation workloads: one call per fixture and
    scheme, each checked against the moment oracle in its first round and
    required to repeat that output exactly in later rounds."""

    horizon, steps, paths = 1.0, 200, 1000

    def calls(self):
        for fx in SIM_FIXTURES:
            for scheme in SCHEMES:
                def run(fx=fx, scheme=scheme):
                    return self._run(fx, scheme)

                def check(result, fx=fx, scheme=scheme):
                    key = (fx, scheme)
                    outcome = self._outcome(result)
                    if key not in self.checked:
                        self.checked[key] = (outcome,
                                             self._check(fx, scheme, result))
                    first, passed = self.checked[key]
                    return passed and _same(outcome, first)

                yield fx, run, check

    def gate_info(self) -> dict:
        return {"calls_per_round": len(SIM_FIXTURES) * len(SCHEMES),
                "paths": self.paths, "steps": self.steps,
                "covariance_skipped": bench_moments.COVARIANCE_SKIPPED,
                "moments": self.gates}


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class McStream(_Simulation):
    """Streaming `simulate_summary` on the canonical models of four fixtures,
    under both schemes."""

    name = "mc-stream"

    def setup(self) -> None:
        self.sims = {}
        for fx in SIM_FIXTURES:
            if self.tracer is None:
                self.sims[fx] = self._setup_one(fx)
            else:
                self.tracer.label = fx
                self.sims[fx] = self.tracer.call("bench.setup",
                                                 self._setup_one, fx)
        self.gates, self.checked = {}, {}

    @staticmethod
    def _setup_one(fx: str):
        canon, sigma, x0 = simulation_setup(
            affinvar.load_model(fixture_path(fx)))
        return canon, sigma, x0, affinvar.simulate.make_projector(canon.state_space)

    def warmup(self) -> None:
        for canon, sigma, x0, proj in self.sims.values():
            affinvar.simulate_summary(canon, sigma, SimConfig(x0, 0.01, 2, 8, 0),
                                      projector=proj)

    def _run(self, fx: str, scheme: str):
        canon, sigma, x0, proj = self.sims[fx]
        if scheme == "plain":
            proj = None
        cfg = SimConfig(x0, self.horizon, self.steps, self.paths, self.seed,
                        Scheme(scheme))
        if self.tracer is not None:
            self.tracer.label = fx
        return affinvar.simulate.simulate_summary(canon, sigma, cfg,
                                                  projector=proj)

    @staticmethod
    def _outcome(summary):
        return (summary.final_states,)

    def _check(self, fx: str, scheme: str, summary) -> bool:
        canon, _, x0, _ = self.sims[fx]
        gate = bench_moments.sample_gate(
            canon, x0, self.horizon, self.steps, summary.final_states,
            check_covariance=fx not in bench_moments.COVARIANCE_SKIPPED)
        self.gates[f"{fx}/{scheme}"] = gate
        return (gate["passed"] and not summary.nonfinite.any() and
                (scheme == "plain" or summary.exit_stats.exit_fraction == 0.0))


class CliSimulate(_Simulation):
    """In-process `affinvar simulate` on four fixtures under both schemes:
    stored ensembles, canonical set-up, the moment ODE and JSON output on
    every call."""

    name = "cli-simulate"

    def setup(self) -> None:
        self.models = {fx: affinvar.load_model(fixture_path(fx))
                       for fx in SIM_FIXTURES}
        self.gates, self.checked = {}, {}

    def _argv(self, fx: str, scheme: str, paths: int, steps: int):
        return ["simulate", str(fixture_path(fx)), "--t", repr(self.horizon),
                "--steps", str(steps), "--paths", str(paths),
                "--seed", str(self.seed), "--scheme", scheme]

    def warmup(self) -> None:
        for fx in SIM_FIXTURES:
            run_cli(self._argv(fx, "full-truncation", 8, 2))

    def _run(self, fx: str, scheme: str):
        return self._cli(fx, self._argv(fx, scheme, self.paths, self.steps))

    @staticmethod
    def _outcome(result):
        code, out, _ = result
        sim = json.loads(out)["simulation"] if code == 0 else {}
        return code, sim.get("final_mean"), sim.get("final_std")

    def _check(self, fx: str, scheme: str, result) -> bool:
        code, out, _ = result
        if code != 0:
            return False
        sim = json.loads(out)["simulation"]
        model = self.models[fx]
        gate = bench_moments.report_gate(
            model, sim["x0"], self.horizon, self.steps, self.paths,
            sim["final_mean"], sim["final_std"],
            check_variance=fx not in bench_moments.COVARIANCE_SKIPPED)
        m_ex, _ = bench_moments.exact_moments(model, sim["x0"], self.horizon)
        gate["mean_ode_error"] = float(
            np.abs(np.asarray(sim["mean_ode_final"]) - m_ex).max())
        self.gates[f"{fx}/{scheme}"] = gate
        return (gate["passed"] and sim["nonfinite_paths"] == 0 and
                gate["mean_ode_error"] <= 1e-6 * (1.0 + float(np.abs(m_ex).max()))
                and (scheme == "plain" or sim["exit_fraction"] == 0.0))


WORKLOADS = {w.name: w for w in (Certify, McStream, CliSimulate)}
