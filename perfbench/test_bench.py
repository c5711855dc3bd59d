"""Tests of the benchmark itself: the moment oracle, the correctness gates,
the exact counts of the traced run, and the refusal to run without sources.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import affinvar  # noqa: E402
from affinvar import SimConfig, Scheme, load_fixture  # noqa: E402
from affinvar.core import AffineMatrixField, ModelSpec  # noqa: E402
from affinvar.simulate import make_projector  # noqa: E402

import bench_clock  # noqa: E402
import bench_models  # noqa: E402
import bench_moments  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

GATED = ("cir", "triangle_channel", "cone3")   # covariance checked


@pytest.mark.parametrize("fx", bench_workloads.SIM_FIXTURES)
def test_exact_mean_matches_rk4(fx):
    model = load_fixture(fx)
    canon, _, x0 = bench_workloads.simulation_setup(model)
    mean, cov = bench_moments.exact_moments(canon, x0, 1.0)
    _, ode = affinvar.mean_ode(canon, x0, 1.0)
    assert np.abs(mean - ode[-1]).max() <= 1e-9
    assert np.allclose(cov, cov.T) and np.linalg.eigvalsh(cov)[0] >= -1e-12


def test_euler_moments_follow_the_recursion():
    model = load_fixture("cone3")
    canon, _, x0 = bench_workloads.simulation_setup(model)
    steps, dt = 7, 0.1
    a, b, theta = canon.drift.a, canon.drift.b, canon.diffusion
    m, M = x0.copy(), np.outer(x0, x0)
    for _ in range(steps):
        F, c = np.eye(3) + dt * a, dt * b
        M = F @ M @ F.T + np.outer(F @ m, c) + np.outer(c, F @ m) + \
            np.outer(c, c) + dt * theta(m)
        m = F @ m + c
    mean, cov = bench_moments.euler_moments(canon, x0, steps * dt, steps)
    assert np.allclose(mean, m, atol=1e-12)
    assert np.allclose(cov, M - np.outer(m, m), atol=1e-12)


def _stream(fx, scale=1.0):
    """simulate_summary on the canonical model, driven by scale * sigma on a
    diffusion scaled by scale^2 (so the start-point check still passes)."""
    canon, sigma, x0 = bench_workloads.simulation_setup(load_fixture(fx))
    run_model = canon
    if scale != 1.0:
        run_model = ModelSpec(canon.dimension, canon.drift,
                              AffineMatrixField(scale ** 2 * canon.diffusion.A0,
                                                scale ** 2 * canon.diffusion.A),
                              canon.state_space)
    cfg = SimConfig(x0, 1.0, 200, 1000, 3, Scheme.FULL_TRUNCATION_EULER)
    summary = affinvar.simulate_summary(
        run_model, lambda x: scale * sigma(x), cfg,
        projector=make_projector(canon.state_space))
    return bench_moments.sample_gate(canon, x0, 1.0, 200,
                                     summary.final_states, True)


@pytest.mark.parametrize("fx", GATED)
def test_gate_passes_correct_sigma(fx):
    gate = _stream(fx)
    assert gate["passed"], gate


@pytest.mark.parametrize("fx", GATED)
def test_gate_catches_doubled_sigma(fx):
    gate = _stream(fx, scale=2.0)
    assert not gate["passed"]
    assert gate["cov_ratio"] > 1.0, gate


def test_report_gate_catches_doubled_std():
    model = load_fixture("cir")
    mean, cov = bench_moments.exact_moments(model, [1.0], 1.0)
    std = np.sqrt(np.diag(cov))
    ok = bench_moments.report_gate(model, [1.0], 1.0, 200, 1000, mean, std, True)
    bad = bench_moments.report_gate(model, [1.0], 1.0, 200, 1000, mean,
                                    2.0 * std, True)
    assert ok["passed"] and not bad["passed"]


def test_timed_reports_at_reference_speed():
    result, error, wall, adjusted, ref = bench_clock.timed(sum, [1, 2])
    assert result == 3 and error is None and wall > 0 and ref > 0
    assert adjusted == pytest.approx(wall * bench_clock.REF_PROBE_S / ref)
    result, error, *_ = bench_clock.timed(int, "x")
    assert result is None and isinstance(error, ValueError)


def test_generated_models_depend_only_on_seed():
    first = bench_models.generated_models(11)
    assert json.dumps(first) == json.dumps(bench_models.generated_models(11))
    assert json.dumps(first) != json.dumps(bench_models.generated_models(12))
    assert [(p, m, n) for p, m, n in bench_models.SHAPES] == \
        [(md["dimension"], *mn) for _, md, mn in first]


def _traced_unit(workload, tmp_path, tracer):
    wl = workload(5, tmp_path)
    wl.tracer = tracer
    tracer.install()
    try:
        wl.setup()
        checks = [check(run()) for _, run, check in wl.calls()]
    finally:
        tracer.uninstall()
    return checks, tracer


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    workload = bench_workloads.WORKLOADS[name]
    checks1, tr1 = _traced_unit(workload, tmp_path, bench_trace.Tracer())
    checks2, tr2 = _traced_unit(workload, tmp_path, bench_trace.Tracer())
    first, second = bench_trace.summarize(tr1), bench_trace.summarize(tr2)
    assert all(checks1) and all(checks2)
    for key in bench_trace.EXACT:
        assert first[key] == second[key], key
    assert first["convex.lp_unaccounted"] == 0
    _, kernels = _traced_unit(workload, tmp_path,
                              bench_trace.Tracer(only=bench_trace.KERNELS))
    assert set(first) | set(bench_trace.kernel_throughput(kernels)) | \
        {"trace.overhead_s", "trace.overhead_pct"} == set(bench_trace.PER_LAYER)
    # the tracer is gone once uninstalled
    assert affinvar.convex.linprog.__module__.startswith("scipy")
    assert affinvar.simulate.make_projector.__module__ == "affinvar.simulate"


@pytest.mark.parametrize("name", ["mc-stream", "cli-simulate"])
def test_kernel_spans(name, tmp_path):
    """Every kernel call gets its sigma and (under full truncation) its
    projector wrapped; the kernel-only tracer records the kernel alone."""
    workload = bench_workloads.WORKLOADS[name]
    _, tracer = _traced_unit(workload, tmp_path, bench_trace.Tracer())
    spans = tracer.spans
    kernels = [i for i, s in enumerate(spans)
               if s["name"] in bench_trace.KERNELS]
    calls = len(bench_workloads.SIM_FIXTURES) * len(bench_workloads.SCHEMES)
    assert len(kernels) == calls
    inner = [{s["name"] for s in spans if s["parent"] == i} for i in kernels]
    assert all("simulate.sigma" in names for names in inner)
    # one full-truncation call per fixture
    assert sum("simulate.projector" in names for names in inner) == \
        len(bench_workloads.SIM_FIXTURES)
    _, light = _traced_unit(workload, tmp_path,
                            bench_trace.Tracer(only=bench_trace.KERNELS))
    assert [s["name"] for s in light.spans] == \
        [spans[i]["name"] for i in kernels]
    rates = bench_trace.kernel_throughput(light)
    assert all(rates[f"simulate.path_steps_per_s.{fx}"] > 0
               for fx in bench_workloads.SIM_FIXTURES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
