"""The call list of ``tools/cli_digests.py`` covers what its docstring
promises.  The calls themselves are not run here: the list is built, with
its model files, and compared with the promise."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from affinvar.modelio import (fixture_path, load_fixture, load_model,
                              model_to_dict)
from affinvar.simulate import _RING_BYTES
from conftest import random_affine_image

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("cir", "triangle_channel", "hyperbola_wedge", "parabola3", "cone3")
COMMANDS = ("validate", "canonicalize", "decompose", "classify")
EDGE_MODELS = ("sqrt-facet-zero-multiple", "parabola-open-only",
               "theta-leaves-psd-cone", "empty-polyhedron", "ellipsoid",
               "parabola-outside", "parabola-outside-broken",
               "cone-unnormalized",
               "parabola-broken-structure", "parabola-c-zero", "parabola-c-two",
               "cone-hyperboloid", "closed-string", "dimension-float",
               "interval-outward-drift", "cir-overflow",
               "triangle-outward-drift", "triangle-scaled-facet")
LATE_EDGE_MODELS = ("parabola-residual-free-slope",
                    "parabola-residual-boundary-dip", "parabola-eta-column",
                    "cir-redundant-facet")


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _late_edge_models_are_as_documented(tmp_path):
    """The parabolas reach the residual block off its closed form, the
    eta column and the free coordinates; cir gains a redundant facet."""
    models = {name: load_model(tmp_path / f"{name}.json")
              for name in LATE_EDGE_MODELS}
    x = np.array([[0.0, 0.0, -2000.0], [1.1025, 1.05, 0.0]])
    for name, point, B in (("parabola-residual-free-slope", x[0], -1.0),
                           ("parabola-residual-boundary-dip", x[1], -0.1025)):
        model = models[name]
        assert model.state_space.contains(point)
        theta = model.diffusion(point)
        assert theta[2, 2] == pytest.approx(B)
        assert np.array_equal(model.drift.b, [2.0, 0.0, 0.0])
    eta = models["parabola-eta-column"]
    point = np.array([3.0, 0.5, -1.0, 7.0])
    assert eta.diffusion(point)[:3, 3] == pytest.approx([0.0, -0.7, -0.35])
    assert eta.diffusion(point)[3, 3] == pytest.approx(1.0 + 0.49 * 3.0)
    cir = models["cir-redundant-facet"]
    assert np.array_equal(cir.state_space.gamma, [[1.0], [2.0]])
    assert np.array_equal(cir.state_space.delta, [0.0, 1.0])


def test_cli_digest_calls_cover_the_list(tmp_path):
    calls = _module(ROOT / "tools" / "cli_digests.py").calls(tmp_path)
    generated = _module(ROOT / "perfbench" / "bench_models.py").generated_models
    labels = [label for label, _ in calls]
    argvs = [tuple(argv) for _, argv in calls]
    assert len(set(labels)) == len(labels) == len(set(argvs))
    assert len(calls) == 636

    # the last calls come after the 610 others, so that those keep their
    # lines: every command on triangle_channel cut at x_1 + x_2 >= 1.4, then
    # simulate from its vertex (0, 1.4) and from cone3's backward nappe,
    # then every command on each of the late edge models
    argvs, appended, late = argvs[:610], argvs[610:616], argvs[616:]
    vertex = tmp_path / "theta-not-psd-vertex.json"
    model = json.loads(fixture_path("triangle_channel").read_text())
    model["state_space"]["delta"][2] = -1.4
    assert json.loads(vertex.read_text()) == model
    sim = ("--t", "0.25", "--steps", "25", "--paths", "40", "--seed", "11")
    assert appended == [(cmd, str(vertex)) for cmd in COMMANDS] + [
        ("simulate", str(vertex), *sim, "--x0=0,1.4,0,0"),
        ("simulate", str(fixture_path("cone3")), *sim, "--x0=-2,0.5,0")]
    assert late == [argv for name in LATE_EDGE_MODELS
                    for argv in [(cmd, str(tmp_path / f"{name}.json"))
                                 for cmd in COMMANDS] +
                    [("simulate", str(tmp_path / f"{name}.json"), *sim)]]
    _late_edge_models_are_as_documented(tmp_path)

    expected = set()
    for tol in ((), ("--tol", "1e-6")):
        for fx in FIXTURES:
            expected |= {(cmd, str(fixture_path(fx)), *tol) for cmd in COMMANDS}
        for seed in (1, 2, 3, 5, 7919):
            for name, model, _ in generated(seed):
                path = tmp_path / f"seed{seed}_{name}.json"
                assert json.loads(path.read_text()) == model
                expected |= {(cmd, str(path), *tol) for cmd in COMMANDS[:3]}
    # the first 20 seed-11 affine images, drawn by the map of the tests from
    # one generator per fixture, of the two fixtures whose decomposition runs
    # the L-BFGS search and of the two quadrics, whose frame is decided off
    # the canonical coordinates; the first 3 parabola images also simulate
    image_sims = set()
    for fx in ("hyperbola_wedge", "triangle_channel", "parabola3", "cone3"):
        rng = np.random.default_rng(11)
        for i in range(20):
            path = tmp_path / f"{fx}-image{i}.json"
            image = random_affine_image(rng, load_fixture(fx))
            assert json.loads(path.read_text()) == model_to_dict(image)
            expected |= {(cmd, str(path)) for cmd in ("validate", "decompose")}
            if fx == "parabola3" and i < 3:
                image_sims.add(str(path))
    for name in EDGE_MODELS:
        path = str(tmp_path / f"{name}.json")
        expected |= {(cmd, path) for cmd in COMMANDS}
        assert sum(argv[:2] == ("simulate", path) for argv in argvs) == 1
    assert expected <= set(argvs)

    fixtures = {str(fixture_path(fx)): fx for fx in FIXTURES}
    # one call draws each step's noise in process: more than half the ring
    # of the noise helper, which draws it for the other calls
    large = ("simulate", str(fixture_path("cir")), "--steps", "2",
             "--paths", "200000", "--seed", "11")
    assert argvs.count(large) == 1
    assert 2 * 8 * 200000 > _RING_BYTES
    simulate = [argv for argv in argvs if argv[0] == "simulate" and
                argv[1] in fixtures and argv != large]
    runs = sorted((fixtures[argv[1]], argv[argv.index("--scheme") + 1],
                   "--csv" in argv) for argv in simulate)
    assert runs == sorted((fx, scheme, csv)
                          for fx in ("cir", "triangle_channel", "parabola3",
                                     "cone3")
                          for scheme in ("full-truncation", "plain")
                          for csv in (False, True))
    edge_paths = {str(tmp_path / f"{name}.json") for name in EDGE_MODELS}
    assert {argv[1] for argv in argvs if argv[0] == "simulate"} - \
        set(fixtures) - edge_paths == image_sims
    assert len(argvs) == len(expected) + len(EDGE_MODELS) + len(simulate) + \
        len(image_sims) + 1 == 610
