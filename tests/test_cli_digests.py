"""The call list of ``tools/cli_digests.py`` covers what its docstring
promises.  The calls themselves are not run here: the list is built, with
its model files, and compared with the promise."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from affinvar.modelio import fixture_path, load_fixture, model_to_dict
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
               "interval-outward-drift", "cir-overflow")


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_calls_cover_the_list(tmp_path):
    calls = _module(ROOT / "tools" / "cli_digests.py").calls(tmp_path)
    generated = _module(ROOT / "perfbench" / "bench_models.py").generated_models
    labels = [label for label, _ in calls]
    argvs = [tuple(argv) for _, argv in calls]
    assert len(set(labels)) == len(labels) == len(set(argvs))

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
    assert len(calls) == len(expected) + len(EDGE_MODELS) + len(simulate) + \
        len(image_sims) + 1 == 600
