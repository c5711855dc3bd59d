"""Guards on the benchmark, run without running it.  The perfbench modules
are read from ``perfbench/``, not changed.

The benchmark's tracer patches package functions by (module, attribute);
every such name must still resolve, or a cleanup that deletes one would only
be noticed by the benchmark's own tests.  And a whole `certify` round takes
no LP, so a change that brings LPs back fails here first."""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

from affinvar.cli import main
from affinvar.modelio import fixture_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    trace = _perfbench_module("bench_trace")
    pairs = list(trace.TARGETS.values())
    for factories in trace.FACTORIES.values():
        pairs += factories
    missing = [(module, attr) for module, attr in pairs
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert pairs and not missing


def test_certify_round_takes_no_lp(tmp_path, lp_calls):
    # the calls of one certify round at the held-out seed: every fixture op
    # and validate / canonicalize / decompose on each generated model
    cases = [(op, fixture_path(fx))
             for fx in ("cir", "triangle_channel", "hyperbola_wedge")
             for op in ("validate", "canonicalize", "decompose")]
    cases += [(op, fixture_path(fx)) for fx in ("parabola3", "cone3")
              for op in ("validate", "classify", "decompose")]
    for name, model, _ in _perfbench_module(
            "bench_models").generated_models(7919):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model))
        cases += [(op, path) for op in ("validate", "canonicalize", "decompose")]
    assert len(cases) == 45
    for op, path in cases:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([op, str(path)])
        assert code in (0, 1), (op, path)
    assert lp_calls == []
