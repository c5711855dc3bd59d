"""The benchmark's tracer patches package functions by (module, attribute);
every such name must still resolve, or a cleanup that deletes one would only
be noticed by the benchmark's own tests.  The tracer module is read from
``perfbench/``, not changed."""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    trace = _bench_trace()
    pairs = list(trace.TARGETS.values())
    for factories in trace.FACTORIES.values():
        pairs += factories
    missing = [(module, attr) for module, attr in pairs
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert pairs and not missing
