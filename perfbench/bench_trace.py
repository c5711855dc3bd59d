"""Span tracer that instruments the package from outside.

`Tracer.install()` replaces each function named in `TARGETS` at every module
binding across `affinvar.*` (modules import names directly, so patching the
defining module alone would miss calls) with a wrapper that records a span:
name, start, end, parent span and a few attributes.  The sigma factories and
`make_projector` in `FACTORIES` are patched the same way so that the
callables they return are timing-wrapped; the kernel receives those.
`uninstall()` puts the originals back.  No source file of the package
changes.

A tracer built with `only=KERNELS` records the kernel entry points and
nothing inside them: one span per kernel call, so its kernel times are those
of an untraced kernel.

Spans stay in memory; `summarize` turns them into per-layer metrics and
`dump` writes them out once the run is over.  The layer of a span is the
part of its name before the first dot; its self time is its duration minus
the durations of its direct children.  The metric names and units come from
`BENCHMARK.json`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# span name -> (defining module, attribute)
TARGETS = {
    "modelio.load_model": ("affinvar.modelio", "load_model"),
    "convex.linprog": ("affinvar.convex", "linprog"),
    "convex.interior_point": ("affinvar.convex", "interior_point"),
    "convex.minimalize": ("affinvar.convex", "minimalize"),
    "polyhedral.admissibility": ("affinvar.polyhedral",
                                 "check_polyhedral_admissibility"),
    "polyhedral.canonical_transform": ("affinvar.polyhedral",
                                       "canonical_transform"),
    "polyhedral.lift_drift": ("affinvar.polyhedral", "lift_drift"),
    "polyhedral.psd_decompose": ("affinvar.polyhedral", "psd_decompose"),
    "polyhedral.lbfgs": ("affinvar.polyhedral", "_minimize"),
    "quadratic.classify": ("affinvar.quadratic", "classify_quadric"),
    "quadratic.theta_decompose": ("affinvar.quadratic",
                                  "parabolic_theta_decompose"),
    "quadratic.conical_decompose": ("affinvar.quadratic",
                                    "conical_theta_decompose"),
    "core.psd_square_root": ("affinvar.core", "psd_square_root"),
    "simulate.simulate_paths": ("affinvar.simulate", "simulate_paths"),
    "simulate.simulate_summary": ("affinvar.simulate", "simulate_summary"),
    "simulate.mean_ode": ("affinvar.simulate", "mean_ode"),
}
# span name of the returned callable -> the factories that build it
FACTORIES = {
    "simulate.sigma": (("affinvar.polyhedral", "build_square_root"),
                       ("affinvar.quadratic", "parabolic_square_root"),
                       ("affinvar.quadratic", "cone_square_root"),
                       ("affinvar.simulate", "generic_square_root")),
    "simulate.projector": (("affinvar.simulate", "make_projector"),),
}
KERNELS = ("simulate.simulate_paths", "simulate.simulate_summary")
LAYERS = ("cli", "modelio", "convex", "polyhedral", "quadratic", "core",
          "simulate")
FIXTURES = ("cir", "triangle_channel", "parabola3", "cone3")


def _nbytes(obj) -> int:
    """Bytes held by the arrays of a kernel result (one level of fields)."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class Tracer:
    def __init__(self, only=None):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.only = None if only is None else frozenset(only)
        self.label = None          # fixture of the calls being made
        self.highs_calls = 0       # LP solves counted below the package

    def records(self, name: str) -> bool:
        return self.only is None or name in self.only

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        if not self.records(name):
            return fn
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = {"name": name, "parent": stack[-1] if stack else -1,
                    "label": self.label, "start": clock(), "end": None}
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if name == "convex.linprog":
                span["status"] = int(result.status)
            elif name in KERNELS:
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                span["path_steps"] = cfg.n_paths * cfg.steps
                span["stored_bytes"] = _nbytes(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}   # id of an original function -> (original, wrapper)
        for name, (modname, attr) in TARGETS.items():
            original = getattr(importlib.import_module(modname), attr)
            wrappers[id(original)] = (original, self.wrap(name, original))
        for name, factories in FACTORIES.items():
            for modname, attr in factories:
                original = getattr(importlib.import_module(modname), attr)
                wrappers[id(original)] = (original,
                                          self._wrap_factory(name, original))
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "affinvar" or n.startswith("affinvar."))]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value and wrapper is not value:
                    self._patch(mod, key, wrapper)
        if self.records("convex.linprog"):
            # count HiGHS solves below every package binding of linprog
            import scipy.optimize._linprog as lp_mod
            highs = lp_mod._linprog_highs

            def counted_highs(*args, **kwargs):
                self.highs_calls += 1
                return highs(*args, **kwargs)

            self._patch(lp_mod, "_linprog_highs", counted_highs)

    def _wrap_factory(self, name: str, factory):
        """`factory` with its returned callable timed as `name` spans."""
        if not self.records(name):
            return factory

        def wrapped_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        wrapped_factory.__wrapped__ = factory
        return wrapped_factory

    def _patch(self, mod, key, value) -> None:
        self._patched.append((mod, key, getattr(mod, key)))
        setattr(mod, key, value)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, value = self._patched.pop()
            setattr(mod, key, value)


def dump(tracers: list[Tracer], path) -> None:
    """Write the spans of every traced unit, times relative to its start."""
    units = []
    for tr in tracers:
        t0 = tr.spans[0]["start"] if tr.spans else 0.0
        units.append([dict(s, start=s["start"] - t0, end=s["end"] - t0)
                      for s in tr.spans])
    with open(path, "w") as fh:
        json.dump({"units": units}, fh)


# per-layer metric name -> unit, as BENCHMARK.json declares them; every
# traced run reports all of them
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)["per_layer"]}
# the counts that must repeat exactly from unit to unit and run to run
EXACT = ("convex.lp_calls", "convex.lp_nonoptimal", "convex.lp_unaccounted",
         "convex.interior_point_calls", "convex.minimalize_calls",
         "polyhedral.lbfgs_calls", "core.psd_square_root_calls",
         "trace.spans")
CALL_SPANS = ("cli.main", "bench.setup") + KERNELS


def summarize(tr: Tracer) -> dict:
    """Per-layer metrics of one traced unit (all but the kernel throughput
    and the overhead)."""
    spans = tr.spans
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        name = s["name"]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        layer = name.split(".")[0]
        if layer in self_s:
            self_s[layer] += dur[i] - child[i]

    def root(i):
        while spans[i]["parent"] >= 0:
            i = spans[i]["parent"]
        return spans[i]["name"]

    lps = [i for i, s in enumerate(spans) if s["name"] == "convex.linprog"]
    outside_calls = sum(1 for i in lps if root(i) not in CALL_SPANS)
    out = {
        "convex.lp_calls": len(lps),
        "convex.lp_s": total.get("convex.linprog", 0.0),
        "convex.lp_nonoptimal": sum(1 for i in lps if spans[i]["status"] != 0),
        "convex.lp_unaccounted": abs(tr.highs_calls - len(lps)) + outside_calls,
        "convex.interior_point_calls": count.get("convex.interior_point", 0),
        "convex.minimalize_calls": count.get("convex.minimalize", 0),
        "polyhedral.admissibility_s": total.get("polyhedral.admissibility", 0.0),
        "polyhedral.canonical_transform_s":
            total.get("polyhedral.canonical_transform", 0.0),
        "polyhedral.lift_drift_s": total.get("polyhedral.lift_drift", 0.0),
        "polyhedral.psd_decompose_s": total.get("polyhedral.psd_decompose", 0.0),
        "polyhedral.lbfgs_calls": count.get("polyhedral.lbfgs", 0),
        "polyhedral.lbfgs_s": total.get("polyhedral.lbfgs", 0.0),
        "quadratic.classify_s": total.get("quadratic.classify", 0.0),
        "quadratic.theta_decompose_s":
            total.get("quadratic.theta_decompose", 0.0) +
            total.get("quadratic.conical_decompose", 0.0),
        "core.psd_square_root_calls": count.get("core.psd_square_root", 0),
        "core.psd_square_root_s": total.get("core.psd_square_root", 0.0),
        "simulate.mean_ode_s": total.get("simulate.mean_ode", 0.0),
        "modelio.load_s": total.get("modelio.load_model", 0.0),
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": v for layer, v in self_s.items()})

    # kernel cost per path-step, split into sigma, projector and the rest;
    # only sigma and projector calls made by the kernel itself count
    kern = {fx: [0, 0.0, 0.0, 0.0] for fx in FIXTURES}
    stored = 0
    for i, s in enumerate(spans):
        acc = kern.get(s["label"])
        if s["name"] in KERNELS:
            stored = max(stored, s["stored_bytes"])
            if acc is not None:
                acc[0] += s["path_steps"]
                acc[1] += dur[i]
        elif acc is not None and s["parent"] >= 0 and \
                spans[s["parent"]]["name"] in KERNELS:
            if s["name"] == "simulate.sigma":
                acc[2] += dur[i]
            elif s["name"] == "simulate.projector":
                acc[3] += dur[i]
    out["simulate.stored_bytes"] = stored
    for fx, (n, k_s, sig_s, proj_s) in kern.items():
        per = 1e9 / n if n else 0.0
        out[f"simulate.sigma_ns_per_path_step.{fx}"] = sig_s * per
        out[f"simulate.projector_ns_per_path_step.{fx}"] = proj_s * per
        out[f"simulate.step_rest_ns_per_path_step.{fx}"] = \
            (k_s - sig_s - proj_s) * per
    return out


def kernel_throughput(tr: Tracer) -> dict:
    """Path-steps per second of kernel wall time, overall and per fixture,
    from the kernel spans of a tracer that records nothing inside them."""
    steps = dict.fromkeys(FIXTURES, 0)
    seconds = dict.fromkeys(FIXTURES, 0.0)
    for s in tr.spans:
        if s["name"] in KERNELS and s["label"] in steps:
            steps[s["label"]] += s["path_steps"]
            seconds[s["label"]] += s["end"] - s["start"]
    total_s = sum(seconds.values())
    out = {"simulate.path_steps_per_s":
           sum(steps.values()) / total_s if total_s else 0.0}
    out.update({f"simulate.path_steps_per_s.{fx}":
                steps[fx] / seconds[fx] if seconds[fx] else 0.0
                for fx in FIXTURES})
    return out
