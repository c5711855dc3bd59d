"""affinvar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  BLAS is pinned to one thread and every call is made from this one
process, closed loop: the next call starts when the previous one returns.

With `--trace 0` the run times rounds of calls for `--seconds` (whole rounds
only) and reports the end-to-end metrics, taking each call's latency as the
median of its repeats over the rounds, each timed at the reference machine
speed of `bench_clock`.  With `--trace 1` it alternates an
untraced and a traced unit (set-up plus one round) for `--seconds` and
reports the per-layer metrics of `bench_trace.PER_LAYER`, with the tracing
overhead as traced minus untraced time.  The untraced unit records only one
span per kernel call; the kernel throughput comes from those spans.  Either way every call's output is
checked; the last line of standard output is the JSON result, the line
before it records the environment and the correctness gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_clock   # imports nothing but `time`

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5     # set-ups per run; setup_s reports the median
IMPORT_SAMPLES = 5    # fresh interpreters timing the package import
# Seed kept out of every tuning run, for checking a claimed gain.
HELD_OUT_SEED = 7919

# Times the package import in a fresh interpreter, between two probes of
# bench_clock, which imports nothing but `time`.
IMPORT_PROBE = ("import time, bench_clock; p = bench_clock.probe(); "
                "t = time.perf_counter(); import affinvar, affinvar.cli; "
                "t = time.perf_counter() - t; p = (p + bench_clock.probe()) / 2; "
                "print(affinvar.__file__); print(repr(t)); print(repr(p))")

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric name -> unit, as BENCHMARK.json declares them
END_TO_END = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def import_seconds() -> tuple[list[float], list[float]]:
    """Times to import the package in fresh interpreters: as measured, and
    at the reference speed of the probes around the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    walls, adjusted = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        where, seconds, ref = proc.stdout.split()[-3:]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported affinvar from {where}")
        walls.append(float(seconds))
        adjusted.append(float(seconds) * bench_clock.REF_PROBE_S / float(ref))
    return walls, adjusted


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


def run_round(wl) -> tuple[list[float], list[float], list[float], int]:
    """One round of calls: each call's wall latency, its latency at the
    reference speed, the probe time around it, and how many calls failed
    (raised, or produced an output its check rejects)."""
    walls, adjusted, probes, failed = [], [], [], 0
    for _, run, check in wl.calls():
        result, error, wall, adj, ref = bench_clock.timed(run)
        walls.append(wall)
        adjusted.append(adj)
        probes.append(ref)
        if error is not None:
            failed += 1
            continue
        try:
            ok = check(result)
        except Exception:  # noqa: BLE001 - an unreadable output fails it
            ok = False
        failed += not ok
    return walls, adjusted, probes, failed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed: int, seconds: float, workdir: Path):
    import_wall, import_adj = import_seconds()
    wl = workload(seed, workdir)
    setup_wall, setup_adj = [], []
    for _ in range(SETUP_REPEATS):
        _, error, wall, adj, _ = bench_clock.timed(wl.setup)
        if error is not None:
            raise error
        setup_wall.append(wall)
        setup_adj.append(adj)
    wl.warmup()
    walls, rounds, probes, failed = [], [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wall, adj, ref, bad = run_round(wl)
        walls.append(wall)
        rounds.append(adj)
        probes += ref
        failed += bad
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [x for lat in walls for x in lat]
    # A round issues the same calls in the same order, so each call is
    # repeated once per round.  Its latency is the median of its repeats,
    # each timed at the reference speed (see bench_clock).
    per_call = [statistics.median(call) for call in zip(*rounds)]
    metrics = {
        "calls_per_s": len(per_call) / sum(per_call),
        "call_ms_p50": 1e3 * percentile(per_call, 50),
        "call_ms_p90": 1e3 * percentile(per_call, 90),
        "peak_mem_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(import_adj) +
        statistics.median(setup_adj),
    }
    if metrics.keys() != END_TO_END.keys():
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json "
                           f"declares {sorted(END_TO_END)}")
    # the same figures from wall time, for reference
    best = [min(call) for call in zip(*walls)]
    info = {"rounds": len(rounds), "samples": len(latencies),
            "probe_ms_p50": 1e3 * statistics.median(probes),
            "ref_probe_ms": 1e3 * bench_clock.REF_PROBE_S,
            "wall": {"calls_per_s_best": len(best) / sum(best),
                     "call_ms_p50_best": 1e3 * percentile(best, 50),
                     "call_ms_p90_best": 1e3 * percentile(best, 90),
                     "all_samples_ms_p50": 1e3 * percentile(latencies, 50),
                     "all_samples_ms_p90": 1e3 * percentile(latencies, 90),
                     "import_s": import_wall, "setup_repeats_s": setup_wall},
            "gates": wl.gate_info()}
    return {"correct": failed == 0, "attempted": len(latencies),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}, info


def measure_traced(workload, seed: int, seconds: float, workdir: Path,
                   trace_path: Path):
    import bench_trace

    warm = workload(seed, workdir)
    warm.setup()
    warm.warmup()
    units, overheads, tracers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        elapsed, pair = [], []
        # the first unit records only the kernel entry points: its kernel
        # spans give the untraced throughput and its time the overhead base
        for tracer in (bench_trace.Tracer(only=bench_trace.KERNELS),
                       bench_trace.Tracer()):
            wl = workload(seed, workdir)
            wl.tracer = tracer
            tracer.install()
            try:
                t0 = time.perf_counter()
                wl.setup()
                setup_s = time.perf_counter() - t0
                lat, _, _, bad = run_round(wl)
            finally:
                tracer.uninstall()
            elapsed.append(setup_s + sum(lat))
            attempted += len(lat)
            failed += bad
            pair.append(tracer)
        kernels, traced = pair
        tracers.append(traced)
        units.append({**bench_trace.summarize(traced),
                      **bench_trace.kernel_throughput(kernels)})
        overheads.append((elapsed[1] - elapsed[0], elapsed[0]))
    bench_trace.dump(tracers, trace_path)

    # counts must repeat exactly, and every LP must sit inside a call span
    repeat_ok = all(u[k] == units[0][k] for u in units
                    for k in bench_trace.EXACT)
    accounted = all(u["convex.lp_unaccounted"] == 0 for u in units)
    # median_low keeps counts whole: it picks one of the measured values
    values = {k: statistics.median_low(u[k] for u in units) for k in units[0]}
    values["trace.overhead_s"] = statistics.median_low(d for d, _ in overheads)
    values["trace.overhead_pct"] = statistics.median_low(
        100.0 * d / base for d, base in overheads)
    info = {"units": len(units), "trace_file": str(trace_path.relative_to(ROOT)),
            "counts_repeat": repeat_ok, "lps_accounted": accounted}
    return {"correct": failed == 0 and repeat_ok and accounted,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": unit}
                        for k, unit in bench_trace.PER_LAYER.items()}}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:   # before numpy loads, here and in import probes
        os.environ[var] = BLAS_THREADS
    if not (SRC / "affinvar" / "__init__.py").is_file():
        print(f"no affinvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affinvar
    import bench_workloads

    if not Path(affinvar.__file__).resolve().is_relative_to(SRC):
        print(f"affinvar imported from {affinvar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = bench_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            result, info = measure_traced(workload, args.seed, args.seconds,
                                          workdir, trace_path)
        else:
            result, info = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "env": environment(), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
