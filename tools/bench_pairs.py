"""Alternating parent/change pairs of the benchmark, the claim rule and the
no-regression rule.

    python tools/bench_pairs.py --parent HEAD --workload certify --pairs 10 \\
        --seed 7919 --seconds 25 --out BENCH_name.json

The parent side runs the unchanged `perfbench/run.py` from a `git archive`
of --parent, extracted once into a temporary directory; the change side runs
it from the working tree this file sits in.  Pair i runs the parent first
when i is even and the change first when i is odd, one run at a time.
Extra arguments after `--` go to `run.py` unchanged (`-- --trace 1`).

For each metric of the workload it prints the medians and quartiles
(inclusive method) of both sides, the parent's interquartile range, the
change in percent and the pairs the change won (ties count for neither),
and, for end-to-end metrics, whether the claim rule holds (the change wins
at least 9 of every 10 pairs, and its median beats the parent's by more
than the parent's interquartile range) and the no-regression verdict
against the metric's `bound` in BENCHMARK.json (`verdict`):

- `worse`: the change's median is worse than the parent's by more than
  bound times the parent's median;
- `unresolved`: the parent's interquartile range exceeds bound times its
  median, and not every change run beats every parent run;
- `within bound` otherwise.

With --out the pairs and that summary go into the `workloads` and
`summary` blocks of a `BENCH_*.json`, under the workload's name
(`<workload>-trace` for a traced run, which gets neither rule); a file that
exists keeps its other keys and workloads.  --results summarizes the pairs
of an earlier --out file (or a JSON list of pairs) instead of running
anything.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = ("correct", "attempted", "failed")


def directions(root: Path = ROOT) -> dict[str, str]:
    """metric name -> "higher" or "lower", as BENCHMARK.json declares it."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench.get("per_layer", [])}


def end_to_end(root: Path = ROOT) -> dict[str, float]:
    """end-to-end metric name -> its relative bound, as BENCHMARK.json
    declares them."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def result_of(stdout: str) -> dict:
    """The flat result of one `run.py` run: its last output line's
    correct, attempted and failed, and each metric's value."""
    line = json.loads(stdout.strip().splitlines()[-1])
    out = {k: line[k] for k in RESULT_KEYS}
    out.update({k: m["value"] for k, m in line["metrics"].items()})
    return out


def run_once(root: Path, args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, check=True)
    return result_of(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of the pairs (each {"parent": result, "change": result}):
    both sides' medians and quartiles, the parent's IQR, the change in
    percent of the parent's median, the pairs the change won and whether
    every change run beats every parent run."""
    names = [k for k in pairs[0]["parent"] if k not in RESULT_KEYS]
    summary = {}
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        summary[name] = {
            "parent_median": pm, "parent_quartiles": [p1, p3],
            "parent_iqr": p3 - p1,
            "change_median": cm, "change_quartiles": [c1, c3],
            "change_minus_parent_pct":
                100.0 * (cm - pm) / pm if pm else float("nan"),
            "change_better_pairs": sum(sign * (c - p) > 0
                                       for p, c in zip(par, chg)),
            "every_change_run_better": min(sign * c for c in chg) >
                max(sign * p for p in par),
            "pairs": len(pairs)}
    return summary


def claim_holds(entry: dict, better: str) -> bool:
    """The claim rule on one metric's summary: at least 9 of every 10
    pairs won, and a median difference, in the better direction, above
    the parent's interquartile range."""
    gain = entry["change_median"] - entry["parent_median"]
    if better == "lower":
        gain = -gain
    return 10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and \
        gain > entry["parent_iqr"]


def verdict(entry: dict, better: str, bound: float) -> str:
    """The no-regression rule on one metric's summary with its relative
    bound: "worse", "unresolved" or "within bound"."""
    loss = entry["change_median"] - entry["parent_median"]
    if better == "higher":
        loss = -loss
    scale = bound * abs(entry["parent_median"])
    if loss > scale:
        return "worse"
    if entry["parent_iqr"] > scale and not entry["every_change_run_better"]:
        return "unresolved"
    return "within bound"


def report(name: str, summary: dict, better: dict[str, str],
           claimable: list[str]) -> str:
    lines = [f"{name}: {next(iter(summary.values()))['pairs']} pairs"]
    for metric, e in summary.items():
        rule = ""
        if metric in claimable:
            rule = "  claim holds" if claim_holds(e, better[metric]) \
                else "  claim fails"
            rule += f"; {e['verdict']}"
        lines.append(
            f"  {metric}: parent {e['parent_median']:.6g} "
            f"[{e['parent_quartiles'][0]:.6g}, "
            f"{e['parent_quartiles'][1]:.6g}] (IQR {e['parent_iqr']:.4g})"
            f" -> change {e['change_median']:.6g} "
            f"[{e['change_quartiles'][0]:.6g}, "
            f"{e['change_quartiles'][1]:.6g}] "
            f"({e['change_minus_parent_pct']:+.1f}%), won "
            f"{e['change_better_pairs']}/{e['pairs']}{rule}")
    return "\n".join(lines)


def run_pairs(parent: str, n: int, args: list[str]) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"parent": Path(tmp), "change": ROOT}
        pairs = []
        for i in range(n):
            first = "parent" if i % 2 == 0 else "change"
            second = "change" if first == "parent" else "parent"
            pair = {"pair": i, "first": first}
            for side in (first, second):
                pair[side] = run_once(sides[side], args)
            print(json.dumps(pair), flush=True)
            pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7919)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--results", type=Path)
    args = parser.parse_args(argv)

    traced = "--trace" in extra and extra[extra.index("--trace") + 1] == "1"
    name = args.workload + ("-trace" if traced else "")
    if args.results:
        data = json.loads(args.results.read_text())
        pairs = data if isinstance(data, list) else data["workloads"][name]
    else:
        pairs = run_pairs(args.parent, args.pairs, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra])
    better = directions()
    summary = summarize(pairs, better)
    bounds = {} if traced else end_to_end()
    for metric, bound in bounds.items():
        if metric in summary:
            summary[metric]["verdict"] = verdict(summary[metric],
                                                 better[metric], bound)
    print(report(name, summary, better, list(bounds)))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {})[name] = pairs
        doc.setdefault("summary", {})[name] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
