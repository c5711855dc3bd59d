"""The summary arithmetic of ``tools/bench_pairs.py`` on canned result
lines; the benchmark itself is not run."""

import json
from pathlib import Path

import pytest

from conftest import load_module

ROOT = Path(__file__).resolve().parents[1]
tool = load_module(ROOT / "tools" / "bench_pairs.py")


def _line(calls_per_s: float, p90: float, correct: bool = True) -> str:
    """The last output line of one `perfbench/run.py` run."""
    return json.dumps({
        "correct": correct, "attempted": 45, "failed": 0,
        "metrics": {"calls_per_s": {"value": calls_per_s, "unit": "1/s"},
                    "call_ms_p90": {"value": p90, "unit": "ms"}}})


def _pairs(parent: list, change: list) -> list:
    return [{"pair": i, "first": "parent" if i % 2 == 0 else "change",
             "parent": tool.result_of("info line\n" + _line(*p)),
             "change": tool.result_of("info line\n" + _line(*c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_result_of_reads_the_last_line():
    out = tool.result_of('{"env": 1}\n' + _line(400.0, 3.5, False) + "\n")
    assert out == {"correct": False, "attempted": 45, "failed": 0,
                   "calls_per_s": 400.0, "call_ms_p90": 3.5}


def test_summary_medians_quartiles_and_wins():
    # parent p90 1..10 ms; the change 0.5 ms faster in 9 pairs, a tie in
    # one; calls_per_s 100 against 101..110, all won
    parent = [(100.0, float(v)) for v in range(1, 11)]
    change = [(101.0 + i, v - (0.0 if i == 4 else 0.5))
              for i, (_, v) in enumerate(parent)]
    summary = tool.summarize(_pairs(parent, change), tool.directions())
    p90 = summary["call_ms_p90"]
    # inclusive quartiles of 1..10: 3.25, 5.5, 7.75
    assert p90["parent_median"] == 5.5
    assert p90["parent_quartiles"] == [3.25, 7.75]
    assert p90["parent_iqr"] == 4.5
    assert p90["change_median"] == pytest.approx(5.25)
    assert p90["change_minus_parent_pct"] == pytest.approx(-100 / 22)
    assert (p90["change_better_pairs"], p90["pairs"]) == (9, 10)
    # 9 of 10 pairs won, but 0.25 ms is inside the parent's IQR
    assert not tool.claim_holds(p90, "lower")
    rate = summary["calls_per_s"]
    assert (rate["parent_median"], rate["change_median"]) == (100.0, 105.5)
    assert (rate["change_better_pairs"], rate["parent_iqr"]) == (10, 0.0)
    assert tool.claim_holds(rate, "higher")
    assert not tool.claim_holds(rate, "lower")
    assert set(summary) == {"calls_per_s", "call_ms_p90"}


def test_claim_rule_needs_nine_of_ten_pairs():
    entry = {"parent_median": 10.0, "change_median": 5.0, "parent_iqr": 1.0,
             "change_better_pairs": 9, "pairs": 10}
    assert tool.claim_holds(entry, "lower")
    assert not tool.claim_holds(dict(entry, change_better_pairs=8), "lower")
    assert not tool.claim_holds(dict(entry, change_better_pairs=17,
                                     pairs=20), "lower")
    assert not tool.claim_holds(dict(entry, parent_iqr=5.0), "lower")


def test_results_file_is_summarized_into_a_bench_file(tmp_path, capsys):
    pairs = _pairs([(100.0, 4.0)] * 3, [(90.0, 3.0)] * 3)
    results = tmp_path / "pairs.json"
    results.write_text(json.dumps(pairs))
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"what": "kept"}))
    assert tool.main(["--workload", "certify", "--results", str(results),
                      "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "call_ms_p90" in text and "claim holds" in text
    assert "calls_per_s" in text and "claim fails" in text
    doc = json.loads(out.read_text())
    assert doc["what"] == "kept" and doc["workloads"]["certify"] == pairs
    assert doc["summary"]["certify"]["call_ms_p90"]["change_better_pairs"] == 3
    # the pairs of a BENCH file are read back under the workload's name
    assert tool.main(["--workload", "certify", "--results", str(out)]) == 0


def test_no_regression_verdict_reads_the_bound():
    # lower is better; the bound is a share of the parent's median
    entry = {"parent_median": 10.0, "change_median": 12.4, "parent_iqr": 1.0,
             "every_change_run_better": False}
    assert tool.verdict(entry, "lower", 0.25) == "within bound"
    assert tool.verdict(dict(entry, change_median=12.6), "lower",
                        0.25) == "worse"
    assert tool.verdict(entry, "lower", 0.2) == "worse"
    # a parent spread wider than the bound cannot tell, unless every change
    # run beats every parent run
    wide = dict(entry, change_median=9.0, parent_iqr=2.6)
    assert tool.verdict(wide, "lower", 0.25) == "unresolved"
    assert tool.verdict(dict(wide, every_change_run_better=True), "lower",
                        0.25) == "within bound"
    # higher is better: 26% fewer calls is worse, 24% fewer is not
    rate = {"parent_median": 100.0, "change_median": 74.0, "parent_iqr": 0.0,
            "every_change_run_better": False}
    assert tool.verdict(rate, "higher", 0.25) == "worse"
    assert tool.verdict(dict(rate, change_median=76.0), "higher",
                        0.25) == "within bound"
    assert tool.verdict(dict(rate, change_median=130.0), "lower",
                        0.25) == "worse"


def test_every_run_better_compares_the_extremes():
    parent = [(100.0, float(v)) for v in (4, 5, 6)]
    summary = tool.summarize(_pairs(parent, [(101.0, 3.9)] * 3),
                             tool.directions())
    assert summary["call_ms_p90"]["every_change_run_better"]
    assert summary["calls_per_s"]["every_change_run_better"]
    # the change's worst run (4.5 ms) loses to the parent's best (4 ms)
    summary = tool.summarize(_pairs(parent, [(100.0, 1.0), (100.0, 1.0),
                                             (100.0, 4.5)]),
                             tool.directions())
    assert not summary["call_ms_p90"]["every_change_run_better"]
    assert not summary["calls_per_s"]["every_change_run_better"]


def test_verdicts_are_printed_and_stored(tmp_path, capsys):
    # p90 over 1..10 ms has an IQR of 4.5 ms, 82% of its median: the 0.5 ms
    # faster change is unresolved; 30% fewer calls per second is worse
    parent = [(100.0, float(v)) for v in range(1, 11)]
    change = [(70.0, v - 0.5) for _, v in parent]
    results = tmp_path / "pairs.json"
    results.write_text(json.dumps(_pairs(parent, change)))
    out = tmp_path / "BENCH_x.json"
    assert tool.main(["--workload", "mc-stream", "--results", str(results),
                      "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    p90 = next(line for line in lines if "call_ms_p90" in line)
    rate = next(line for line in lines if "calls_per_s" in line)
    assert p90.endswith("claim fails; unresolved")
    assert rate.endswith("claim fails; worse")
    summary = json.loads(out.read_text())["summary"]["mc-stream"]
    assert summary["call_ms_p90"]["verdict"] == "unresolved"
    assert summary["calls_per_s"]["verdict"] == "worse"
    # a traced run gets neither rule
    assert tool.main(["--workload", "mc-stream", "--results", str(results),
                      "--", "--trace", "1"]) == 0
    text = capsys.readouterr().out
    assert "claim" not in text and "worse" not in text
