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
