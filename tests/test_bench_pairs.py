import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(side, pair, **values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"side": side, "pair": pair, "result": result}


def test_summary_gives_quartiles_wins_and_ties(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 1.0]
    records = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        records.append(_record("parent", pair, **{"solve.batch_s": p, "solve.quality_mean": p,
                                                  "solve.other": p}))
        records.append(_record("change", pair, **{"solve.batch_s": c, "solve.quality_mean": c,
                                                  "solve.other": c}))
    summary = bench_pairs.summarize(records, {"batch_s": "lower", "quality_mean": "higher"})
    assert set(summary) == {"solve.batch_s", "solve.quality_mean"}   # metrics the spec names
    lower = summary["solve.batch_s"]
    assert lower["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert lower["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.5, "runs": change}
    assert (lower["change_wins"], lower["ties"], lower["pairs"]) == (3, 1, 5)
    assert lower["median_change"] == round(2.0 / 3.0 - 1, 4)
    higher = summary["solve.quality_mean"]
    assert (higher["change_wins"], higher["ties"]) == (1, 1)   # higher is better
    assert bench_pairs.summary_lines(summary) == [
        "solve.batch_s: parent 3 [2, 4]  change 2 [1, 2.5]  wins 3/5  ties 1"
        "  median_change -0.3333",
        "solve.quality_mean: parent 3 [2, 4]  change 2 [1, 2.5]  wins 1/5  ties 1"
        "  median_change -0.3333",
    ]


def test_sides_alternate_which_runs_first(bench_pairs, monkeypatch, tmp_path, capsys):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append((checkout.name, seed))
        metrics = {"batch_s": {"value": 1.0, "unit": "s"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}, "host: test"

    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"end_to_end": [{"name": "batch_s", "better": "lower"}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    bench_pairs.main([str(parent), str(change), "--workload", "solve", "--pairs", "3",
                      "--seconds", "0", "--seed", "7", "-o", str(out)])
    assert order == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9)]
    written = json.loads(out.read_text())
    assert [(r["side"], r["pair"], r["seed"]) for r in written["runs"]] == [
        ("parent", 1, 7), ("change", 1, 7), ("change", 2, 8), ("parent", 2, 8),
        ("parent", 3, 9), ("change", 3, 9)]
    assert written["host"] == "test"
    assert written["summary"]["batch_s"]["ties"] == 3
    # the output ends with the summary it wrote, one line per metric
    assert capsys.readouterr().out.splitlines()[-1] == (
        "batch_s: parent 1 [1, 1]  change 1 [1, 1]  wins 0/3  ties 3  median_change +0.0000")
