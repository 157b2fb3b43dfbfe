"""bench/compare.py on a synthetic record: medians, quartiles, paired ratios,
pairs won by each metric's direction, and the unresolved flag."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BENCH = {"end_to_end": [{"name": "kind3_p50_ms", "better": "lower", "bound": 0.25},
                        {"name": "checks_per_s", "better": "higher", "bound": 0.25},
                        {"name": "setup_s", "better": "lower", "bound": 0.25}],
         "per_layer": [{"name": "reduction.mollify_ms", "better": "lower"}]}


def _run(pair, side, kind3, checks, setup, failed=0, workload="reduce", seed=101):
    metrics = {"kind3_p50_ms": kind3, "checks_per_s": checks, "setup_s": setup}
    return {"set": "main", "seed": seed, "workload": workload, "pair": pair, "side": side,
            "result": {"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}}


RECORD = {"runs": [
    _run(1, "parent", 30.0, 200.0, 0.30), _run(1, "change", 27.0, 210.0, 0.45),
    _run(2, "change", 26.0, 190.0, 0.31), _run(2, "parent", 28.0, 200.0, 0.40),
    _run(3, "parent", 29.0, 220.0, 0.50, failed=2), _run(3, "change", 29.0, 230.0, 0.35),
    _run(1, "parent", 5.0, 1.0, 1.0, workload="solve"),
    _run(1, "change", 6.0, 1.0, 1.0, workload="solve")]}


def _rows(record=RECORD, key=("main", 101, 0, "reduce")):
    pairs = compare.groups(record["runs"])[key]
    return {row["metric"]: row for row in compare.compare(pairs, compare.metric_table(BENCH))}


def test_sides_ratios_and_wins():
    rows = _rows()
    k3 = rows["kind3_p50_ms"]
    assert k3["pairs"] == 3
    assert k3["parent"] == [28.5, 29.0, 29.5] and k3["change"] == [26.5, 27.0, 28.0]
    assert k3["ratio"] == pytest.approx([26.0 / 28.0, 27.0 / 30.0, 1.0])
    assert k3["won"] == 2  # the tie of pair 3 counts for neither side
    assert rows["checks_per_s"]["won"] == 2  # higher is better
    assert not k3["unresolved"] and not rows["checks_per_s"]["unresolved"]


def test_a_parent_spread_past_the_bound_is_unresolved():
    setup = _rows()["setup_s"]
    assert setup["parent_spread"] == pytest.approx(0.2 / 0.4)
    assert setup["unresolved"]


def test_failed_share_and_workloads_apart():
    rows = _rows()
    assert rows["failed"]["parent"][2] == pytest.approx(0.01)  # 2 of 100, in pair 3
    assert rows["failed"]["won"] == 1
    solve = _rows(key=("main", 101, 0, "solve"))
    assert solve["kind3_p50_ms"]["won"] == 0 and solve["kind3_p50_ms"]["pairs"] == 1
    assert "reduction.mollify_ms" not in solve  # reported by neither side


def test_command_line_filters_and_prints(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(RECORD))
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(BENCH))
    assert compare.main([str(path), "--workload", "reduce", "--benchmark", str(bench)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "set main, seed 101, trace 0: reduce"
    k3 = next(line for line in out if line.split()[0] == "kind3_p50_ms")
    assert k3.split()[1:4] == ["29", "[28.5,", "29.5]"] and k3.endswith("2/3")
    assert next(line for line in out if "setup_s" in line).endswith("unresolved")
    assert not any(line.endswith(": solve") for line in out)
