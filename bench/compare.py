"""Compare the parent and change sides of a stored benchmark record.

    python3 bench/compare.py bench/BENCH_35.json [--set main] [--seed 101]
                             [--workload reduce] [--trace 0]

The record holds ``runs``, each with ``set``, ``seed``, ``workload``, ``pair``,
``side`` ("parent" or "change"), ``trace`` (0 when absent) and the ``result``
line of ``perfbench/run.py``.  Runs of one set, seed, trace and workload that
share a ``pair`` number are a pair.  For every such group and every metric the
comparer prints:

- each side's median and quartiles;
- the median and range of the paired change/parent ratios;
- the number of pairs the change won, by the metric's ``better`` direction in
  ``BENCHMARK.json`` (ties count for neither side);
- ``unresolved`` when the spread of the parent's own runs, (max - min) over
  their median, exceeds the metric's bound in ``BENCHMARK.json``.

``failed`` is each run's failed share of the cases attempted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def metric_table(bench: dict) -> dict:
    """Each metric's (better, bound), bound None for a per-layer metric."""
    table = {m["name"]: (m["better"], m.get("bound")) for m in bench.get("per_layer", [])}
    table.update({m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]})
    table["failed"] = ("lower", 0.0)
    return table


def _values(result: dict) -> dict:
    vals = {name: m["value"] for name, m in result["metrics"].items()}
    vals["failed"] = result["failed"] / max(result["attempted"], 1)
    return vals


def groups(runs: list) -> dict:
    """Pairs by (set, seed, trace, workload): {pair: {side: metric values}}."""
    out = {}
    for run in runs:
        key = (run["set"], run["seed"], run.get("trace", 0), run["workload"])
        out.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = _values(run["result"])
    return out


def compare(pairs: dict, table: dict) -> list:
    """One row per metric that both sides of at least one pair report."""
    rows = []
    names = [n for n in table if any(n in p.get("parent", {}) for p in pairs.values())]
    for name in names:
        better, bound = table[name]
        both = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                if name in p.get("parent", {}) and name in p.get("change", {})]
        if not both:
            continue
        par, chg = np.array(both, dtype=float).T
        sign = 1.0 if better == "lower" else -1.0
        won = int(np.sum(sign * (par - chg) > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = chg / par  # nan for a parent value of 0
        med = float(np.median(par))
        spread = float((par.max() - par.min()) / abs(med)) if med else 0.0
        rows.append({
            "metric": name, "pairs": len(both), "won": won,
            "parent": [float(q) for q in np.percentile(par, [25, 50, 75])],
            "change": [float(q) for q in np.percentile(chg, [25, 50, 75])],
            "ratio": [float(np.median(ratio)), float(np.min(ratio)), float(np.max(ratio))],
            "parent_spread": spread,
            "unresolved": bound is not None and spread > bound})
    return rows


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def report(record: dict, bench: dict, keep=lambda key: True) -> str:
    table = metric_table(bench)
    lines = []
    for key, pairs in sorted(groups(record["runs"]).items(), key=lambda kv: str(kv[0])):
        if not keep(key):
            continue
        lines.append(f"set {key[0]}, seed {key[1]}, trace {key[2]}: {key[3]}")
        lines.append(f"  {'metric':<34} {'parent median [q1, q3]':<28} "
                     f"{'change median [q1, q3]':<28} {'change/parent [min, max]':<26} won")
        for row in compare(pairs, table):
            p, c, r = row["parent"], row["change"], row["ratio"]
            lines.append(
                f"  {row['metric']:<34} "
                f"{f'{_fmt(p[1])} [{_fmt(p[0])}, {_fmt(p[2])}]':<28} "
                f"{f'{_fmt(c[1])} [{_fmt(c[0])}, {_fmt(c[2])}]':<28} "
                f"{f'{r[0]:.4f} [{r[1]:.4f}, {r[2]:.4f}]' if np.isfinite(r).all() else '-':<26} "
                f"{row['won']}/{row['pairs']}"
                + ("  unresolved" if row["unresolved"] else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("record")
    ap.add_argument("--set")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workload")
    ap.add_argument("--trace", type=int)
    ap.add_argument("--benchmark", default=str(BENCHMARK))
    a = ap.parse_args(argv)
    want = (a.set, a.seed, a.trace, a.workload)
    record = json.loads(Path(a.record).read_text())
    bench = json.loads(Path(a.benchmark).read_text())
    print(report(record, bench, lambda key: all(w is None or w == k for w, k in zip(want, key))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
