"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py --runs 10

Run from the repository root.  Set A uses seeds 1..runs and set B seeds
101..100+runs; within a set the workloads take turns, so slow drift of the
host is shared between them.  For every workload and end-to-end metric it
prints each set's median, its quartile spread (Q3 - Q1 as a share of the
median, from statistics.quantiles(n=4)), and the set-to-set change of the
median, against the metric's bound in BENCHMARK.json; the spread of setup_s
is printed but not gated (SPREAD_EXEMPT).  The share of failed
operations must be identical in every run.  All results are written to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# setup_s is judged by its set-to-set shift only.  A run holds three set-ups
# of a few seconds each; more would not fit the time a run may take, and the
# probe scaling of the case medians does not apply to it (README, Steadiness).
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.load(open(os.path.join(HERE, os.pardir, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}
    for label, base in (("A", 1), ("B", 101)):
        for i in range(args.runs):
            for wl in workloads:
                res = run_once(wl, base + i, seconds)
                results.setdefault(wl, {}).setdefault(label, []).append(res)
                print(f"set {label} run {i + 1}/{args.runs} {wl}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    ok = True
    print(f"\n{'workload':10s} {'metric':16s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'B vs A':>8s} {'bound':>6s}")
    for wl in workloads:
        shares = {r["failed"] / r["attempted"] for s in "AB" for r in results[wl][s]}
        correct = all(r["correct"] for s in "AB" for r in results[wl][s])
        ok = ok and correct and len(shares) == 1
        for m in bench["end_to_end"]:
            med, spr = {}, {}
            for s in "AB":
                vals = [r["metrics"][m["name"]]["value"] for r in results[wl][s]]
                med[s], spr[s] = statistics.median(vals), spread(vals)
            change = (med["B"] - med["A"]) / med["A"]
            worse = change if m["better"] == "lower" else -change
            gated = m["name"] not in SPREAD_EXEMPT
            flag = ""
            if worse > m["bound"] or (gated and max(spr.values()) > m["bound"]):
                flag, ok = "  OUT OF BOUND", False
            elif max(spr.values()) > m["bound"]:
                flag = "  spread above bound (shift only is gated)"
            elif gated and max(spr.values()) > m["bound"] / 3:
                flag = "  spread above bound/3"
            print(f"{wl:10s} {m['name']:16s} {med['A']:12.4f} {spr['A']:9.4f} "
                  f"{med['B']:12.4f} {spr['B']:9.4f} {change:+8.4f} {m['bound']:6.2f}{flag}")
        print(f"{wl:10s} failed share {sorted(shares)} correct={correct}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"runs": args.runs, "seconds": seconds, "results": results}, fh)
    print(f"\nwritten to {os.path.relpath(path)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
