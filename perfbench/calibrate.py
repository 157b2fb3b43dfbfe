"""Measure how far the program's 8-node tail rule is from the 12-node reference.

    PYTHONPATH=src python3 perfbench/calibrate.py

Runs the reduce workload's tail4096 and tail64 inputs for seeds 0..CASES-1
and prints the largest deviation relative to sup |f| (the quantity that
cases.TAIL_TOL bounds), so the stated tolerance can be re-derived.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import oracles as orc  # noqa: E402

CASES = 300


def main() -> int:
    import dbarl2

    for kind in ("tail4096", "tail64"):
        n = 1 if kind == "tail4096" else 2
        devs = []
        for seed in range(CASES):
            w = cases.Reduce(seed, dbarl2)
            w.start_timed()
            case = w.next_case(kind)
            vals = w.run(case)["values"]
            f = case.inp["f"]
            head = w.pts[:w.REF_POINTS]
            mean, _ = orc.tail_moments(f, head, n, 3, w.REF_NODES)
            sup = float(np.max(np.abs(f(w.pts))))
            devs.append(float(np.max(np.abs(vals[:w.REF_POINTS] - mean))) / sup)
        q = np.quantile(devs, [0.5, 0.9, 0.99, 1.0])
        print(f"{kind}: cases={len(devs)} median={q[0]:.3e} p90={q[1]:.3e} "
              f"p99={q[2]:.3e} max={q[3]:.3e} (TAIL_TOL={cases.TAIL_TOL[kind]:.1e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
