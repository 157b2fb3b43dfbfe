"""dbarl2 benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload identities|reduce|solve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The workload runs in a child process with one BLAS thread; set-up
is measured in SETUP_SAMPLES processes in all and reported as a median.
``--trace 1`` reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is the JSON result; the lines before it are a
readable summary.  See perfbench/README.md.
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
WORKLOADS = ("identities", "reduce", "solve")
BLAS_THREADS = 1
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# Case medians and checks_per_s are scaled to a host on which the worker's
# host-speed probe takes PROBE_REF_MS (its median on the reference host in
# README.md): value = raw value x PROBE_REF_MS / probe median of the run.
PROBE_REF_MS = 15.0
# End-to-end metrics: name and unit.  kindN is the workload's N-th case kind
# (cases.Workload.kinds); each median covers one kind only.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("checks_per_s", "1/s"),
              ("kind1_p50_ms", "ms"), ("kind2_p50_ms", "ms"), ("kind3_p50_ms", "ms")]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, root, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dbarl2", "__init__.py")):
        print("perfbench: run from the root of a dbarl2 source checkout "
              "(src/dbarl2 not found)", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            run_worker(args, root, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    probe_p50 = statistics.median(res["probe_ms"])
    scale = PROBE_REF_MS / probe_p50
    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"rounds={res['rounds']} attempted={res['attempted']} failed={res['failed']} "
          f"probe_p50_ms={probe_p50:.3f} scale={scale:.4f}")
    for slot, kind in enumerate(res["kinds"], start=1):
        ms = res["times_ms"][kind]
        line = f"kind{slot}={kind} cases={len(ms)}"
        if ms:
            line += f" raw_p50_ms={statistics.median(ms):.3f}"
        if len(ms) >= 100:
            line += f" p90_ms={statistics.quantiles(ms, n=10)[-1]:.3f}"
        if res["traced_ms"][kind]:
            line += f" traced_p50_ms={statistics.median(res['traced_ms'][kind]):.3f}"
        print(line)
    for problem in res["problems"]:
        print(f"problem: {problem}")

    if args.trace:
        for edge, n in res["edges"].items():
            print(f"span {edge} {n}")
        metrics = res["layers"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "checks_per_s": res["checks"] / (res["timed_s"] * scale)}
        for slot, kind in enumerate(res["kinds"], start=1):
            values[f"kind{slot}_p50_ms"] = statistics.median(res["times_ms"][kind]) * scale
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
