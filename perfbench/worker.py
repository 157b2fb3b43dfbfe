"""One closed-loop workload process: set-up, warm-up, then timed rounds.

Started by run.py with the BLAS thread count already fixed in the
environment.  ``--setup-only`` stops after the warm-up cases, so run.py can
measure set-up several times.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy as np

TRACE_ROUNDS = 3   # rounds recorded by --trace 1; the rest of the run is untraced

# A small expression tree over six variables, evaluated by the probe the way
# symfun evaluates its trees: Python recursion over numpy calls on a batch.
PROBE_TREE = ("add", ("mul", ("exp", ("neg", ("sq", 0))), ("sub", 1, ("sq", 2))),
              ("mul", ("sin", 3), ("add", 4, ("sq", 5))))
PROBE_OPS = {"add": np.add, "mul": np.multiply, "sub": np.subtract, "exp": np.exp,
             "neg": np.negative, "sq": np.square, "sin": np.sin}


def _probe_eval(tree, x):
    if isinstance(tree, int):
        return x[:, tree]
    return PROBE_OPS[tree[0]](*(_probe_eval(t, x) for t in tree[1:]))


class HostProbe:
    """A fixed computation of the benchmark's own, independent of dbarl2.

    It is timed after every case.  On a shared host every case kind and this
    probe slow down and speed up together by up to +-20 % over minutes, so
    run.py reports case times relative to the probe's median (README,
    "Host-speed probe").  It mixes what the workloads spend their time on:
    interpreted Python, small-batch numpy through recursion, one large
    memory-bound numpy expression and BLAS matrix products.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.batch = rng.standard_normal((64, 6))
        self.vector = rng.standard_normal(200_000)
        self.matrix = rng.standard_normal((200, 200))
        # Output buffers of the large operations are allocated once, so the
        # probe's timing does not depend on the state of the process heap.
        self.out_vec = (np.empty_like(self.vector), np.empty_like(self.vector))
        self.out_mat = np.empty_like(self.matrix)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        for _ in range(300):
            _probe_eval(PROBE_TREE, self.batch)
        a, b = self.out_vec
        np.negative(np.square(self.vector, out=a), out=a)
        np.multiply(np.exp(a, out=a), np.cos(self.vector, out=b), out=a)
        for _ in range(4):
            np.matmul(self.matrix, self.matrix, out=self.out_mat)
        return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import dbarl2
    import cases

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True       # the fixed weights are built under the tracer
    workload = cases.WORKLOADS[args.workload](args.seed, dbarl2)
    if tracer is not None:
        tracer.active = False
        tracer.reset()

    problems = []
    probe = HostProbe()
    for kind in workload.kinds:    # untimed warm-up, one case of each kind
        case = workload.next_case(kind)
        _, found = workload.check(case, workload.run(case))
        problems += found
        gc.collect()
        probe()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0

    workload.start_timed()
    times = {k: [] for k in workload.kinds}
    traced = {k: [] for k in workload.kinds}
    probe_ms = []
    attempted = failed = checks = rounds = 0
    timed_s = 0.0
    start = time.monotonic()
    while True:
        tracing = tracer is not None and rounds < TRACE_ROUNDS
        if tracing:
            tracer.round = rounds
        for kind in workload.round:
            case = workload.next_case(kind)
            attempted += 1
            if tracing:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = workload.run(case)
            except Exception as exc:  # a crash is a failed operation
                dt = time.perf_counter() - t0
                out, found = None, [f"{kind}: {type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
            finally:
                if tracing:
                    tracer.active = False
            (traced if tracing else times)[kind].append(dt * 1e3)
            timed_s += dt
            if out is not None:
                n, found = workload.check(case, out)
            if found:
                failed += 1
                if not case.expected_fault:
                    problems += found
            else:
                checks += n
            # dbarl2's expression evaluator leaves reference cycles that hold
            # its intermediate arrays until the cyclic collector runs; collect
            # them here, untimed, so that peak memory is one case's working set
            # and no case pays for the collection of an earlier one's garbage.
            out = None
            gc.collect()
            probe_ms.append(probe() * 1e3)
        rounds += 1
        if time.monotonic() - start >= args.seconds and (
                tracer is None or rounds >= TRACE_ROUNDS):
            break

    result = {
        "setup_s": setup_s, "rounds": rounds, "attempted": attempted,
        "failed": failed, "checks": checks, "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "times_ms": times, "traced_ms": traced, "probe_ms": probe_ms,
        "kinds": list(workload.kinds),
        "problems": problems[:20]}
    if tracer is not None:
        result["layers"] = tracer.metrics(TRACE_ROUNDS)
        result["edges"] = {f"{p}>{c}": n for (p, c), n in sorted(
            tracer.edges.items(), key=lambda kv: str(kv[0]))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
