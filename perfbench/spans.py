"""Layer spans opened around calls into dbarl2's public functions.

The tracer patches the functions and methods listed in ``TARGETS`` in every
dbarl2 module namespace that holds them (``from .x import f`` copies a
reference, so each copy is replaced).  Everything runs in one thread, so the
open spans form a stack: a span's parent is the span below it, and its self
time is its duration minus the time covered by its child spans.  A call that
re-enters the layer already on top of the stack (``delta_op`` calling
``del_op``, ``CylinderFn.__call__`` calling ``eval_expr``) is part of that
span and opens none of its own.

Spans are recorded only while ``active`` is set, so the benchmark's own
checks, which also call the program, stay out of the figures.
"""

from __future__ import annotations

import hashlib
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

# (layer, module, attribute); "Class.method" patches a class attribute.
TARGETS = [
    ("symfun.eval", "symfun", "CylinderFn.__call__"),
    ("symfun.eval", "symfun", "eval_expr"),
    ("symfun.build", "symfun", "parse"),
    ("symfun.build", "symfun", "CylinderFn.__init__"),
    ("symfun.build", "symfun", "CylinderFn.d_dx"),
    ("symfun.build", "symfun", "CylinderFn.d_dy"),
    ("symfun.build", "symfun", "del_op"),
    ("symfun.build", "symfun", "delbar_op"),
    ("symfun.build", "symfun", "delta_op"),
    ("symfun.build", "symfun", "sigma_op"),
    ("dbarops.build", "dbarops", "dbar"),
    ("dbarops.build", "dbarops", "Tstar"),
    ("dbarops.residual", "dbarops", "adjoint_residual"),
    ("dbarops.residual", "dbarops", "ibp_residual"),
    ("dbarops.residual", "dbarops", "commutator_residual"),
    ("dbarops.residual", "dbarops", "st_complex_residual"),
    ("dbarops.residual", "dbarops", "multiplier_residual"),
    ("dbarops.residual", "dbarops", "weak_dbar_residual"),
    ("forms.weighted", "forms", "norm_sq"),
    ("forms.weighted", "forms", "inner"),
    ("forms.weighted", "forms", "inner_vals"),
    ("gaussmeasure.nodes", "gaussmeasure", "Quadrature.nodes_weights"),
    ("gaussmeasure.reduce", "gaussmeasure", "reduce_fn"),
    ("gaussmeasure.reduce", "gaussmeasure", "ReducedFn.__call__"),
    ("reduction.mollify", "reduction", "mollify"),
    ("reduction.grid_eval", "reduction", "GridFn.__call__"),
    ("reduction.approx", "reduction", "approx_pipeline"),
    ("solver.solve", "solver", "solve_min_norm"),
    ("solver.assembly", "solver", "scalar_dictionary"),
    ("solver.assembly", "solver", "_stack_rows"),
    ("solver.linalg", "solver", "_cg"),
    ("solver.oracle", "solver", "CauchyOracle.__call__"),
    ("solver.keyineq", "solver", "key_inequality_check"),
    ("weights.cond4", "weights", "check_cond4"),
    ("weights.recipe", "weights", "recipe_weights_whole_space"),
    ("domains.hessian", "domains", "complex_hessian"),
    ("multiindex.conditions", "multiindex", "check_conditions"),
]
LINALG = ("eigh", "eigvalsh", "svd", "qr", "solve", "lstsq", "cholesky", "norm")

# Metrics that report a span's whole duration, children included; every
# other "<layer>_ms" is the layer's self time.
TOTAL_TIME = {"solver.solve", "solver.assembly", "solver.linalg", "solver.oracle",
              "solver.keyineq", "gaussmeasure.reduce", "weights.recipe"}

PER_LAYER = [
    ("symfun.eval_ms", "ms"), ("symfun.eval_calls", "count"),
    ("symfun.eval_points", "count"), ("symfun.build_ms", "ms"),
    ("dbarops.build_ms", "ms"), ("dbarops.build_calls", "count"),
    ("dbarops.residual_ms", "ms"), ("forms.weighted_ms", "ms"),
    ("gaussmeasure.nodes_ms", "ms"), ("gaussmeasure.nodes_calls", "count"),
    ("gaussmeasure.nodes_distinct", "count"), ("gaussmeasure.reduce_ms", "ms"),
    ("gaussmeasure.reduce_points", "count"),
    ("gaussmeasure.reduce_inner_calls", "count"),
    ("reduction.mollify_ms", "ms"), ("reduction.mollify_calls", "count"),
    ("reduction.grid_eval_ms", "ms"), ("solver.solve_ms", "ms"),
    ("solver.solve_self_ms", "ms"), ("solver.linalg_ms", "ms"),
    ("solver.assembly_ms", "ms"), ("solver.cg_iters", "count"),
    ("solver.oracle_ms", "ms"), ("solver.oracle_points", "count"),
    ("solver.oracle_hit_ratio", "ratio"), ("solver.keyineq_ms", "ms"),
    ("weights.cond4_ms", "ms"), ("domains.hessian_ms", "ms"),
    ("multiindex.conditions_ms", "ms"), ("weights.recipe_ms", "ms"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []          # open spans: [layer, seconds covered by children]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()   # (parent layer, child layer) -> spans
        self.counts = Counter()
        self.round = 0           # traced round now running, set by the worker
        self.digests = set()     # (round, digest of a returned point set)

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, fn, on_enter=None, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            if on_enter is not None:
                on_enter(frame, parent, args)
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                tracer.total_s[layer] += dur
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                tracer.edges[(parent, layer)] += 1
                if stack:
                    stack[-1][1] += dur
            if on_exit is not None:
                on_exit(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval_enter(self, frame, parent, args):
        pts = args[1]
        n = int(np.shape(pts)[0]) if np.ndim(pts) > 1 else 1
        self.counts["symfun.eval_points"] += n
        if parent == "gaussmeasure.reduce":
            self.counts["gaussmeasure.reduce_inner_calls"] += 1
        if parent == "solver.oracle" and isinstance(args[0], self._cylinder):
            self.counts["solver.oracle_points"] += n
            radius = args[0].support_radius
            if radius is not None:
                rsq = np.sum(np.asarray(pts)[:, :2] ** 2, axis=1)
                self.counts["oracle_hits"] += int(np.count_nonzero(rsq <= radius * radius))

    def _nodes_exit(self, out):
        pts = out[0] if isinstance(out, tuple) else out
        self.digests.add((self.round, hashlib.blake2b(
            np.ascontiguousarray(pts).tobytes(), digest_size=16).digest()))

    def _reduce_enter(self, frame, parent, args):
        if len(args) == 2 and not np.isscalar(args[1]):
            self.counts["gaussmeasure.reduce_points"] += int(np.shape(args[1])[0])

    def _solve_exit(self, out):
        self.counts["solver.cg_iters"] += int(getattr(out[1], "cg_iters", 0))

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "dbarl2"):
        """Patch every target found; targets missing from the program are skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        sym = sys.modules[f"{package}.symfun"]
        self._cylinder = sym.CylinderFn
        hooks = {"symfun.eval": (self._eval_enter, None),
                 "gaussmeasure.nodes": (None, self._nodes_exit),
                 "gaussmeasure.reduce": (self._reduce_enter, None),
                 "solver.solve": (None, self._solve_exit)}
        for layer, modname, attr in TARGETS:
            mod = sys.modules.get(f"{package}.{modname}")
            if mod is None:
                continue
            enter, exit_ = hooks.get(layer, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                setattr(cls, meth, self._span(layer, orig, enter, exit_))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._span(layer, orig, enter, exit_)
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapped)
        solver = sys.modules.get(f"{package}.solver")
        if solver is not None and getattr(solver, "np", None) is np:
            solver.np = self._numpy_proxy()

    def _numpy_proxy(self):
        linalg = types.SimpleNamespace(**{
            name: self._span("solver.linalg", getattr(np.linalg, name))
            for name in LINALG if hasattr(np.linalg, name)})
        linalg_proxy = _Forward(np.linalg, linalg)
        return _Forward(np, types.SimpleNamespace(linalg=linalg_proxy))

    def reset(self, keep=("weights.recipe",)):
        """Forget everything recorded so far except the layers in ``keep``."""
        saved = {k: (self.total_s[k], self.self_s[k], self.calls[k]) for k in keep}
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.edges.clear()
        self.counts.clear()
        self.digests.clear()
        for k, (tot, own, n) in saved.items():
            self.total_s[k], self.self_s[k], self.calls[k] = tot, own, n

    # -- results ---------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, per traced round (weights.recipe: per set-up)."""
        per = 1.0 / max(rounds, 1)
        out = {}
        for name, unit in PER_LAYER:
            layer, _, stat = name.rpartition("_")
            if name == "solver.solve_self_ms":
                value = self.self_s["solver.solve"] * 1e3
            elif name == "solver.oracle_hit_ratio":
                pts = self.counts["solver.oracle_points"]
                value = self.counts["oracle_hits"] / pts if pts else 0.0
            elif name == "gaussmeasure.nodes_distinct":
                value = float(len(self.digests))
            elif stat == "ms":
                src = self.total_s if layer in TOTAL_TIME else self.self_s
                value = src[layer] * 1e3
            elif stat == "calls" and name not in self.counts:
                value = float(self.calls[layer])
            else:
                value = float(self.counts[name])
            if name not in ("solver.oracle_hit_ratio", "weights.recipe_ms"):
                value *= per
            out[name] = {"value": value, "unit": unit}
        return out


class _Forward:
    """Attribute access that prefers ``override`` and falls back to ``base``."""

    def __init__(self, base, override):
        self._base = base
        self._override = override

    def __getattr__(self, name):
        if hasattr(self._override, name):
            return getattr(self._override, name)
        return getattr(self._base, name)
