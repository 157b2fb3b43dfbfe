"""Config-driven verification runner.

    dbarl2 <identities|conditions|domains|approx|solve|majorant>
           --config path [--out dir] [--seed N]

``read_config`` checks one JSON config against ``KEYS`` (the README's table of
keys) before any check runs; ``cmd_<name>(c, seed, out_dir)`` yields its
records from the checked values c, each stamped by ``run_checks`` with its wall
time, to a JSON-lines report and a CSV summary (check_id,lhs,rhs,stderr,
margin,pass), byte-identical for identical configs.  A record passes when
``verdict(margin, stderr, tol)`` of its own margin does, save the approx
ladder, which passes when each step does; a refused one prints ``refused:
<reason>``.  Exit codes: 0 all checks pass, 1 any check failed or was
refused, 2 config error (a value ``KEYS`` refuses, a limit of the library, or
nothing to check), 3 a check crashed (traceback on stderr; the report holds
the records made before it and an ``error`` record naming the exception).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import dbarops, domains, forms, gaussmeasure, multiindex, reduction, solver, weights
from .gaussmeasure import STRICT, CheckOutcome, GaussianSpec, verdict
from .symfun import CylinderFn, ParseError, eval_expr, free_variables, parse


class ConfigError(ValueError):
    pass


def _mu_from(text: str):
    """mu(j) from an expression in j, read with the symfun grammar (j stands for x(1));
    each j is evaluated once, as a family asks for the same mu(j) for every J."""
    e = parse(re.sub(r"\bj\b", "x(1)", text))
    if not free_variables(e) <= {("x", 1)}:
        raise ConfigError(f"mu {text!r} may use no variable but j")

    @cache
    def mu(j):
        v = complex(np.asarray(eval_expr(e, np.array([[float(j), 0.0]]))).reshape(-1)[0])
        if v.imag != 0.0:
            raise ConfigError(f"mu {text!r} is not real at j = {j}")
        return v.real
    return mu


def _residual(check_id: str, res: float, stderr: float, tol: float) -> CheckOutcome:
    """An identity's record: lhs its residual res, rhs 0, margin -res."""
    return CheckOutcome.judged(check_id, res, 0.0, -res, stderr, tol)


MAX_INDEX_BUDGET = 20_000  # ratio and identity terms check_conditions may enumerate
GRID_BUDGET = 4_000_000  # mollifier grid points over the approx ladder
SAMPLE_BUDGET = 1_000_000  # coordinates of the Monte Carlo or scan points drawn
G0 = {"one": lambda v: 1.0, "quadratic": lambda v: 1.0 + v * v,
      "staircase": lambda v: 1000.0 if v >= 5 else 1.0}
_FAMILY = ("identities", "conditions", "approx", "solve")  # the commands that read a family


@dataclass(frozen=True)
class Rule:
    """A row of ``KEYS``: the commands (for a key of a kinded object, the kinds;
    none: all) that read the key, its type, its default (None: required; a
    function of the keys read before it), lo its least value or length (strict:
    excluded), hi its greatest length by command, choices its closed set; make
    turns it into what commands use, reaching at most trunc_dim; work is at
    most budget.  Rows <key>[] and <key>.<name> check list entries and keys."""

    by: tuple
    type: str
    default: object
    lo: Optional[float] = None
    strict: bool = False
    hi: Optional[dict] = None
    choices: tuple = ()
    make: Optional[Callable] = None
    reach: Optional[Callable] = None
    work: Optional[Callable] = None
    budget: int = 0


def _scales(v, c):
    """The a_rule: the default scales, or a_i = v[i - 1], refused past the list."""
    def a_rule(i):
        if i > len(v):
            raise ConfigError(f"a_rule lists {len(v)} scales; a_{len(v) + 1} is needed")
        return v[i - 1]
    return gaussmeasure.default_a if v == "default" else a_rule


_expr = partial(Rule, type="text", make=lambda v, c: CylinderFn(v), reach=lambda fn: fn.dim)
_draws = partial(Rule, type="int", lo=1, budget=SAMPLE_BUDGET,
                 work=lambda N, c: N * 2 * c["trunc_dim"])  # N points in R^(2 trunc_dim)
KEYS = {
    "": Rule((), "object", None),
    "seed": Rule((), "int", 0, lo=0),
    "trunc_dim": Rule(_FAMILY + ("domains",), "int", 2, lo=1),
    "a_rule": Rule(_FAMILY, "list", "default", choices=("default",), make=_scales),
    "a_rule[]": Rule((), "number", None, lo=0, strict=True),
    "family": Rule(_FAMILY, "object", {}, make=lambda f, c:
                   multiindex.prior_work_family(c["a_rule"]) if f["kind"] == "prior_work" else
                   multiindex.constant_family(f["value"]) if f["kind"] == "constant" else
                   multiindex.multiplicative_family(mu=f["mu"])),
    "family.kind": Rule((), "text", "constant",
                        choices=("constant", "multiplicative", "prior_work")),
    "family.value": Rule(("constant",), "number", 1.0),
    "family.mu": Rule(("multiplicative",), "text", "1.0", make=lambda v, c: _mu_from(v)),
    "quadrature": Rule(("identities", "approx"), "object", {},
                       make=lambda q, c: gaussmeasure.Quadrature(**q)),
    "quadrature.kind": Rule((), "text", "monte_carlo", choices=("monte_carlo", "gauss_hermite")),
    "quadrature.N": _draws(("monte_carlo",), default=50000),
    "quadrature.seed": Rule(("monte_carlo",), "int", lambda c: c["seed"], lo=0),
    "quadrature.nodes_per_axis": Rule(("gauss_hermite",), "int", 16, lo=1),
    "tolerances": Rule(("identities", "solve"), "object", {}),
    "tolerances.deterministic": Rule(("identities",), "number", 1e-8, lo=0),
    "tolerances.residual": Rule(("solve",), "number", 1e-3, lo=0),
    "forms": Rule(("identities", "approx", "solve"), "list", [], hi={"approx": 1, "solve": 1}),
    "forms[]": Rule((), "object", None, make=lambda f, c: forms.parse_form_literal(
        f["entries"], f["degree"], c["family"]), reach=lambda f: max(f.max_index(), f.max_dim())),
    "forms[].degree": Rule((), "pair", [0, 1]),
    "forms[].degree[]": Rule((), "int", None, lo=0),
    "forms[].entries": Rule((), "list", None),
    "forms[].entries[]": Rule((), "object", None),
    "forms[].entries[].I": Rule((), "list", []),
    "forms[].entries[].I[]": Rule((), "int", None, lo=1),
    "forms[].entries[].J": Rule((), "list", []),
    "forms[].entries[].J[]": Rule((), "int", None, lo=1),
    "forms[].entries[].coeff": Rule((), "text", None, make=lambda v, c: parse(v)),
    **{key: _expr(("identities",), default="0") for key in ("varphi", "w1", "w2", "w3")},
    "multiplier": _expr(("identities",), default="x(1)"),
    **{key: Rule(("conditions",), "int", 0, lo=0) for key in ("s", "t")},
    "max_index": Rule(("conditions",), "int", 6, lo=0, budget=MAX_INDEX_BUDGET, work=lambda m, c: (
        math.comb(m, c["s"]) * math.comb(m, c["t"]) * (m - c["t"]) * (m - c["t"] + 1) // 2)),
    "domain": Rule(("domains", "approx", "solve"), "object", {},
                   make=lambda d, c: getattr(domains, d.pop("kind"))(**d)),
    "domain.kind": Rule((), "text", "ball", choices=("ball", "polydisc", "whole_space")),
    "domain.r": Rule(("ball",), "number", 1.0, lo=0, strict=True),
    "domain.center": Rule(("ball",), "list", [], reach=len,
                          make=lambda v, c: [complex(*p) for p in v]),
    "domain.center[]": Rule((), "pair", None),
    "domain.center[][]": Rule((), "number", None),
    "scan_points": _draws(("domains",), default=50),
    "tau": Rule(("domains",), "number", 1.0),
    "rho": Rule(("approx",), "number", 2.0, lo=0, strict=True),
    "n_ladder": Rule(("approx",), "list", lambda c: [c["trunc_dim"]], lo=1, reach=max),
    "n_ladder[]": Rule((), "int", None, lo=1),
    "delta_ladder": Rule(("approx",), "list", [0.2, 0.1, 0.05], lo=1),
    "delta_ladder[]": Rule((), "number", None, lo=0, strict=True),
    "grid_res": Rule(("approx",), "int", 101, lo=2, budget=GRID_BUDGET, work=lambda g, c: len(
        c["forms"]) * len(c["delta_ladder"]) * sum(g ** (2 * n) for n in c["n_ladder"])),
    "manufactured": Rule(("solve",), "object", {}),
    "manufactured.coeff": _expr((), default="x(1)*bump((x(1)^2+y(1)^2)/0.64)"),
    "solve_dim": Rule(("solve",), "int", 1, lo=1, reach=lambda v: v),
    "weights": Rule(("solve",), "text", "recipe", choices=("recipe", "quadratic")),
    "phi": _expr(("solve",), default="3*(x(1)^2+y(1)^2)"),
    "basis_radius": Rule(("solve",), "number", 0.8, lo=0, strict=True),
    "degree": Rule(("solve",), "int", 8, lo=0),
    "g0": Rule(("majorant",), "text", "one", choices=tuple(G0), make=lambda v, c: G0[v]),
    "K_max": Rule(("majorant",), "number", 10.0, lo=0, strict=True),
    "trunc_order": Rule(("majorant",), "int", 320, lo=1),
}
_FITS = {"int": lambda v: type(v) is int, "text": lambda v: type(v) is str,
         "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
         "list": lambda v: type(v) is list, "pair": lambda v: type(v) is list and len(v) == 2,
         "object": lambda v: type(v) is dict}


def read_config(command: str, config, seed: Optional[int] = None) -> dict:
    """The config's values by key, checked against KEYS and made (seed: --seed, if given)."""
    if type(config) is not dict:
        raise ConfigError(f"a config is a JSON object, not {json.dumps(config)}")
    return _read(command, "", "", config if seed is None else dict(config, seed=seed), {})


def _read(command: str, key: str, path: str, v, c: dict):
    """v checked against KEYS[key] and made, path named; the top level fills c."""
    rule = KEYS[key]
    closed = rule.type == "text" and rule.choices
    if v not in rule.choices and (closed or not _FITS[rule.type](v)):
        want = f"one of {', '.join(rule.choices)}" if closed else f"of type {rule.type}"
        raise ConfigError(f"{path} must be {want}, not {json.dumps(v)}")
    v = float(v) if rule.type == "number" else v
    size = len(v) if type(v) is list else v
    if rule.lo is not None and not (size > rule.lo if rule.strict else size >= rule.lo):
        raise ConfigError(f"{path} must hold at least {rule.lo} entries" if type(v) is list else
                          f"{path} must be {'>' if rule.strict else '>='} {rule.lo}, not {v!r}")
    if rule.hi and len(v) > rule.hi.get(command, len(v)):
        raise ConfigError(f"{command} takes at most {rule.hi[command]} {path}, not {len(v)}")
    if type(v) is list:
        v = [_read(command, key + "[]", f"{path}[{i}]", x, c) for i, x in enumerate(v)]
    elif type(v) is dict:
        pre, at = (key + ".", path + ".") if key else ("", "")
        kind = v.get("kind", KEYS[pre + "kind"].default) if pre + "kind" in KEYS else None
        kids = {k[len(pre):]: k for k, r in KEYS.items() if k.startswith(pre)
                and k[len(pre):].isidentifier() and (not r.by or command in r.by or kind in r.by)}
        out = {} if key else c
        for name, k in kids.items():  # a kind first, so the keys kept are those of a known kind
            if name not in v and KEYS[k].default is None:
                raise ConfigError(f"{at}{name} is required")
            x = v.get(name, KEYS[k].default)
            out[name] = _read(command, k, at + name, x(c) if callable(x) else x, c)
        if v.keys() - kids:
            raise ConfigError(f"{at}{min(v.keys() - kids)} is not read by {kind or command}")
        v = out
    if rule.work and rule.work(v, c) > rule.budget:
        raise ConfigError(f"{path} {v} asks for {rule.work(v, c)} evaluations, over {rule.budget}")
    try:
        v = rule.make(v, c) if rule.make else v
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if rule.reach and rule.reach(v) > c["trunc_dim"]:
        raise ConfigError(f"{path} reaches coordinate {rule.reach(v)}, past trunc_dim "
                          f"{c['trunc_dim']}")
    return v


# Commands: each yields its records in order from the checked config c

def cmd_identities(c, seed, out_dir: Path):
    """Identities with residual res: margin -res; lhs res and rhs 0 (Gauss-Green: its sides)."""
    spec, quad, fl = GaussianSpec(c["trunc_dim"], c["a_rule"]), c["quadrature"], c["forms"]
    tol = c["tolerances"]["deterministic"]
    test_fns = [fn for f in fl for fn in f.coeffs.values()]
    if not test_fns:
        return
    pts = gaussmeasure.sample(spec, 100, seed + 3)

    g0 = test_fns[0]
    rep = gaussmeasure.gauss_green_residual(g0, 1, spec, quad)
    yield CheckOutcome.judged("gauss_green_x1", abs(rep.lhs), abs(rep.rhs), -rep.residual,
                              rep.stderr, tol)

    g1 = test_fns[min(1, len(test_fns) - 1)]
    for weighted in (False, True):
        est = dbarops.ibp_residual(g0, g1, 1, spec, quad, weighted=weighted, varphi=c["varphi"])
        yield _residual("ibp_sigma" if weighted else "ibp_delta", abs(est.mean), est.stderr, tol)

    ctx = dbarops.OperatorContext(spec, c["family"], c["w1"], c["w2"], c["w3"], c["varphi"])
    yield _residual("commutator", dbarops.commutator_residual(g0, 1, 1, ctx, pts), 0.0, 1e-10)
    yield _residual("s_after_t_zero", dbarops.st_complex_residual(fl[0], pts), 0.0, 1e-10)

    if len(fl) >= 2:
        est = dbarops.adjoint_residual(fl[0], fl[1], ctx, quad)
        yield _residual("adjoint", abs(est.mean), est.stderr, tol)
        if fl[0].degree[1] == 0:
            est = dbarops.weak_dbar_residual(fl[0], dbarops.dbar(fl[0]), g0, (), (1,), spec, quad)
            yield _residual("weak_dbar", abs(est.mean), est.stderr, tol)

    yield _residual("multiplier", dbarops.multiplier_residual(c["multiplier"], fl[0], ctx, pts),
                    0.0, 1e-10)


def cmd_conditions(c, seed, out_dir: Path):
    yield from multiindex.check_conditions(c["family"], c["max_index"], c["s"], c["t"]).records()


def cmd_domains(c, seed, out_dir: Path):
    """Inclusion is refused when {eta <= tau} is too thin to sample (the
    polydisc's {eta <= 1} is the origin alone)."""
    n, dom = c["trunc_dim"], c["domain"]
    pts = dom.sample_interior(n, c["scan_points"], seed)
    eig = float(np.min(domains.levi_min_eigs(dom.eta(n), pts, n)))
    yield CheckOutcome.judged("levi_min_eig", eig, -1e-9, eig + 1e-9, 0.0, 0.0)
    try:
        margin = domains.uniformly_included(dom, c["tau"], n=n, seed=seed)
    except domains.SublevelShortfallError as exc:
        yield CheckOutcome.refused("sublevel_uniform_inclusion", str(exc))
        return
    yield CheckOutcome.judged("sublevel_uniform_inclusion", margin, 0.0, margin, 0.0, STRICT)


def cmd_approx(c, seed, out_dir: Path):
    """The one record whose pass is not the verdict of its own margin
    errs[0] - errs[-1]: it passes when each step of the ladder does, step i
    judged by verdict(errs[i] - errs[i+1], ses[i] + ses[i+1], 0)."""
    if not c["forms"]:
        return
    report = reduction.approx_pipeline(
        c["forms"][0], c["domain"], rho=c["rho"], n_ladder=c["n_ladder"],
        delta_ladder=c["delta_ladder"], spec=GaussianSpec(c["trunc_dim"], c["a_rule"]),
        quad=c["quadrature"], grid_res=c["grid_res"])
    report.write_csv(str(out_dir / "approx_ladder.csv"))
    errs = [row.norm_error for row in report.ladder]
    ses = [row.stderr for row in report.ladder]
    ok = all(verdict(errs[i] - errs[i + 1], ses[i] + ses[i + 1], 0.0)
             for i in range(len(errs) - 1))
    yield CheckOutcome("approx_ladder_monotone", errs[-1], errs[0], ses[-1],
                       errs[0] - errs[-1], ok)


def cmd_solve(c, seed, out_dir: Path):
    spec = GaussianSpec(c["trunc_dim"], c["a_rule"])
    target = c["forms"][0] if c["forms"] else dbarops.dbar(
        forms.Form((0, 0), {((), ()): c["manufactured"]["coeff"]}, c["family"]))
    if c["weights"] == "quadratic":
        tri, wdom = weights.weight_triple(c["phi"], CylinderFn("0")), c["domain"]
    else:
        tri, wdom, _ = weights.recipe_weights_whole_space(spec)
    ctx = dbarops.OperatorContext(spec, c["family"], tri.w1, tri.w2, tri.w3, tri.phi)
    prob = solver.SolveProblem(ctx=ctx, domain=wdom, f=target, degree=c["degree"],
                               n=c["solve_dim"], radius=c["basis_radius"])
    _, rep = solver.solve_min_norm(prob)
    (out_dir / "solve_report.json").write_text(
        json.dumps(rep.as_dict(), sort_keys=True, allow_nan=False) + "\n")
    tol = c["tolerances"]["residual"]
    yield CheckOutcome.judged("solve_residual", rep.residual, tol, tol - rep.residual, 0.0, 0.0)
    yield rep.bound


def cmd_majorant(c, seed, out_dir: Path):
    maj = weights.convex_majorant(c["g0"], K_max=c["K_max"], trunc_order=c["trunc_order"])
    worst = maj.chain_margin(c["g0"], np.linspace(0.0, c["K_max"], 2001))
    yield CheckOutcome.judged("majorant_chain", worst, -1e-9, worst + 1e-9, 0.0, 0.0)


COMMANDS = {"identities": cmd_identities, "conditions": cmd_conditions,
            "domains": cmd_domains, "approx": cmd_approx, "solve": cmd_solve,
            "majorant": cmd_majorant}


def run_checks(records, out: list):
    """Append the records to out, each stamped with its wall time: the one
    place that reads the clock.  When a check raises, out keeps those before it."""
    t0 = time.perf_counter()
    for rec in records:
        t1 = time.perf_counter()
        out.append(replace(rec, runtime_ms=(t1 - t0) * 1e3))
        t0 = t1


def write_reports(records, out_dir: Path, command: str):
    jsonl = out_dir / f"{command}_report.jsonl"
    with open(jsonl, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.json_obj(), sort_keys=True, allow_nan=False) + "\n")
    summary = out_dir / f"{command}_summary.csv"
    with open(summary, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check_id", "lhs", "rhs", "stderr", "margin", "pass"])
        for rec in records:
            w.writerow(rec.row())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dbarl2", description="verification runner")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir, checks, records = Path(args.out), None, []
    try:
        c = read_config(args.command, config, args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        checks = COMMANDS[args.command](c, c["seed"], out_dir)
        run_checks(checks, records)
        if not records:
            raise ConfigError("nothing to check")
    except ValueError as exc:  # a ConfigError, or a limit of the library
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, not a failed check
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if checks is not None:  # the checks had started
            write_reports(records + [CheckOutcome.crashed(exc)], out_dir, args.command)
        return 3

    write_reports(records, out_dir, args.command)
    for rec in records:
        status = f"refused: {rec.reason}" if rec.passed is None else (
            f"{'pass' if rec.passed else 'FAIL'}  lhs={rec.lhs:.6g} rhs={rec.rhs:.6g} "
            f"margin={rec.margin:.3g} stderr={rec.stderr:.3g}")
        print(f"{rec.check_id:32s} {status} [{rec.runtime_ms:.0f} ms]")
    return 0 if all(r.passed for r in records) else 1  # a refusal verified nothing


if __name__ == "__main__":
    sys.exit(main())
