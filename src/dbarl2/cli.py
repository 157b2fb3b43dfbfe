"""Config-driven verification runner.

    dbarl2 <identities|conditions|domains|approx|solve|majorant>
           --config path [--out dir] [--seed N]

One JSON config per invocation.  Each command emits a JSON-lines report plus
a CSV summary (columns check_id,lhs,rhs,stderr,margin,pass); identical
configs reproduce byte-identical report files.  A record passes when
``verdict(margin, stderr, tol)`` of its own margin does (``CheckOutcome.judged``),
save the approx ladder, which passes when each of its steps does.  Exit codes:
0 all checks pass, 1 any check failed, 2 config error, 3 a check crashed
(traceback on stderr, no report).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dbarops, domains, forms, gaussmeasure, multiindex, reduction, solver, weights
from .gaussmeasure import STRICT, CheckOutcome, verdict
from .symfun import CylinderFn, ParseError, eval_expr, free_variables, parse


class ConfigError(ValueError):
    pass


def _spec_from(config) -> gaussmeasure.GaussianSpec:
    n = int(config.get("trunc_dim", 2))
    rule = config.get("a_rule", "default")
    if rule == "default":
        return gaussmeasure.GaussianSpec(trunc_dim=n)
    if isinstance(rule, list):
        vals = [float(v) for v in rule]
        if len(vals) < n:
            raise ConfigError("a_rule list shorter than trunc_dim")
        return gaussmeasure.GaussianSpec(trunc_dim=n, a_rule=lambda i: vals[i - 1])
    raise ConfigError(f"unknown a_rule {rule!r}")


def _quad_from(config, seed) -> gaussmeasure.Quadrature:
    q = config.get("quadrature", {"kind": "monte_carlo", "N": 50000})
    kind = q.get("kind", "monte_carlo")
    if kind == "monte_carlo":
        return gaussmeasure.Quadrature("monte_carlo", N=int(q.get("N", 50000)),
                                       seed=int(q.get("seed", seed)))
    if kind == "gauss_hermite":
        return gaussmeasure.Quadrature("gauss_hermite",
                                       nodes_per_axis=int(q.get("nodes_per_axis", 16)))
    raise ConfigError(f"unknown quadrature kind {kind!r}")


def _family_from(config) -> multiindex.WeightFamily:
    fam = config.get("family", {"kind": "constant", "value": 1.0})
    kind = fam.get("kind", "constant")
    if kind == "constant":
        return multiindex.constant_family(float(fam.get("value", 1.0)))
    if kind == "multiplicative":
        return multiindex.multiplicative_family(mu=_mu_from(fam.get("mu", "1.0")))
    if kind == "prior_work":
        spec = _spec_from(config)
        return multiindex.prior_work_family(spec.a)
    raise ConfigError(f"unknown family kind {kind!r}")


def _mu_from(text: str):
    """mu(j) from an expression in j, read with the symfun grammar (j stands for x(1))."""
    src = re.sub(r"\bj\b", "x(1)", text)
    try:
        e = parse(src)
    except ParseError as exc:
        raise ConfigError(f"bad mu {text!r} (read as {src!r}): {exc}") from None
    if not free_variables(e) <= {("x", 1)}:
        raise ConfigError(f"mu {text!r} may use no variable but j")

    def mu(j):
        v = complex(np.asarray(eval_expr(e, np.array([[float(j), 0.0]]))).reshape(-1)[0])
        if v.imag != 0.0:
            raise ConfigError(f"mu {text!r} is not real at j = {j}")
        return v.real

    return mu


def _domain_from(config) -> domains.Domain:
    d = config.get("domain", {"kind": "ball", "r": 1.0})
    kind = d.get("kind", "ball")
    if kind == "ball":
        center = [complex(c[0], c[1]) for c in d.get("center", [])]
        return domains.ball(center=center, r=float(d.get("r", 1.0)))
    if kind == "polydisc":
        return domains.polydisc()
    if kind == "whole_space":
        return domains.whole_space()
    raise ConfigError(f"unknown domain kind {kind!r}")


def _forms_from(config, family) -> list:
    out = []
    for lit in config.get("forms", []):
        degree = tuple(lit.get("degree", (0, 1)))
        out.append(forms.parse_form_literal(lit["entries"], degree, family,
                                            support_radius=lit.get("support_radius")))
    return out


def _one_form(fl: list, command: str):
    """The one form of a command that takes one; a config listing more is refused."""
    if len(fl) > 1:
        raise ConfigError(f"{command} takes one form, the config lists {len(fl)}")
    return fl[0]


def _tol(config, name, default):
    return float(config.get("tolerances", {}).get(name, default))


def _ms(t0: float) -> float:
    """Milliseconds since the perf_counter reading t0."""
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_identities(config, seed) -> list:
    """Identities with residual res: margin -res; lhs res and rhs 0 (Gauss-Green: its sides)."""
    spec = _spec_from(config)
    quad = _quad_from(config, seed)
    family = _family_from(config)
    tol = _tol(config, "deterministic", 1e-8)
    fl = _forms_from(config, family)
    test_fns = [fn for f in fl for fn in f.coeffs.values()]
    if not test_fns:
        return []
    varphi = CylinderFn(config.get("varphi", "0"))
    pts = gaussmeasure.sample(spec, 100, seed + 3)

    t0 = time.perf_counter()
    g0 = test_fns[0]
    wrong_a1 = config.get("perturb", {}).get("gauss_green_a1")
    rep = gaussmeasure.gauss_green_residual(
        g0, 1, spec, quad, None if wrong_a1 is None else float(wrong_a1))
    recs = [CheckOutcome.judged("gauss_green_x1", abs(rep.lhs), abs(rep.rhs), -rep.residual,
                                rep.stderr, tol, runtime_ms=_ms(t0))]

    g1 = test_fns[min(1, len(test_fns) - 1)]
    for weighted in (False, True):
        t0 = time.perf_counter()
        est = dbarops.ibp_residual(g0, g1, 1, spec, quad, weighted=weighted, varphi=varphi)
        res = abs(est.mean)
        recs.append(CheckOutcome.judged("ibp_sigma" if weighted else "ibp_delta", res, 0.0,
                                        -res, est.stderr, tol, runtime_ms=_ms(t0)))

    t0 = time.perf_counter()
    ctx = dbarops.OperatorContext(spec, family, CylinderFn(config.get("w1", "0")),
                                  CylinderFn(config.get("w2", "0")),
                                  CylinderFn(config.get("w3", "0")), varphi)
    res = dbarops.commutator_residual(g0, 1, 1, ctx, pts)
    recs.append(CheckOutcome.judged("commutator", res, 0.0, -res, 0.0, 1e-10,
                                    runtime_ms=_ms(t0)))

    t0 = time.perf_counter()
    res = dbarops.st_complex_residual(fl[0], pts)
    recs.append(CheckOutcome.judged("s_after_t_zero", res, 0.0, -res, 0.0, 1e-10,
                                    runtime_ms=_ms(t0)))

    if len(fl) >= 2:
        t0 = time.perf_counter()
        est = dbarops.adjoint_residual(fl[0], fl[1], ctx, quad)
        res = abs(est.mean)
        recs.append(CheckOutcome.judged("adjoint", res, 0.0, -res, est.stderr, tol,
                                        runtime_ms=_ms(t0)))
        if fl[0].degree[1] == 0:
            t0 = time.perf_counter()
            est = dbarops.weak_dbar_residual(fl[0], dbarops.dbar(fl[0]), g0, (), (1,), spec, quad)
            res = abs(est.mean)
            recs.append(CheckOutcome.judged("weak_dbar", res, 0.0, -res, est.stderr, tol,
                                            runtime_ms=_ms(t0)))

    t0 = time.perf_counter()
    res = dbarops.multiplier_residual(CylinderFn(config.get("multiplier", "x(1)")), fl[0], ctx, pts)
    recs.append(CheckOutcome.judged("multiplier", res, 0.0, -res, 0.0, 1e-10,
                                    runtime_ms=_ms(t0)))
    return recs


def cmd_conditions(config, seed) -> list:
    family = _family_from(config)
    s = int(config.get("s", 0))
    t = int(config.get("t", 0))
    max_index = int(config.get("max_index", 6))
    t0 = time.perf_counter()
    return multiindex.check_conditions(family, max_index, s, t).records(runtime_ms=_ms(t0))


def cmd_domains(config, seed) -> list:
    dom = _domain_from(config)
    n = int(config.get("trunc_dim", 2))
    N = int(config.get("scan_points", 50))
    t0 = time.perf_counter()
    pts = dom.sample_interior(n, N, seed)
    eig = float(np.min(domains.levi_min_eigs(dom.eta(n), pts, n)))
    recs = [CheckOutcome.judged("levi_min_eig", eig, -1e-9, eig + 1e-9, 0.0, 0.0,
                                runtime_ms=_ms(t0))]
    if dom.boundary_distance is not None:
        t0 = time.perf_counter()
        margin = domains.uniformly_included(dom, float(config.get("tau", 1.0)), n=n,
                                            seed=seed)
        recs.append(CheckOutcome.judged("sublevel_uniform_inclusion", margin, 0.0, margin,
                                        0.0, STRICT, runtime_ms=_ms(t0)))
    return recs


def cmd_approx(config, seed, out_dir: Path) -> list:
    """The one record whose pass is not the verdict of its own margin
    errs[0] - errs[-1]: it passes when each step of the ladder does, step i
    judged by verdict(errs[i] - errs[i+1], ses[i] + ses[i+1], 0)."""
    spec = _spec_from(config)
    family = _family_from(config)
    dom = _domain_from(config)
    fl = _forms_from(config, family)
    if not fl:
        return []
    t0 = time.perf_counter()
    report = reduction.approx_pipeline(
        _one_form(fl, "approx"), dom, rho=float(config.get("rho", 2.0)),
        n_ladder=[int(v) for v in config.get("n_ladder", [spec.trunc_dim])],
        delta_ladder=[float(v) for v in config.get("delta_ladder", [0.2, 0.1, 0.05])],
        spec=spec, quad=_quad_from(config, seed),
        grid_res=int(config.get("grid_res", 101)))
    ms = _ms(t0)
    report.write_csv(str(out_dir / "approx_ladder.csv"))
    errs = [row.norm_error for row in report.ladder]
    ses = [row.stderr for row in report.ladder]
    ok = all(verdict(errs[i] - errs[i + 1], ses[i] + ses[i + 1], 0.0)
             for i in range(len(errs) - 1))
    return [CheckOutcome("approx_ladder_monotone", errs[-1], errs[0], ses[-1],
                         errs[0] - errs[-1], ok, runtime_ms=ms)]


def cmd_solve(config, seed, out_dir: Path) -> list:
    spec = _spec_from(config)
    family = _family_from(config)
    dom = _domain_from(config)
    if config.get("weights", "recipe") == "quadratic":
        phi = CylinderFn(config.get("phi", "3*(x(1)^2+y(1)^2)"))
        tri = weights.weight_triple(phi, CylinderFn("0"))
        wdom = dom
    else:
        tri, wdom, _ = weights.recipe_weights_whole_space(spec)
    ctx = dbarops.OperatorContext(spec, family, tri.w1, tri.w2, tri.w3, tri.phi)
    fl = _forms_from(config, family)
    if not fl:
        manufactured = config.get("manufactured",
                                  {"coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.64)",
                                   "support_radius": 0.8})
        u0 = forms.Form((0, 0), {((), ()): CylinderFn(manufactured["coeff"],
                        support_radius=manufactured.get("support_radius"))}, family)
        target = dbarops.dbar(u0)
    else:
        target = _one_form(fl, "solve")
    t0 = time.perf_counter()
    prob = solver.SolveProblem(ctx=ctx, domain=wdom, f=target,
                               degree=int(config.get("degree", 8)),
                               n=int(config.get("solve_dim", 1)),
                               radius=float(config.get("basis_radius", 0.8)))
    u, rep = solver.solve_min_norm(prob)
    ms = _ms(t0)
    (out_dir / "solve_report.json").write_text(
        json.dumps(rep.as_dict(), sort_keys=True, allow_nan=False) + "\n")
    tol = _tol(config, "residual", 1e-3)
    return [CheckOutcome.judged("solve_residual", rep.residual, tol, tol - rep.residual, 0.0,
                                0.0, runtime_ms=ms),
            replace(rep.bound, runtime_ms=ms)]


def cmd_majorant(config, seed) -> list:
    t0 = time.perf_counter()
    kind = config.get("g0", "one")
    if kind == "one":
        g0 = lambda v: 1.0
    elif kind == "quadratic":
        g0 = lambda v: 1.0 + v * v
    elif kind == "staircase":
        g0 = lambda v: 1000.0 if v >= 5 else 1.0
    else:
        raise ConfigError(f"unknown g0 fixture {kind!r}")
    K_max = float(config.get("K_max", 10.0))
    maj = weights.convex_majorant(g0, K_max=K_max,
                                  trunc_order=int(config.get("trunc_order", 320)))
    worst = maj.chain_margin(g0, np.linspace(0.0, K_max, 2001))
    return [CheckOutcome.judged("majorant_chain", worst, -1e-9, worst + 1e-9, 0.0, 0.0,
                                runtime_ms=_ms(t0))]


COMMANDS = {"identities": cmd_identities, "conditions": cmd_conditions,
            "domains": cmd_domains, "approx": cmd_approx, "solve": cmd_solve,
            "majorant": cmd_majorant}


def write_reports(records, out_dir: Path, command: str):
    out_dir.mkdir(parents=True, exist_ok=True)
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
    parser = argparse.ArgumentParser(prog="dbarl2",
                                     description="verification runner")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out_dir = Path(args.out)
    try:
        fn = COMMANDS[args.command]
        if args.command in ("approx", "solve"):
            out_dir.mkdir(parents=True, exist_ok=True)
            records = fn(config, seed, out_dir)
        else:
            records = fn(config, seed)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, not a failed check
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    write_reports(records, out_dir, args.command)
    for rec in records:
        status = "pass" if rec.passed else "FAIL"
        print(f"{rec.check_id:32s} {status}  lhs={rec.lhs:.6g} rhs={rec.rhs:.6g} "
              f"margin={rec.margin:.3g} stderr={rec.stderr:.3g} "
              f"[{rec.runtime_ms:.0f} ms]")
    if not records:
        return 0
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
