"""Config-driven verification runner.

    dbarl2 <identities|conditions|domains|approx|solve|majorant>
           --config path [--out dir] [--seed N]

One JSON config per invocation.  Each command ``cmd_<name>(config, seed,
out_dir)`` parses its config, then yields its records in order; ``run_checks``
stamps each with the wall time since the record before it (the first's time
includes parsing the config), which only the console shows.  The records go
to a JSON-lines report plus a CSV summary (columns
check_id,lhs,rhs,stderr,margin,pass); identical configs reproduce
byte-identical report files.  A record passes when ``verdict(margin, stderr,
tol)`` of its own margin does (``CheckOutcome.judged``), save the approx
ladder, which passes when each of its steps does.  A refused record prints
``refused: <reason>`` and does not pass.  Exit codes: 0 all checks pass, 1 any
check failed or was refused (among them a ``domains`` sub-level set
{eta <= tau} too thin to sample), 2 config error (among them a ``seed`` that
is not an integer, a ``trunc_dim`` or ``scan_points`` below 1, a
``basis_radius`` at or below 0, a form, expression, ``solve_dim``,
``n_ladder`` entry or ``domain.center`` that reaches past ``trunc_dim``, a
list ``a_rule`` shorter than the a_i a family reads, a ``support_radius``
anywhere, since a support ball is derived from its expression, and a command
left with nothing to check, such as ``identities`` without forms), 3 a check
crashed (traceback on stderr, no report).
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

        def a_rule(i):
            if i > len(vals):  # a family may read a_i past trunc_dim
                raise ConfigError(f"a_rule lists {len(vals)} scales; a_{len(vals) + 1} is needed")
            return vals[i - 1]

        return gaussmeasure.GaussianSpec(trunc_dim=n, a_rule=a_rule)
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


def _domain_from(config, n: int) -> domains.Domain:
    """The config's domain, its center refused when it reaches past coordinate n = trunc_dim."""
    d = config.get("domain", {"kind": "ball", "r": 1.0})
    kind = d.get("kind", "ball")
    if kind == "ball":
        center = [complex(c[0], c[1]) for c in d.get("center", [])]
        _within(n, len(center), "domain.center")
        return domains.ball(center=center, r=float(d.get("r", 1.0)))
    if kind == "polydisc":
        return domains.polydisc()
    if kind == "whole_space":
        return domains.whole_space()
    raise ConfigError(f"unknown domain kind {kind!r}")


def _forms_from(config, family, n: int) -> list:
    """The config's forms, each refused when it reaches past coordinate n = trunc_dim."""
    out = []
    for k, lit in enumerate(config.get("forms", [])):
        degree = tuple(lit.get("degree", (0, 1)))
        f = forms.parse_form_literal(lit["entries"], degree, family)
        _within(n, max(f.max_index(), f.max_dim()), f"forms[{k}]")
        out.append(f)
    return out


def _one_form(fl: list, command: str):
    """The one form of a command that takes one; a config listing more is refused."""
    if len(fl) > 1:
        raise ConfigError(f"{command} takes one form, the config lists {len(fl)}")
    return fl[0]


def _tol(config, name, default):
    return float(config.get("tolerances", {}).get(name, default))


def _within(n: int, reach: int, field: str) -> int:
    """reach, refused when it passes coordinate n = trunc_dim."""
    if reach > n:
        raise ConfigError(f"{field} reaches coordinate {reach}, past trunc_dim {n}")
    return reach


def _fn_from(n: int, field: str, text: str) -> CylinderFn:
    """A config expression, refused when it reaches past coordinate n = trunc_dim."""
    fn = CylinderFn(text)
    _within(n, fn.dim, field)
    return fn


def _residual(check_id: str, res: float, stderr: float, tol: float) -> CheckOutcome:
    """An identity's record: lhs its residual res, rhs 0, margin -res."""
    return CheckOutcome.judged(check_id, res, 0.0, -res, stderr, tol)


# ---------------------------------------------------------------------------
# Commands: each parses its config, then yields its records in order
# ---------------------------------------------------------------------------

def cmd_identities(config, seed, out_dir: Path):
    """Identities with residual res: margin -res; lhs res and rhs 0 (Gauss-Green: its sides)."""
    spec = _spec_from(config)
    quad = _quad_from(config, seed)
    family = _family_from(config)
    tol = _tol(config, "deterministic", 1e-8)
    fl = _forms_from(config, family, spec.trunc_dim)
    varphi, w1, w2, w3, multiplier = (
        _fn_from(spec.trunc_dim, key, config.get(key, default)) for key, default in
        (("varphi", "0"), ("w1", "0"), ("w2", "0"), ("w3", "0"), ("multiplier", "x(1)")))
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
        est = dbarops.ibp_residual(g0, g1, 1, spec, quad, weighted=weighted, varphi=varphi)
        yield _residual("ibp_sigma" if weighted else "ibp_delta", abs(est.mean), est.stderr, tol)

    ctx = dbarops.OperatorContext(spec, family, w1, w2, w3, varphi)
    yield _residual("commutator", dbarops.commutator_residual(g0, 1, 1, ctx, pts), 0.0, 1e-10)
    yield _residual("s_after_t_zero", dbarops.st_complex_residual(fl[0], pts), 0.0, 1e-10)

    if len(fl) >= 2:
        est = dbarops.adjoint_residual(fl[0], fl[1], ctx, quad)
        yield _residual("adjoint", abs(est.mean), est.stderr, tol)
        if fl[0].degree[1] == 0:
            est = dbarops.weak_dbar_residual(fl[0], dbarops.dbar(fl[0]), g0, (), (1,), spec, quad)
            yield _residual("weak_dbar", abs(est.mean), est.stderr, tol)

    yield _residual("multiplier", dbarops.multiplier_residual(multiplier, fl[0], ctx, pts),
                    0.0, 1e-10)


def cmd_conditions(config, seed, out_dir: Path):
    yield from multiindex.check_conditions(
        _family_from(config), int(config.get("max_index", 6)), int(config.get("s", 0)),
        int(config.get("t", 0))).records()


def cmd_domains(config, seed, out_dir: Path):
    """Inclusion is refused when {eta <= tau} is too thin to sample (the
    polydisc's {eta <= 1} is the origin alone)."""
    n = _spec_from(config).trunc_dim
    dom = _domain_from(config, n)
    scan_points = int(config.get("scan_points", 50))
    if scan_points < 1:
        raise ConfigError("scan_points must be >= 1")
    tau = float(config.get("tau", 1.0))
    pts = dom.sample_interior(n, scan_points, seed)
    eig = float(np.min(domains.levi_min_eigs(dom.eta(n), pts, n)))
    yield CheckOutcome.judged("levi_min_eig", eig, -1e-9, eig + 1e-9, 0.0, 0.0)
    try:
        margin = domains.uniformly_included(dom, tau, n=n, seed=seed)
    except domains.SublevelShortfallError as exc:
        yield CheckOutcome.refused("sublevel_uniform_inclusion", str(exc))
        return
    yield CheckOutcome.judged("sublevel_uniform_inclusion", margin, 0.0, margin, 0.0, STRICT)


def cmd_approx(config, seed, out_dir: Path):
    """The one record whose pass is not the verdict of its own margin
    errs[0] - errs[-1]: it passes when each step of the ladder does, step i
    judged by verdict(errs[i] - errs[i+1], ses[i] + ses[i+1], 0)."""
    spec = _spec_from(config)
    family = _family_from(config)
    dom = _domain_from(config, spec.trunc_dim)
    fl = _forms_from(config, family, spec.trunc_dim)
    n_ladder = [_within(spec.trunc_dim, int(v), "n_ladder")
                for v in config.get("n_ladder", [spec.trunc_dim])]
    if not fl:
        return
    report = reduction.approx_pipeline(
        _one_form(fl, "approx"), dom, rho=float(config.get("rho", 2.0)), n_ladder=n_ladder,
        delta_ladder=[float(v) for v in config.get("delta_ladder", [0.2, 0.1, 0.05])],
        spec=spec, quad=_quad_from(config, seed),
        grid_res=int(config.get("grid_res", 101)))
    report.write_csv(str(out_dir / "approx_ladder.csv"))
    errs = [row.norm_error for row in report.ladder]
    ses = [row.stderr for row in report.ladder]
    ok = all(verdict(errs[i] - errs[i + 1], ses[i] + ses[i + 1], 0.0)
             for i in range(len(errs) - 1))
    yield CheckOutcome("approx_ladder_monotone", errs[-1], errs[0], ses[-1],
                       errs[0] - errs[-1], ok)


def cmd_solve(config, seed, out_dir: Path):
    spec = _spec_from(config)
    n = spec.trunc_dim
    family = _family_from(config)
    dom = _domain_from(config, n)
    fl = _forms_from(config, family, n)
    if not fl:
        m = config.get("manufactured", {"coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.64)"})
        u0 = _fn_from(n, "manufactured.coeff", m["coeff"])
        target = dbarops.dbar(forms.Form((0, 0), {((), ()): u0}, family))
    else:
        target = _one_form(fl, "solve")
    solve_dim = _within(n, int(config.get("solve_dim", 1)), "solve_dim")
    if config.get("weights", "recipe") == "quadratic":
        phi = _fn_from(n, "phi", config.get("phi", "3*(x(1)^2+y(1)^2)"))
        tri = weights.weight_triple(phi, CylinderFn("0"))
        wdom = dom
    else:
        tri, wdom, _ = weights.recipe_weights_whole_space(spec)
    ctx = dbarops.OperatorContext(spec, family, tri.w1, tri.w2, tri.w3, tri.phi)
    radius = float(config.get("basis_radius", 0.8))
    if not radius > 0:
        raise ConfigError(f"basis_radius must be > 0, not {radius!r}")
    prob = solver.SolveProblem(ctx=ctx, domain=wdom, f=target,
                               degree=int(config.get("degree", 8)), n=solve_dim, radius=radius)
    _, rep = solver.solve_min_norm(prob)
    (out_dir / "solve_report.json").write_text(
        json.dumps(rep.as_dict(), sort_keys=True, allow_nan=False) + "\n")
    tol = _tol(config, "residual", 1e-3)
    yield CheckOutcome.judged("solve_residual", rep.residual, tol, tol - rep.residual, 0.0, 0.0)
    yield rep.bound


def cmd_majorant(config, seed, out_dir: Path):
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
    yield CheckOutcome.judged("majorant_chain", worst, -1e-9, worst + 1e-9, 0.0, 0.0)


COMMANDS = {"identities": cmd_identities, "conditions": cmd_conditions,
            "domains": cmd_domains, "approx": cmd_approx, "solve": cmd_solve,
            "majorant": cmd_majorant}


def _object(pairs) -> dict:
    """A config object; a ``support_radius`` is refused wherever it is set."""
    if any(k == "support_radius" for k, _ in pairs):
        raise ConfigError("support_radius is not read: a support ball is derived from "
                          "its expression")
    return dict(pairs)


def run_checks(records) -> list:
    """The records in order, each stamped with the wall time since the one
    before it; the first's time counts from the start, so it includes the
    command's parsing of its config.  The one place that reads the clock."""
    out, t0 = [], time.perf_counter()
    for rec in records:
        t1 = time.perf_counter()
        out.append(replace(rec, runtime_ms=(t1 - t0) * 1e3))
        t0 = t1
    return out


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
    parser = argparse.ArgumentParser(prog="dbarl2",
                                     description="verification runner")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(), object_pairs_hook=_object)
    except (OSError, ValueError) as exc:  # JSONDecodeError and ConfigError are ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        out_dir.mkdir(parents=True, exist_ok=True)
        records = run_checks(COMMANDS[args.command](config, seed, out_dir))
        if not records:
            raise ConfigError("nothing to check")
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, not a failed check
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
