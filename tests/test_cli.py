import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dbarl2 import domains, gaussmeasure, multiindex, solver, weights
from dbarl2.cli import (COMMANDS, HESSIAN_BUDGET, SAMPLE_BUDGET, ConfigError, cmd_conditions,
                        cmd_domains, cmd_majorant, cmd_solve, main, read_config)
from dbarl2.forms import Form, parse_form_literal
from dbarl2.gaussmeasure import CheckOutcome, GaussianSpec, Quadrature
from dbarl2.multiindex import ConditionReport, constant_family

ROOT = Path(__file__).resolve().parent.parent


BASE_IDENTITIES = {
    "seed": 7,
    "trunc_dim": 2,
    "quadrature": {"kind": "monte_carlo", "N": 20000},
    "family": {"kind": "constant", "value": 1.0},
    "varphi": "x(1)^2",
    "w1": "x(1)^2", "w2": "x(1)^2", "w3": "x(1)^2",
    "multiplier": "x(1)",
    "forms": [
        {"degree": [0, 0],
         "entries": [{"I": [], "J": [],
                      "coeff": "x(1)*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2)/0.64)"}]},
        {"degree": [0, 1],
         "entries": [{"I": [], "J": [1],
                      "coeff": "y(2)*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2)/0.64)"}]},
    ],
}


# a 0-form on C, then a form on index 2 and a coefficient in x(2), each past trunc_dim 1
ZERO_FORM = {"degree": [0, 0], "entries": [
    {"I": [], "J": [], "coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.64)"}]}
PAST_FORM = {"degree": [0, 1], "entries": [
    {"I": [], "J": [2], "coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.64)"}]}
PAST_COEFF = {"degree": [0, 1], "entries": [
    {"I": [], "J": [1], "coeff": "x(2)*bump((x(1)^2+y(1)^2)/0.64)"}]}


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """One JSON value read as RFC 8259 JSON: a NaN or Infinity token is refused."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def strict_records(path):
    """The records of a JSON-lines report, read strictly, keyed by check id."""
    return {r["check_id"]: r for r in map(strict_json, path.read_text().splitlines())}


# a solve whose residual, about 2e-15, must be exactly 0: the check really fails
FAILING_SOLVE = dict(json.loads((ROOT / "configs" / "solve.json").read_text()),
                     tolerances={"residual": 0.0})


def wrong_scale_gauss_green(a1):
    """A planted defect: gauss_green_residual with its right side divided by
    a1^2 instead of the measure's a_1^2."""
    def residual(f, m, spec, quad):
        pts, w = quad.nodes_weights(spec)
        la = f.d_dx(m)(pts)
        rb = (pts[:, 2 * (m - 1)] / a1 ** 2) * f(pts)
        est = gaussmeasure.estimate(la - rb, w, quad)
        return gaussmeasure.GaussGreenReport(lhs=complex(np.sum(w * la)),
                                             rhs=complex(np.sum(w * rb)),
                                             residual=abs(est.mean), stderr=est.stderr)

    return residual


def shipped(command, **changes):
    """The shipped config of a command, with some keys replaced."""
    return dict(json.loads((ROOT / "configs" / f"{command}.json").read_text()), **changes)


class TestExitCodes:
    @pytest.mark.parametrize("kind", ["ball", "polydisc", "whole_space"])
    @pytest.mark.parametrize("command", ["approx", "solve", "domains"])
    def test_domain_kinds_run_fail_or_refuse(self, tmp_path, capsys, command, kind):
        # a shipped config on every domain kind: a pass, a failed check or a refusal, no crash
        cfg = write_config(tmp_path, shipped(command, domain={"kind": kind}))
        code = run([command, "--config", cfg, "--out", tmp_path / "r"])
        assert code in (0, 1, 2), capsys.readouterr().err

    def test_approx_on_the_unit_ball_matches_whole_space(self, tmp_path):
        # the cut-off is 1 on the difference's support ball in both domains
        ladders = []
        for k, domain in enumerate([{"kind": "whole_space"}, {}, {"kind": "ball", "r": 1.0}]):
            cfg = write_config(tmp_path, shipped("approx", domain=domain), f"c{k}.json")
            assert run(["approx", "--config", cfg, "--out", tmp_path / f"r{k}"]) == 0
            ladders.append((tmp_path / f"r{k}" / "approx_ladder.csv").read_bytes())
        assert ladders[1] == ladders[0] and ladders[2] == ladders[0]

    def test_approx_refuses_a_support_ball_past_the_domain(self, tmp_path, capsys):
        # R + delta = 1.1 > 1: the cut-off of the unit ball is undefined on some points
        wide = {"degree": [0, 1], "entries": [
            {"I": [], "J": [1], "coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.81)"}]}
        cfg = write_config(tmp_path, shipped("approx", domain={"kind": "ball"}, forms=[wide]))
        assert run(["approx", "--config", cfg, "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert "leaves the ball domain" in err and "radius 1.12608" in err

    def test_identities_pass(self, tmp_path):
        cfg = write_config(tmp_path, BASE_IDENTITIES)
        assert run(["identities", "--config", cfg, "--out", tmp_path / "r"]) == 0

    def test_conditions_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"family": {"kind": "constant", "value": 1.0},
                                      "max_index": 5, "s": 0, "t": 0})
        assert run(["conditions", "--config", cfg, "--out", tmp_path / "r"]) == 0

    def test_failing_check_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, FAILING_SOLVE)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "r"]) == 1

    def test_config_error_exits_two(self, tmp_path):
        cfg = tmp_path / "nope.json"
        assert run(["identities", "--config", cfg, "--out", tmp_path / "r"]) == 2
        cfg2 = write_config(tmp_path, {"quadrature": {"kind": "bogus"},
                                       "forms": BASE_IDENTITIES["forms"]})
        assert run(["identities", "--config", cfg2, "--out", tmp_path / "r"]) == 2

    def test_mu_outside_the_grammar_exits_two(self, tmp_path):
        for mu in ("().__class__", "x(2)", "j**2", "i*j"):
            cfg = write_config(tmp_path, {"family": {"kind": "multiplicative", "mu": mu},
                                          "max_index": 6, "s": 0, "t": 0})
            assert run(["conditions", "--config", cfg, "--out", tmp_path / "r"]) == 2

    @pytest.mark.parametrize("command", ["identities", "conditions"])
    def test_nonpositive_family_exits_two(self, tmp_path, capsys, command):
        # c[(),(1,)] = mu(1) = -1: a config error, whatever the family kind
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        config["family"] = {"kind": "multiplicative", "mu": "-1"}
        cfg = write_config(tmp_path, config)
        assert run([command, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err.startswith("config error: c[")

    def test_crash_exits_three(self, tmp_path, capsys):
        # log of a nonpositive real raises EvalError: a crash, not a failed check
        crash = dict(BASE_IDENTITIES, forms=[{"degree": [0, 0], "entries": [
            {"I": [], "J": [], "coeff": "log(x(1))"}]}])
        cfg = write_config(tmp_path, crash)
        out = tmp_path / "r"
        assert run(["identities", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("\nerror: EvalError: log of nonpositive real\n")
        # the first check raised: the report is its error record alone
        assert (out / "identities_report.jsonl").read_text() == json.dumps(
            {"check_id": "error", "lhs": None, "margin": None, "pass": False,
             "reason": "EvalError: log of nonpositive real", "rhs": None, "stderr": None},
            sort_keys=True) + "\n"
        assert (out / "identities_summary.csv").read_text().splitlines() == [
            "check_id,lhs,rhs,stderr,margin,pass", "error,nan,nan,nan,nan,false"]

    def test_crash_keeps_the_records_before_it(self, tmp_path, capsys):
        # the second form's log(x(1)) raises in ibp_delta, after gauss_green_x1 on the first
        crash = dict(BASE_IDENTITIES, forms=[BASE_IDENTITIES["forms"][0], {
            "degree": [0, 1], "entries": [{"I": [], "J": [1], "coeff": "log(x(1))"}]}])
        assert run(["identities", "--config", write_config(tmp_path, crash),
                    "--out", tmp_path / "crash"]) == 3
        assert capsys.readouterr().out == ""
        assert run(["identities", "--config", write_config(tmp_path, BASE_IDENTITIES, "base.json"),
                    "--out", tmp_path / "base"]) == 0
        got = (tmp_path / "crash" / "identities_report.jsonl").read_text().splitlines()
        base = (tmp_path / "base" / "identities_report.jsonl").read_text().splitlines()
        assert got[0] == base[0] and json.loads(base[0])["check_id"] == "gauss_green_x1"
        assert json.loads(got[1]) == {
            "check_id": "error", "lhs": None, "margin": None, "pass": False,
            "reason": "EvalError: log of nonpositive real", "rhs": None, "stderr": None}
        assert len(got) == 2

    @pytest.mark.parametrize("command", ["solve", "approx"])
    def test_more_than_one_form_exits_two(self, tmp_path, capsys, command):
        # a command that takes one form refuses a list rather than drop its tail
        lit = {"degree": [0, 1],
               "entries": [{"I": [], "J": [1], "coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.16)"}]}
        cfg = write_config(tmp_path, {"trunc_dim": 1, "domain": {"kind": "whole_space"},
                                      "forms": [lit, lit, lit],
                                      **({"weights": "quadratic"} if command == "solve" else {})})
        assert run([command, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err == \
            f"config error: {command} takes at most 1 forms, not 3\n"

    def test_tail_rule_over_budget_exits_two(self, tmp_path, capsys):
        # equal scales keep 8 nodes on each of the 6 tail axes of 4 -> 1
        ball = "+".join(f"x({i})^2+y({i})^2" for i in range(1, 5))
        cfg = write_config(tmp_path, {
            "trunc_dim": 4, "a_rule": [0.25] * 4,
            "quadrature": {"kind": "monte_carlo", "N": 1000}, "n_ladder": [1],
            "forms": [{"degree": [0, 1],
                       "entries": [{"I": [], "J": [1], "coeff": f"x(1)*bump(({ball})/0.64)"}]}]})
        assert run(["approx", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err == ("config error: a tail rule of (8, 8, 8, 8, 8, 8) "
                                           "nodes per axis exceeds the 200000 node budget\n")

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_console_entry_point_exit_codes(self, tmp_path, code):
        # each exit code as a shell sees it; a config error writes no report, and
        # a crash one that ends in its error record
        bad_quad = dict(BASE_IDENTITIES, quadrature={"kind": "bogus"})
        crash = dict(BASE_IDENTITIES, forms=[{"degree": [0, 0], "entries": [
            {"I": [], "J": [], "coeff": "log(x(1))"}]}])
        command, payload = {1: ("solve", FAILING_SOLVE), 2: ("identities", bad_quad),
                            3: ("identities", crash)}.get(code, ("identities", None))
        cfg = ROOT / "configs" / "identities.json" if payload is None else \
            write_config(tmp_path, payload)
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", command, "--config",
                               str(cfg), "--out", str(out)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert list(out.glob("*")) == []
        if code == 3:
            assert sorted(p.name for p in out.glob("*")) == [
                "identities_report.jsonl", "identities_summary.csv"]
            assert json.loads((out / "identities_report.jsonl").read_text())["reason"] == \
                "EvalError: log of nonpositive real"

    @pytest.mark.parametrize("trunc_dim", [0, -1])
    def test_domains_trunc_dim_below_one_exits_two(self, tmp_path, trunc_dim):
        # read through the Gaussian spec, as every other command reads it
        config = json.loads((ROOT / "configs" / "domains.json").read_text())
        cfg = write_config(tmp_path, dict(config, trunc_dim=trunc_dim))
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", "domains", "--config",
                               str(cfg), "--out", str(out)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: trunc_dim must be >= 1, not {trunc_dim}\n"
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("scan_points", [0, -3])
    def test_domains_scan_points_below_one_exits_two(self, tmp_path, scan_points):
        # refused by the runner, not left to numpy's empty or negative array errors
        config = json.loads((ROOT / "configs" / "domains.json").read_text())
        cfg = write_config(tmp_path, dict(config, scan_points=scan_points))
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", "domains", "--config",
                               str(cfg), "--out", str(out)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: scan_points must be >= 1, not {scan_points}\n"
        assert list(out.glob("*")) == []

    def test_one_monte_carlo_point_exits_two(self, tmp_path, capsys):
        # one point gives every Monte Carlo record stderr 0, judged at the
        # deterministic tolerance: correct identities failed (gauss_green_x1
        # margin -0.167); scan_points, which states no error, still takes 1
        config = json.loads((ROOT / "configs" / "identities.json").read_text())
        config["quadrature"]["N"] = 1
        out = tmp_path / "r"
        assert run(["identities", "--config", write_config(tmp_path, config), "--out", out]) == 2
        assert capsys.readouterr().err == "config error: quadrature.N must be >= 2, not 1\n"
        assert not out.exists() or list(out.glob("*")) == []
        domains = json.loads((ROOT / "configs" / "domains.json").read_text())
        assert read_config("domains", dict(domains, scan_points=1))["scan_points"] == 1

    def test_thin_sublevel_set_is_refused(self, tmp_path):
        # the polydisc's {eta <= 1} is the origin alone: a valid config whose
        # inclusion check cannot sample its set, so it is refused, not a config error
        cfg = write_config(tmp_path, {"domain": {"kind": "polydisc"}, "trunc_dim": 2})
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", "domains", "--config",
                               str(cfg), "--out", str(out)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 1, proc.stderr
        levi, inclusion = proc.stdout.splitlines()
        assert levi.startswith(f"{'levi_min_eig':32s} pass ")
        assert inclusion.startswith(
            f"{'sublevel_uniform_inclusion':32s} refused: only 0 of 2000 interior samples "
            "have eta <= 1.0 after 60 draws [")
        records = strict_records(out / "domains_report.jsonl")
        assert list(records) == ["levi_min_eig", "sublevel_uniform_inclusion"]
        assert records["sublevel_uniform_inclusion"]["pass"] is False

    @pytest.mark.parametrize("command, change, field", [
        ("identities", {"forms": [ZERO_FORM, PAST_FORM], "trunc_dim": 1, "a_rule": [0.25]},
         "forms[1]"),
        ("identities", {"forms": [ZERO_FORM, PAST_FORM], "trunc_dim": 1}, "forms[1]"),
        ("identities", {"forms": [PAST_COEFF], "trunc_dim": 1}, "forms[0]"),
        ("identities", {"multiplier": "x(3)"}, "multiplier"),
        ("solve", {"solve_dim": 2}, "solve_dim"),
        ("approx", {"n_ladder": [2]}, "n_ladder"),
        *((command, {"trunc_dim": 2, "domain": {"kind": "ball", "r": 1.0, "center": [
            [0.5, 0], [0.5, 0], [0.9, 0]]}}, "domain.center")
          for command in ("domains", "approx", "solve")),
    ], ids=["form-a_rule", "form", "coeff", "multiplier", "solve_dim", "n_ladder",
            "center-domains", "center-approx", "center-solve"])
    def test_past_trunc_dim_exits_two(self, tmp_path, capsys, command, change, field):
        # refused while parsing, before any check runs or any file is written
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        cfg = write_config(tmp_path, dict(config, **change))
        out = tmp_path / "r"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} reaches coordinate ")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command, payload, need", [
        ("conditions", {"family": {"kind": "prior_work"}, "trunc_dim": 2,
                        "a_rule": [0.5, 0.5], "max_index": 6}, "a_rule lists 2 scales; a_3"),
        ("solve", {"trunc_dim": 1, "a_rule": [0.25], "family": {"kind": "prior_work"},
                   "weights": "quadratic"}, "a_rule lists 1 scales; a_2"),
    ], ids=["conditions", "solve"])
    def test_short_a_rule_list_exits_two(self, tmp_path, capsys, command, payload, need):
        # the prior-work family reads a_i past trunc_dim: a config error, not a crash
        out = tmp_path / "r"
        assert run([command, "--config", write_config(tmp_path, payload), "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: {need} is needed\n"
        assert list(out.glob("*")) == []

    def test_refusal_prints_its_reason_and_exits_one(self, tmp_path, capsys, monkeypatch):
        # a refusal verified nothing, so a run of passes and refusals does not exit 0
        def cmd(config, seed, out_dir):
            yield CheckOutcome.judged("kept", 1.0, 0.0, 1.0, 0.0, 0.0)
            yield CheckOutcome.refused("held", "c0 is not positive")

        monkeypatch.setitem(COMMANDS, "majorant", cmd)
        out = tmp_path / "r"
        assert run(["majorant", "--config", write_config(tmp_path, {}), "--out", out]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{'kept':32s} pass  lhs=1 ")
        assert lines[1].startswith(f"{'held':32s} refused: c0 is not positive [")
        records = strict_records(out / "majorant_report.jsonl")
        assert records["kept"]["pass"] is True and records["held"]["pass"] is False

    @pytest.mark.parametrize("command", ["identities", "approx"])
    def test_nothing_to_check_exits_two(self, tmp_path, capsys, command):
        # an empty report passes nothing: no records is a config error
        cfg = write_config(tmp_path, {"seed": 1, "trunc_dim": 2, "forms": []})
        out = tmp_path / "r"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == "config error: nothing to check\n"
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("seed", ["x", None, []], ids=["x", "null", "list"])
    def test_non_integer_seed_exits_two(self, tmp_path, seed):
        # read inside main's guard, so a shell sees a config error, not a failed check
        cfg = write_config(tmp_path, {"seed": seed, "g0": "one"})
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", "majorant", "--config",
                               str(cfg), "--out", str(tmp_path / "r")], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ")

    @pytest.mark.parametrize("radius", [0, -1])
    def test_nonpositive_basis_radius_exits_two(self, tmp_path, capsys, radius):
        config = json.loads((ROOT / "configs" / "solve.json").read_text())
        cfg = write_config(tmp_path, dict(config, basis_radius=radius))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err == \
            f"config error: basis_radius must be > 0, not {float(radius)!r}\n"

    @pytest.mark.parametrize("command, path, where", [
        ("identities", ("forms", 0), "forms[0]"),
        ("approx", ("forms", 0, "entries", 0), "forms[0].entries[0]"),
        ("solve", ("manufactured",), "manufactured")], ids=["form", "entry", "manufactured"])
    def test_declared_support_radius_exits_two(self, tmp_path, capsys, command, path, where):
        # a support ball is derived from the expression: no object has the key,
        # so it is refused by name wherever it is set, true (0.8) or false (0.5) alike
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        node = config
        for k in path:
            node = node[k]
        for radius in (0.8, 0.5):
            node["support_radius"] = radius
            cfg = write_config(tmp_path, config)
            assert run([command, "--config", cfg, "--out", tmp_path / "r"]) == 2
            assert capsys.readouterr().err == \
                f"config error: {where}.support_radius is not read by {command}\n"

    @pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
    def test_non_object_config_exits_two(self, tmp_path, capsys, text):
        # read before any key is: a config is one JSON object
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "r"
        assert run(["majorant", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: a config is a JSON object, not {text}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "identities"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command):
        # --seed takes the place of the config's seed and goes through its rule
        out = tmp_path / "r"
        assert run([command, "--config", ROOT / "configs" / f"{command}.json", "--seed", "-1",
                    "--out", out]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, change, message", [
        ("approx", {"rho": 0}, "rho must be > 0, not 0.0"),
        ("approx", {"rho": -1}, "rho must be > 0, not -1.0"),
        ("approx", {"grid_res": 0}, "grid_res must be >= 2, not 0"),
        ("approx", {"grid_res": 0.5}, "grid_res must be of type int, not 0.5"),
        ("approx", {"seed": 0.5}, "seed must be of type int, not 0.5"),
        ("conditions", {"s": 0.5}, "s must be of type int, not 0.5"),
        ("solve", {"weights": "x"}, 'weights must be one of recipe, quadratic, not "x"'),
        ("solve", {"weights": None}, "weights must be one of recipe, quadratic, not null"),
        ("solve", {"solve_dim": 0.5}, "solve_dim must be of type int, not 0.5"),
        ("approx", {"grid_rez": 101}, "grid_rez is not read by approx"),
        ("identities", {"support_radius": 0.8}, "support_radius is not read by identities"),
        ("identities", {"quadrature": {"kind": "monte_carlo", "nodes_per_axis": 8}},
         "quadrature.nodes_per_axis is not read by monte_carlo"),
        ("solve", {"tolerances": {"deterministic": 1e-8}},
         "tolerances.deterministic is not read by solve"),
        ("identities", {"varphi": 0}, "varphi must be of type text, not 0"),
        ("conditions", {"family": 3}, "family must be of type object, not 3"),
        ("domains", {"tau": 10 ** 400}, f"tau must be of type number, not {10 ** 400}"),
    ], ids=["rho-0", "rho-neg", "grid_res-0", "grid_res-half", "seed-half", "s-half",
            "weights-x", "weights-null", "solve_dim-half", "misspelt", "support_radius",
            "other-kind", "other-command", "varphi-number", "family-number", "tau-huge"])
    def test_table_refusals_exit_two(self, tmp_path, capsys, command, change, message):
        # values that used to run (exit 0), be truncated or crash (exit 3)
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        out = tmp_path / "r"
        assert run([command, "--config", write_config(tmp_path, dict(config, **change)),
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_trunc_order_too_small_exits_two(self, tmp_path, capsys):
        # the majorant's own limit: a config error with its message, not a crash
        cfg = write_config(tmp_path, {"g0": "staircase", "K_max": 10.0, "trunc_order": 5})
        assert run(["majorant", "--config", cfg, "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: series terms still grow at x = 10.0 (ratio ")
        assert err.endswith("); raise trunc_order\n")

    @pytest.mark.parametrize("command, key, change", [
        ("conditions", "max_index 100000", {"max_index": 100000}),
        ("approx", "grid_res 100000", {"grid_res": 100000}),
        ("identities", f"quadrature.N {10 ** 13}",
         {"quadrature": {"kind": "monte_carlo", "N": 10 ** 13}}),
        ("domains", f"scan_points {10 ** 13}", {"scan_points": 10 ** 13}),
        ("domains", "trunc_dim 1000", {"trunc_dim": 1000}),
    ], ids=["conditions-max_index", "approx-grid_res", "identities-quadrature.N",
            "domains-scan_points", "domains-trunc_dim"])
    def test_work_over_budget_exits_two_at_once(self, tmp_path, capsys, command, key, change):
        # refused from the work it asks for, before any of it is done
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        cfg = write_config(tmp_path, dict(config, **change))
        start = time.perf_counter()
        assert run([command, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(f"config error: {key} asks for ")

    def test_trunc_dim_budget_counts_hessian_terms(self):
        # the domains scan builds trunc_dim^2 Hessian entries of about trunc_dim
        # terms; no other command builds them, so none other is refused for them
        config = json.loads((ROOT / "configs" / "domains.json").read_text())
        read_config("domains", dict(config, trunc_dim=50))
        with pytest.raises(ConfigError, match=f"^trunc_dim 51 asks for {51 ** 3} evaluations, "
                                              f"over {HESSIAN_BUDGET}$"):
            read_config("domains", dict(config, trunc_dim=51))
        for command in ("conditions", "solve"):
            config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
            assert read_config(command, dict(config, trunc_dim=1000))["trunc_dim"] == 1000

    @pytest.mark.parametrize("command, key, change", [
        ("identities", "quadrature.N", lambda N: {"quadrature": {"kind": "monte_carlo", "N": N}}),
        ("domains", "scan_points", lambda N: {"scan_points": N}),
    ], ids=["quadrature.N", "scan_points"])
    def test_sampling_budget_counts_coordinates(self, command, key, change):
        # N points in R^(2 trunc_dim)
        config = json.loads((ROOT / "configs" / f"{command}.json").read_text())
        most = SAMPLE_BUDGET // (2 * config["trunc_dim"])
        read_config(command, dict(config, **change(most)))
        with pytest.raises(ConfigError, match=f"^{key} {most + 1} asks for "):
            read_config(command, dict(config, **change(most + 1)))

    @pytest.mark.parametrize("multiplier, message", [
        ("(" * 300 + "x(1)" + ")" * 300, "more than 100 nested parentheses"),
        ("1e400*x(1)", "number literal 1e400 is too large for a float"),
        ("1/0*x(1)", "a constant folds to no value: division by constant zero"),
        ("log(0)*x(1)", "a constant folds to no value: log of nonpositive real constant"),
        ("2^5000*x(1)", "a constant folds to no value: complex exponentiation"),
        ("exp(1000)*x(1)", "a constant folds to a non-finite value"),
        ("1e300*1e300*x(1)", "a constant folds to a non-finite value"),
    ], ids=["nested-300", "literal-1e400", "fold-div-zero", "fold-log-zero", "fold-overflow",
            "fold-exp-inf", "fold-product-inf"])
    def test_expression_the_parser_refuses_exits_two(self, tmp_path, multiplier, message):
        # these used to crash (RecursionError, ZeroDivisionError, EvalError, OverflowError:
        # exit 3) or to run on a NaN or inf constant (exit 1)
        cfg = write_config(tmp_path, dict(BASE_IDENTITIES, multiplier=multiplier))
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-m", "dbarl2.cli", "identities", "--config",
                               str(cfg), "--out", str(out)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: multiplier: {message}\n"
        assert not out.exists()


class TestReports:
    def test_summary_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"family": {"kind": "constant", "value": 1.0},
                                      "max_index": 5, "s": 0, "t": 0})
        out = tmp_path / "r"
        run(["conditions", "--config", cfg, "--out", out])
        lines = (out / "conditions_summary.csv").read_text().splitlines()
        assert lines[0] == "check_id,lhs,rhs,stderr,margin,pass"
        assert len(lines) == 4

    def test_jsonl_shape(self, tmp_path):
        cfg = write_config(tmp_path, {"family": {"kind": "multiplicative",
                                                 "mu": "1.0 + 1.0/j"},
                                      "max_index": 6, "s": 0, "t": 0})
        out = tmp_path / "r"
        run(["conditions", "--config", cfg, "--out", out])
        recs = strict_records(out / "conditions_report.jsonl")
        assert set(recs) == {"condition1_c1_finite", "condition2_c0_positive",
                             "condition3_multiplicative"}
        assert recs["condition2_c0_positive"]["lhs"] == pytest.approx(7.0 / 6.0)
        assert recs["condition1_c1_finite"]["rhs"] is None

    def test_conditions_mu_matches_python_rule(self, tmp_path, monkeypatch):
        # reference: the same rule written as a Python function
        from dbarl2 import cli

        cfg = Path(__file__).resolve().parents[1] / "configs" / "conditions.json"
        assert run(["conditions", "--config", cfg, "--out", tmp_path / "grammar"]) == 0
        monkeypatch.setattr(cli, "_mu_from", lambda text: lambda j: 1.0 + 1.0 / j)
        assert run(["conditions", "--config", cfg, "--out", tmp_path / "python"]) == 0
        for name in ("conditions_report.jsonl", "conditions_summary.csv"):
            assert ((tmp_path / "grammar" / name).read_bytes()
                    == (tmp_path / "python" / name).read_bytes())

    def test_mu_is_evaluated_once_per_index(self, monkeypatch):
        # a family asks for the same mu(j) for every J: evaluating it on each call took
        # 13 s at max_index 10, s = t = 2
        from dbarl2 import cli

        evaluate, seen = cli.eval_expr, []

        def counted(e, pts):
            seen.append(float(pts[0, 0]))
            return evaluate(e, pts)

        monkeypatch.setattr(cli, "eval_expr", counted)
        fam = multiindex.multiplicative_family(mu=cli._mu_from("1.0 + 1.0/j"))
        multiindex.check_conditions(fam, 8, 1, 1)
        assert 0 < len(seen) <= 8 and len(set(seen)) == len(seen)

    def test_reproducibility_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_IDENTITIES)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        run(["identities", "--config", cfg, "--out", out1])
        run(["identities", "--config", cfg, "--out", out2])
        for name in ("identities_report.jsonl", "identities_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_perturbed_gauss_green_leaves_the_audit_points(self, tmp_path, monkeypatch):
        # the pointwise checks must not see the Gauss-Green quadrature points
        cfg = write_config(tmp_path, BASE_IDENTITIES)
        out = {}
        for name in ("plain", "perturbed"):
            if name == "perturbed":
                monkeypatch.setattr(gaussmeasure, "gauss_green_residual",
                                    wrong_scale_gauss_green(0.05))
            run(["identities", "--config", cfg, "--out", tmp_path / name])
            out[name] = {r["check_id"]: r for r in map(json.loads, (
                tmp_path / name / "identities_report.jsonl").read_text().splitlines())}
        assert out["plain"]["gauss_green_x1"] != out["perturbed"]["gauss_green_x1"]
        for check in ("commutator", "s_after_t_zero", "multiplier"):
            assert out["plain"][check] == out["perturbed"][check]

    def test_perturbed_gauss_green_record(self, tmp_path, monkeypatch):
        # the record reads the mismatched sides off the quadrature points
        wrong = 0.05
        monkeypatch.setattr(gaussmeasure, "gauss_green_residual", wrong_scale_gauss_green(wrong))
        cfg = write_config(tmp_path, BASE_IDENTITIES)
        assert run(["identities", "--config", cfg, "--out", tmp_path]) == 1
        recs = {r["check_id"]: r for r in map(json.loads, (
            tmp_path / "identities_report.jsonl").read_text().splitlines())}
        quad = Quadrature("monte_carlo", N=20000, seed=7)
        pts, w = quad.nodes_weights(GaussianSpec(2))
        g0 = parse_form_literal(BASE_IDENTITIES["forms"][0]["entries"], (0, 0),
                                constant_family(1.0), support_radius=0.8).coeff((), ())
        la = g0.d_dx(1)(pts)
        rb = (pts[:, 0] / wrong ** 2) * g0(pts)
        margin = -abs(complex(np.sum(w * (la - rb))))
        stderr = float(np.std(la - rb) / np.sqrt(len(pts)))
        got = recs["gauss_green_x1"]
        assert got["lhs"] == abs(float(np.sum(w * la).real))
        assert got["rhs"] == abs(float(np.sum(w * rb).real))
        assert got["margin"] == margin
        assert got["stderr"] == pytest.approx(stderr, rel=1e-12)
        assert got["pass"] is (margin >= -3.0 * stderr) is False

    def test_complex_gauss_green_sides_are_moduli(self, tmp_path):
        # the record reports |sum w la| and |sum w rb|, not their real parts
        coeff = "i*x(1)*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2)/0.64)"
        entries = [{"I": [], "J": [], "coeff": coeff}]
        forms = [{"degree": [0, 0], "entries": entries},
                 BASE_IDENTITIES["forms"][1]]
        spec = GaussianSpec(2)
        pts, w = Quadrature("monte_carlo", N=20000, seed=7).nodes_weights(spec)
        g0 = parse_form_literal(entries, (0, 0), constant_family(1.0),
                                support_radius=0.8).coeff((), ())
        la = g0.d_dx(1)(pts)
        rb = (pts[:, 0] / spec.a(1) ** 2) * g0(pts)
        payload = dict(BASE_IDENTITIES, forms=forms)
        run(["identities", "--config", write_config(tmp_path, payload), "--out", tmp_path])
        got = strict_records(tmp_path / "identities_report.jsonl")["gauss_green_x1"]
        assert got["lhs"] == abs(complex(np.sum(w * la))) > 0.0
        assert got["rhs"] == abs(complex(np.sum(w * rb)))

    def test_nan_residual_fails(self, tmp_path):
        # inf - inf: every coefficient of dbar(dbar u) is NaN, which must not pass
        nan_form = {"degree": [0, 0], "entries": [
            {"I": [], "J": [], "coeff": "exp(800+x(1))*x(2) - exp(800+x(1))*x(2)"}]}
        cfg = write_config(tmp_path, dict(BASE_IDENTITIES, forms=[nan_form]))
        with np.errstate(all="ignore"):
            assert run(["identities", "--config", cfg, "--out", tmp_path]) == 1
        recs = strict_records(tmp_path / "identities_report.jsonl")
        assert recs["s_after_t_zero"]["lhs"] is None
        assert recs["s_after_t_zero"]["pass"] is False

    def test_majorant_command(self, tmp_path):
        cfg = write_config(tmp_path, {"g0": "one", "K_max": 8.0,
                                      "trunc_order": 120})
        out = tmp_path / "r"
        assert run(["majorant", "--config", cfg, "--out", out]) == 0

    def test_domains_command(self, tmp_path):
        cfg = write_config(tmp_path, {"domain": {"kind": "ball", "r": 1.0},
                                      "trunc_dim": 2, "tau": 1.0})
        out = tmp_path / "r"
        assert run(["domains", "--config", cfg, "--out", out]) == 0

    def test_solve_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 3, "trunc_dim": 1, "weights": "quadratic",
            "phi": "3*(x(1)^2+y(1)^2)",
            "manufactured": {"coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.64)"},
            "degree": 6, "solve_dim": 1, "basis_radius": 0.8})
        out = tmp_path / "r"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        rep = strict_json((out / "solve_report.json").read_text())
        assert rep["residual"] <= 1e-3

    def test_nan_solve_report_is_strict_json(self, tmp_path, monkeypatch):
        def nan_solve(prob):
            bound = CheckOutcome.judged("solve_norm_bound", math.inf, 1.0, -math.inf, 0.0, 1e-6)
            rep = solver.SolveReport(residual=math.nan, norm_u_w1=math.inf, norm_f_w2=1.0,
                                     c0=1.0, bound=bound, rank=0, cond=0.0,
                                     basis_dim=0, kernel_orth=0.0)
            return Form((0, 0), {}, prob.f.family), rep

        monkeypatch.setattr(solver, "solve_min_norm", nan_solve)
        out = tmp_path / "r"
        assert run(["solve", "--config", ROOT / "configs" / "solve.json", "--out", out]) == 1
        rep = strict_json((out / "solve_report.json").read_text())
        assert (rep["residual"], rep["norm_u_w1"], rep["norm_f_w2"]) == (None, None, 1.0)
        assert strict_records(out / "solve_report.jsonl")["solve_residual"]["lhs"] is None

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_reports_do_not_depend_on_blas_threads(self, tmp_path, command):
        # set in the child's environment only, under each name a BLAS may read
        got = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "dbarl2.cli", command, "--config",
                            str(ROOT / "configs" / f"{command}.json"), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            got.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert {f"{command}_report.jsonl", f"{command}_summary.csv"} <= set(got[0])
        assert got[0] == got[1]

    def test_solve_quadratic_skips_recipe_weights(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("recipe weights built for a quadratic-weight solve")

        monkeypatch.setattr(weights, "recipe_weights_whole_space", refuse)
        cfg = write_config(tmp_path, {
            "seed": 3, "trunc_dim": 1, "weights": "quadratic",
            "phi": "3*(x(1)^2+y(1)^2)", "degree": 4, "solve_dim": 1,
            "basis_radius": 0.8})
        out = tmp_path / "r"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        assert "rank" in json.loads((out / "solve_report.json").read_text())

    def test_approx_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 4, "trunc_dim": 1,
            "domain": {"kind": "whole_space"},
            "quadrature": {"kind": "monte_carlo", "N": 10000},
            "rho": 2.0, "n_ladder": [1], "delta_ladder": [0.2, 0.1],
            "grid_res": 101,
            "forms": [{"degree": [0, 1],
                       "entries": [{"I": [], "J": [1],
                                    "coeff": "x(1)*bump((x(1)^2+y(1)^2)/0.16)"}]}]})
        out = tmp_path / "r"
        assert run(["approx", "--config", cfg, "--out", out]) == 0
        assert (out / "approx_ladder.csv").exists()


# sha256 of the report files of `dbarl2 <command> --config configs/<command>.json`
# at one BLAS thread, recorded with numpy 2.4.6 on x86-64 (another numpy or BLAS
# may move last digits; then regenerate the table and say why in CHANGES.md)
GOLDEN_NUMPY = "2.4.6"
GOLDEN_REPORTS = {
    "approx": {
        "approx_ladder.csv": "fe5374bf900bf13a9bdc5f4e4de8b541787b494c2f68a34a48ed77f41df73dca",
        "approx_report.jsonl": "b8e63f349f85de2f0a95eac3bd849398d5c5a8e7581236f885910d3a9e6ff56d",
        "approx_summary.csv": "cde09b99e34db9cf15ae54d9ef00b9c6095076edfff12fcdb0eac67e3194369c",
    },
    "conditions": {
        "conditions_report.jsonl":
            "65c8954f75b4c77c266790a0d14f2841f9a31e4e1f14aafa93ea9e2921d51b66",
        "conditions_summary.csv":
            "e691832ccbf15aa51004fd8d914b90444eceff20888373d55a305065318749bf",
    },
    "domains": {
        "domains_report.jsonl": "43873eb6aa051a1277c8b51f70c4e205076a1eac8ce4cc2f25b9531846b99f3d",
        "domains_summary.csv": "1dad8298f870281471a1ed05b65cd3309381f15439eb87940d594f8bc63420f9",
    },
    "identities": {
        "identities_report.jsonl":
            "787c55a5ca7babd8409fb9f916505f29d6361858ff125bfaa04428768af2de31",
        "identities_summary.csv":
            "b0484b5d3080702fe48a0f5637adf2b30da8d5e55af4426ef9d6a61407094998",
    },
    "majorant": {
        "majorant_report.jsonl": "67b2946984d0ba4a26c47c64922b8545dc64b6d4cb5c97a0e60bf2ff53cd552b",
        "majorant_summary.csv": "b8f083e3587fff53ebed94afdb1e110252cd0ca2bf80f5a6a46dddf6cccab014",
    },
    "solve": {
        "solve_report.json": "ab72a86e46f8dcffbc65bc4ea718acb62852e251d23cd5dda30d231bc45c5575",
        "solve_report.jsonl": "49f8701170f64a108290cebe7ac15b1cee1ff4c606474493c607c33370c93a20",
        "solve_summary.csv": "09719c5c4a9c6f00b1248e874e795f4c38d6aed14804e613dca05128084af186",
    },
}


def test_golden_table_covers_every_command():
    assert sorted(GOLDEN_REPORTS) == sorted(COMMANDS)
    assert sum(map(len, GOLDEN_REPORTS.values())) == 14


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_reports_keep_their_bytes(tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "dbarl2.cli", command, "--config",
                    str(ROOT / "configs" / f"{command}.json"), "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == GOLDEN_REPORTS[command], \
        f"table recorded with numpy {GOLDEN_NUMPY}, running numpy {np.__version__}"


class TestRecordEdges:
    """Each record kind one float step either side of its pass boundary."""

    def test_conditions(self, monkeypatch):
        def records(c1=1.0, c0=1.0, violations=()):
            rep = ConditionReport(c1_sup=c1, c0_inf=c0, multiplicative_ok=not violations,
                                  violations=list(violations))
            monkeypatch.setattr(multiindex, "check_conditions", lambda *args: rep)
            recs = list(cmd_conditions(read_config("conditions", {}), 0, None))
            assert rep.passed is all(r.passed for r in recs)
            return [r.passed for r in recs]

        assert records() == [True, True, True]
        assert records(c0=0.0) == [True, False, True]  # c0 > 0 is strict
        assert records(c0=-0.0) == [True, False, True]
        assert records(c0=np.nextafter(0.0, 1.0)) == [True, True, True]
        assert records(c1=math.inf) == [False, True, True]
        assert records(c1=np.finfo(float).max) == [True, True, True]
        assert records(violations=[{}]) == [True, True, False]

    def test_conditions_multiplicative_margin_is_minus_zero(self):
        rec = list(cmd_conditions(read_config("conditions", {}), 0, None))[2]
        assert rec.check_id == "condition3_multiplicative"
        assert math.copysign(1.0, rec.margin) == -1.0 and rec.row()[4] == "-0.0"

    def test_domains(self, monkeypatch):
        config = {"domain": {"kind": "ball", "r": 1.0}, "trunc_dim": 2, "scan_points": 3}

        def passes(eig=1.0, inclusion=1.0):
            monkeypatch.setattr(domains, "levi_min_eigs", lambda *args: np.array([eig, 1.0]))
            monkeypatch.setattr(domains, "uniformly_included", lambda *a, **k: inclusion)
            return [r.passed for r in cmd_domains(read_config("domains", config), 0, None)]

        assert passes(eig=-1e-9) == [True, True]
        assert passes(eig=np.nextafter(-1e-9, -np.inf)) == [False, True]
        assert passes(inclusion=0.0) == [True, False]  # inclusion margin > 0 is strict
        assert passes(inclusion=-0.0) == [True, False]
        assert passes(inclusion=np.nextafter(0.0, 1.0)) == [True, True]

    def test_solve_residual(self, monkeypatch, tmp_path):
        tol = 1e-3
        bound = CheckOutcome.judged("solve_norm_bound", 1.0, 2.0, 1.0, 0.0, 1e-6)

        def records(residual):
            rep = solver.SolveReport(residual=residual, norm_u_w1=1.0, norm_f_w2=2.0, c0=1.0,
                                     bound=bound, rank=1, cond=1.0, basis_dim=1,
                                     kernel_orth=0.0)
            monkeypatch.setattr(solver, "solve_min_norm",
                                lambda prob: (Form((0, 0), {}, prob.f.family), rep))
            return list(cmd_solve(read_config("solve", {
                "trunc_dim": 1, "weights": "quadratic", "tolerances": {"residual": tol}}),
                0, tmp_path))

        res, nb = records(tol)
        assert (res.check_id, res.passed, res.margin) == ("solve_residual", True, 0.0)
        assert (nb.check_id, nb.lhs, nb.rhs, nb.margin, nb.passed) == \
            ("solve_norm_bound", 1.0, 2.0, 1.0, True)
        assert records(np.nextafter(tol, 1.0))[0].passed is False

    def test_solve_norm_bound_is_the_report_verdict(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 3, "trunc_dim": 1, "weights": "quadratic", "degree": 4,
            "solve_dim": 1, "basis_radius": 0.8})
        out = tmp_path / "r"
        run(["solve", "--config", cfg, "--out", out])
        rec = strict_records(out / "solve_report.jsonl")["solve_norm_bound"]
        rep = strict_json((out / "solve_report.json").read_text())
        assert rec["pass"] is rep["bound_pass"]
        assert rec["margin"] == rec["rhs"] - rec["lhs"]

    def test_majorant_chain(self, monkeypatch):
        def passes(worst):
            fake = type("Majorant", (), {"chain_margin": lambda self, g0, grid: worst})()
            monkeypatch.setattr(weights, "convex_majorant", lambda *a, **k: fake)
            (rec,) = cmd_majorant(read_config("majorant", {}), 0, None)
            return rec.passed

        assert passes(-1e-9) is True
        assert passes(np.nextafter(-1e-9, -np.inf)) is False
