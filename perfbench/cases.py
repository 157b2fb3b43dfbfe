"""The three workloads: their fixed set-up, case inputs, timed calls and checks.

A workload cycles through a fixed round of case kinds.  For every case the
benchmark makes the input from the run seed (untimed), times only the calls
into dbarl2 (``run``), then checks the output against references computed
apart from the program (``check``, untimed).  ``check`` returns the number of
verified checks and a list of problems; an empty list means the case passed.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as orc

# Paired Monte Carlo residuals pass within this many standard errors.
SE_FACTOR = 3.0
# A residual beyond SE_FACTOR standard errors is re-drawn on up to this many
# independent point sets and passes if one of them is within SE_FACTOR: a
# single draw misses 3 se 0.27 % of the time even when the identity holds.
REDRAWS = 2
# Pointwise identities (commutator, S after T, multiplier rule).
POINTWISE_TOL = 1e-10
# Program coefficient values against the benchmark's own evaluator.
VALUE_RTOL = 1e-12
# Symbolic d-bar against centered differences (step 1e-5).
FD_TOL = 1e-6
# 8-node tail rule against the 12-node reference, relative to sup |f|; 5.6 and
# 8 times the largest deviation over 300 seeds (perfbench/calibrate.py).
TAIL_TOL = {"tail4096": 2e-3, "tail64": 1e-5}
# Solves and the Cauchy oracle against the manufactured u0, relative to sup |u0|.
SOLVE_RTOL = 1e-6
# Points where the Cauchy oracle with criterion 10's reach is out of range
# (|z| > reach - R); they do not depend on the seed and fail every time.
FAR_POINTS = ((2.48, 0.0), (-1.8, -1.2), (1.5, 1.0), (-1.2, -2.1))


class Case:
    def __init__(self, kind, inp):
        self.kind = kind
        self.inp = inp
        self.expected_fault = bool(inp.get("far", False))


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _within_se(est) -> bool:
    return abs(est.mean) <= SE_FACTOR * est.stderr


def _max_rel(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(scale, 1e-300)


class Workload:
    name = ""
    kinds = ()       # metric slots kind1, kind2, kind3, in this order
    round = ()       # kinds in the order one round runs them

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = {k: 0 for k in self.kinds}
        self.warm = True

    def next_case(self, kind) -> Case:
        idx = self.counter[kind]
        self.counter[kind] += 1
        stream = 1 if self.warm else 0
        rng = _rng(self.seed, self.kinds.index(kind), stream, idx)
        return Case(kind, self.make(kind, rng, idx))

    def start_timed(self):
        """Warm-up cases draw from their own stream; timed cases start at 0."""
        self.warm = False
        self.counter = {k: 0 for k in self.kinds}


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

class Identities(Workload):
    """Seeded forms on C^2 through the operator identities and the key inequality."""

    name = "identities"
    kinds = ("adjoint", "pointwise", "keyineq")
    round = kinds
    N = 20_000

    def __init__(self, seed, dbarl2):
        super().__init__(seed)
        d = self.d = dbarl2
        CF = d.symfun.CylinderFn
        self.spec = d.gaussmeasure.GaussianSpec(2)
        self.family = d.multiindex.constant_family(1.0)
        self.ctx = d.dbarops.OperatorContext(
            self.spec, self.family, CF("x(1)^2"), CF("0.5*(x(1)^2+y(2)^2)"),
            CF("0"), CF("x(1)^2"))
        self.triple, self.domain, self.kappa = \
            d.weights.recipe_weights_whole_space(self.spec)
        t = self.triple
        self.key_ctx = d.dbarops.OperatorContext(self.spec, self.family,
                                                 t.w1, t.w2, t.w3, t.phi)
        self.cond4_pts = self.domain.sample_sublevel(2, 2.0, 200, seed % 100_000 + 91)

    # inputs ------------------------------------------------------------------

    def make(self, kind, rng, idx):
        qseed = int(rng.integers(1, 2**31))
        if kind == "adjoint":
            return {"u": orc.random_bump_poly(rng, 2, 0.8),
                    "f": [orc.random_bump_poly(rng, 2, 0.8) for _ in range(2)],
                    "qseed": qseed}
        if kind == "pointwise":
            m = [round(float(v), 3) for v in rng.normal(size=3)]
            return {"u": orc.random_bump_poly(rng, 2, 0.8),
                    "f": [orc.random_bump_poly(rng, 2, 0.8) for _ in range(2)],
                    "m": f"({m[0]!r})*x(1)+({m[1]!r})*y(2)+({m[2]!r})",
                    "pts": rng.standard_normal((100, 4)) * [0.25, 0.25, 0.125, 0.125]}
        return {"fa": [orc.random_bump_poly(rng, 2, 0.6) for _ in range(2)],
                "fb": [orc.random_bump_poly(rng, 2, 0.6) for _ in range(4)],
                "qseed": qseed}

    def _form(self, degree, keys, polys, radius):
        entries = [{"I": list(I), "J": list(J), "coeff": p.expr()}
                   for (I, J), p in zip(keys, polys)]
        return self.d.forms.parse_form_literal(entries, degree, self.family,
                                               support_radius=radius)

    # timed calls -------------------------------------------------------------

    def run(self, case):
        d, inp = self.d, case.inp
        if case.kind == "adjoint":
            u = self._form((0, 0), [((), ())], [inp["u"]], 0.8)
            f = self._form((0, 1), [((), (1,)), ((), (2,))], inp["f"], 0.8)
            quad = d.gaussmeasure.Quadrature("monte_carlo", N=self.N, seed=inp["qseed"])
            return self._pairings(u, f, quad)
        if case.kind == "pointwise":
            u = self._form((0, 0), [((), ())], [inp["u"]], 0.8)
            f = self._form((0, 1), [((), (1,)), ((), (2,))], inp["f"], 0.8)
            h = u.coeff((), ())
            pts = inp["pts"]
            res = [d.dbarops.commutator_residual(h, i, j, self.ctx, pts)
                   for i in (1, 2) for j in (1, 2)]
            res.append(d.dbarops.st_complex_residual(u, pts))
            res.append(d.dbarops.multiplier_residual(d.symfun.CylinderFn(inp["m"]), f,
                                                     self.ctx, pts))
            return {"u": u, "f": f, "residuals": res}
        quad = d.gaussmeasure.Quadrature("monte_carlo", N=self.N, seed=inp["qseed"])
        fa = self._form((0, 1), [((), (1,)), ((), (2,))], inp["fa"], 0.6)
        fb = self._form((1, 1), [((i,), (j,)) for i in (1, 2) for j in (1, 2)],
                        inp["fb"], 0.6)
        outs = [d.solver.key_inequality_check(f, self.key_ctx, quad, self.triple,
                                              self.domain, self.cond4_pts)
                for f in (fa, fb)]
        return {"forms": (fa, fb), "outcomes": outs, "quad": quad}

    def _pairings(self, u, f, quad):
        d = self.d
        g0, g1 = u.coeff((), ()), f.coeff((), (1,))
        return {"u": u, "f": f, "ests": [
            d.dbarops.adjoint_residual(u, f, self.ctx, quad),
            d.dbarops.ibp_residual(g0, g1, 1, self.spec, quad, weighted=False,
                                   varphi=self.ctx.varphi),
            d.dbarops.ibp_residual(g0, g1, 1, self.spec, quad, weighted=True,
                                   varphi=self.ctx.varphi)]}

    # checks ------------------------------------------------------------------

    def check(self, case, out):
        inp, problems, checks = case.inp, [], 0
        if case.kind == "keyineq":
            return self._check_keyineq(inp, out)
        rng = _rng(self.seed, 99, case.inp.get("qseed", 0))
        pts = rng.standard_normal((2000, 4)) * [0.25, 0.25, 0.125, 0.125]
        for prog, own in [(out["u"].coeff((), ()), inp["u"])] + \
                [(out["f"].coeff((), (j,)), p) for j, p in zip((1, 2), inp["f"])]:
            ref = own(pts)
            dev = _max_rel(prog(pts), ref, float(np.max(np.abs(ref))))
            checks += 1
            if dev > VALUE_RTOL:
                problems.append(f"{case.kind}: coefficient value deviates {dev:.2e}")
        du = self.d.dbarops.dbar(out["u"])
        for i in (1, 2):
            sub = pts[:500]
            dev = _max_rel(du.coeff((), (i,))(sub), orc.dbar_fd(inp["u"], sub, i),
                           max(1.0, float(np.max(np.abs(inp["u"](sub))))))
            checks += 1
            if dev > FD_TOL:
                problems.append(f"{case.kind}: dbar_{i} u deviates {dev:.2e} from FD")
        if case.kind == "adjoint":
            names = ("adjoint", "ibp_delta", "ibp_sigma")
            for k, (name, est) in enumerate(zip(names, out["ests"])):
                ok = _within_se(est)
                for r in range(1, REDRAWS + 1):
                    if ok:
                        break
                    quad = self.d.gaussmeasure.Quadrature(
                        "monte_carlo", N=self.N, seed=inp["qseed"] + 7919 * r)
                    ok = _within_se(self._pairings(out["u"], out["f"], quad)["ests"][k])
                checks += 1
                if not ok:
                    problems.append(f"adjoint: {name} residual {abs(est.mean):.3e} "
                                    f"beyond {SE_FACTOR} se ({est.stderr:.3e})")
        else:
            for k, res in enumerate(out["residuals"]):
                checks += 1
                if not res <= POINTWISE_TOL:
                    problems.append(f"pointwise: identity {k} residual {res:.3e}")
        return checks, problems

    def _check_keyineq(self, inp, out):
        problems, checks = [], 0
        pts, wq = out["quad"].nodes_weights(self.spec)
        rsq = np.sum(pts ** 2, axis=1)
        ew2 = np.exp(-(self.kappa * rsq - np.log1p(2.25 * rsq)))
        for polys, res in zip((inp["fa"], inp["fb"]), out["outcomes"]):
            checks += 3
            if res.passed is not True:
                problems.append(f"keyineq: refused or failed ({res.reason})")
                continue
            if not res.margin >= -SE_FACTOR * res.stderr:
                problems.append(f"keyineq: margin {res.margin:.3e} below "
                                f"-{SE_FACTOR} se ({res.stderr:.3e})")
            own = float(np.sum(wq * sum(np.abs(p(pts)) ** 2 for p in polys) * ew2))
            dev = abs(own - res.rhs) / max(abs(own), 1e-300)
            if dev > 1e-9:
                problems.append(f"keyineq: c0 |f|^2_w2 deviates {dev:.2e} from own")
        return checks, problems


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

class Reduce(Workload):
    """Compactly supported functions through the reduction tail and the pipeline."""

    name = "reduce"
    kinds = ("tail4096", "tail64", "approx")
    round = kinds
    HEAD = 200      # fixed evaluation set
    REF_POINTS = 40  # of those, compared with the 12-node reference
    REF_NODES = 12

    def __init__(self, seed, dbarl2):
        super().__init__(seed)
        d = self.d = dbarl2
        self.spec3 = d.gaussmeasure.GaussianSpec(3)
        self.spec2 = d.gaussmeasure.GaussianSpec(2)
        self.family = d.multiindex.constant_family(1.0)
        self.domain = d.domains.whole_space()
        sig = np.array([orc.scale(i) for i in (1, 2, 3) for _ in (0, 1)])
        self.pts = _rng(seed, 77).standard_normal((self.HEAD, 6)) * sig

    def make(self, kind, rng, idx):
        if kind == "approx":
            # the polynomial factor depends on z1 only, so the reduced
            # coefficient is never zero and the delta ladder is well posed
            head = orc.random_bump_poly(rng, 1, 0.4)
            return {"f": orc.BumpPoly(tuple((c, e + (0, 0)) for c, e in head.terms), 2, 0.4),
                    "qseed": int(rng.integers(1, 2**31))}
        return {"f": orc.random_bump_poly(rng, 3, 0.8),
                "g": [(round(float(rng.normal()), 3),
                       tuple(int(e) for e in rng.integers(0, 5, size=4)))
                      for _ in range(2)]}

    def run(self, case):
        d, inp = self.d, case.inp
        if case.kind == "approx":
            f = d.forms.parse_form_literal(
                [{"I": [], "J": [1], "coeff": inp["f"].expr()}], (0, 1), self.family,
                support_radius=0.4)
            quad = d.gaussmeasure.Quadrature("monte_carlo", N=20_000, seed=inp["qseed"])
            return d.reduction.approx_pipeline(
                f, self.domain, rho=2.0, n_ladder=[1], delta_ladder=[0.2, 0.1, 0.05],
                spec=self.spec2, quad=quad, grid_res=121)
        n = 1 if case.kind == "tail4096" else 2
        fn = d.symfun.CylinderFn(inp["f"].expr(), support_radius=0.8)
        red = d.gaussmeasure.reduce_fn(fn, n, self.spec3)
        return {"fn": fn, "values": red(self.pts[:, :2 * n])}

    def check(self, case, out):
        inp = case.inp
        if case.kind == "approx":
            errs = [row.norm_error for row in out.ladder]
            ok = all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
            return 1, [] if ok else [f"approx: delta ladder not decreasing {errs}"]
        problems, checks = [], 0
        n = 1 if case.kind == "tail4096" else 2
        f, vals = inp["f"], out["values"]
        sup = float(np.max(np.abs(f(self.pts))))
        head = self.pts[:self.REF_POINTS]
        mean, second = orc.tail_moments(f, head, n, 3, self.REF_NODES)
        dev = _max_rel(vals[:self.REF_POINTS], mean, sup)
        checks += 1
        if dev > TAIL_TOL[case.kind]:
            problems.append(f"{case.kind}: tail rule deviates {dev:.2e} from reference")
        # contraction |f_n|^2 <= E_tail |f|^2, paired at the same head points
        diff = np.abs(vals[:self.REF_POINTS]) ** 2 - second
        se = float(np.std(diff) / math.sqrt(len(diff)))
        checks += 1
        if not float(np.mean(diff)) <= SE_FACTOR * se:
            problems.append(f"{case.kind}: contraction fails by {np.mean(diff):.3e}")
        # reducing to the function's own dimension returns it unchanged
        d = self.d
        same = d.gaussmeasure.reduce_fn(out["fn"], 3, self.spec3)
        checks += 1
        if not np.array_equal(same(self.pts[:20]), out["fn"](self.pts[:20])):
            problems.append(f"{case.kind}: f_3 differs from f")
        # polynomial tails integrate to their exact Gaussian moments
        expr, want, size = [], 0.0, 0.0
        for c, exps in inp["g"]:
            axes = [(f"{'xy'[k % 2]}({n + 1 + k // 2})", orc.scale(n + 1 + k // 2), e)
                    for k, e in enumerate(exps[:2 * (3 - n)])]
            expr.append("*".join([f"({c!r})"] + [f"{v}^{e}" for v, _, e in axes]))
            want += c * math.prod(orc.gaussian_even_moment(a, e) for _, a, e in axes)
            size += abs(c) * math.prod(orc.gaussian_even_moment(a, e + e % 2)
                                       for _, a, e in axes)
        g = d.symfun.CylinderFn("+".join(expr), dim=3)
        got = d.gaussmeasure.reduce_fn(g, n, self.spec3)(self.pts[:3, :2 * n])
        checks += 1
        if _max_rel(got, want, size) > 1e-12:
            problems.append(f"{case.kind}: polynomial tail moments {got[0]} != {want}")
        return checks, problems


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class Solve(Workload):
    """Minimal-norm solves of dbar u = dbar u0 and Cauchy-oracle evaluations."""

    name = "solve"
    kinds = ("solve1", "solve2", "oracle")
    round = ("solve1", "oracle", "solve2", "oracle", "oracle", "oracle")
    R = 0.8

    def __init__(self, seed, dbarl2):
        super().__init__(seed)
        d = self.d = dbarl2
        CF = d.symfun.CylinderFn
        self.family = d.multiindex.constant_family(1.0)
        self.spec = {1: d.gaussmeasure.GaussianSpec(1), 2: d.gaussmeasure.GaussianSpec(2)}
        self.ctx = {}
        for n in (1, 2):
            phi = CF("3*(" + "+".join(f"x({i})^2+y({i})^2" for i in range(1, n + 1)) + ")")
            self.ctx[n] = d.dbarops.OperatorContext(self.spec[n], self.family, phi, phi,
                                                    phi, CF("0"))
        self.quad = {1: d.gaussmeasure.Quadrature("gauss_hermite", nodes_per_axis=24),
                     2: d.gaussmeasure.Quadrature("gauss_hermite", nodes_per_axis=6)}
        self.degree = {1: 8, 2: 3}
        self.domain = d.domains.ball(r=1.0)
        # criterion 10's oracle: u0 = x1 bump(|z|^2 / R^2), reach 0.7 sqrt 2 + R + 0.1
        self.u0 = orc.BumpPoly(((1.0, (1, 0)),), 1, self.R)
        target = d.dbarops.dbar(d.forms.Form(
            (0, 0), {((), ()): CF(self.u0.expr(), support_radius=self.R)}, self.family))
        self.oracle = d.solver.CauchyOracle(f1=target.coeff((), (1,)),
                                            reach=0.7 * math.sqrt(2) + self.R + 0.1)
        ax = np.linspace(-self.R, self.R, 401)
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(ax, ax)], axis=1)
        self.u0_sup = float(np.max(np.abs(self.u0(grid))))
        self.check_pts = {n: _rng(seed, 78, n).standard_normal((200, 2 * n)) * 0.3
                          for n in (1, 2)}

    def make(self, kind, rng, idx):
        if kind == "oracle":
            if not self.warm and idx % 4 == 3:
                return {"z": np.array([FAR_POINTS[(idx // 4) % len(FAR_POINTS)]]),
                        "far": True}
            return {"z": rng.uniform(-0.7, 0.7, size=(1, 2))}
        n = 1 if kind == "solve1" else 2
        degrees = (0, 2, 4) if n == 1 else (0, 1, 3)   # within the trial degree
        return {"u0": orc.random_bump_poly(rng, n, self.R, degrees)}

    def run(self, case):
        d, inp = self.d, case.inp
        if case.kind == "oracle":
            return self.oracle(inp["z"])
        n = 1 if case.kind == "solve1" else 2
        u0 = d.forms.Form((0, 0), {((), ()): d.symfun.CylinderFn(
            inp["u0"].expr(), support_radius=self.R)}, self.family)
        prob = d.solver.SolveProblem(ctx=self.ctx[n], domain=self.domain,
                                     f=d.dbarops.dbar(u0), degree=self.degree[n],
                                     n=n, radius=self.R, quad=self.quad[n])
        return d.solver.solve_min_norm(prob)

    def check(self, case, out):
        inp = case.inp
        if case.kind == "oracle":
            dev = _max_rel(out, self.u0(inp["z"]), self.u0_sup)
            if dev > SOLVE_RTOL:
                return 1, [f"oracle: u at {inp['z'][0].tolist()} deviates {dev:.2e} from u0"]
            return 1, []
        n = 1 if case.kind == "solve1" else 2
        u, rep = out
        pts = self.check_pts[n]
        ref = inp["u0"](pts)
        dev = _max_rel(u.coeff((), ())(pts), ref, float(np.max(np.abs(ref))))
        problems = []
        if dev > SOLVE_RTOL:
            problems.append(f"{case.kind}: max |u - u0| is {dev:.2e} of sup |u0|")
        if not rep.residual <= 1e-3:
            problems.append(f"{case.kind}: residual {rep.residual:.2e}")
        return 2, problems


WORKLOADS = {w.name: w for w in (Identities, Reduce, Solve)}
