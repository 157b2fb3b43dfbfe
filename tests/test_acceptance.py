"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred; statistical checks pass at
3 paired standard errors, deterministic ones at their stated absolute bounds.
"""

import itertools
import json
import math
import time

import numpy as np

from dbarl2 import dbarops as do
from dbarl2 import domains as dm
from dbarl2 import gaussmeasure as gm
from dbarl2 import reduction as rd
from dbarl2 import solver as sv
from dbarl2 import weights as wt
from dbarl2.cli import main as cli_main
from dbarl2.forms import Form
from dbarl2.multiindex import (check_conditions, constant_family, epsilon,
                               multiplicative_family, perm_sign_bruteforce,
                               prior_work_family)
from dbarl2.symfun import CylinderFn, delbar_op, fd_check

from conftest import bump_fn, radial_sq, random_bump_fn, random_form, random_smooth_expr


FAM = constant_family(1.0)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_sign_combinatorics():
    t0 = time.time()
    worst = None
    count = 0
    for t in range(0, 8):
        for L in itertools.combinations(range(1, 9), t):
            for K in itertools.combinations(range(1, 9), t + 1):
                for i in range(1, 9):
                    got = epsilon(i, L, K)
                    if i in L or tuple(sorted((i,) + L)) != K:
                        want = 0
                    else:
                        want = perm_sign_bruteforce((i,) + L)
                    count += 1
                    if got != want:
                        worst = (i, L, K, got, want)
    elapsed = time.time() - t0
    report(1, "epsilon equals the brute-force sign oracle (entries <= 8)",
           worst is None and elapsed < 5.0,
           f"{count} triples in {elapsed:.2f}s")


def test_criterion_02_derivative_engine():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        e = random_smooth_expr(rng, n_vars=2, depth=5)
        pt = rng.normal(scale=0.4, size=4)
        worst = max(worst, fd_check(e, pt, 1e-5))
    elapsed = time.time() - t0
    report(2, "symbolic partials match centered differences (100 random exprs)",
           worst <= 1e-6 and elapsed < 10.0,
           f"max dev {worst:.2e} in {elapsed:.2f}s")


def test_criterion_03_gauss_green():
    t0 = time.time()
    spec3 = gm.GaussianSpec(3)
    quad = gm.Quadrature("monte_carlo", N=10 ** 6, seed=31)
    rng = np.random.default_rng(32)
    all_ok = True
    detail = []
    for k in range(10):
        n = int(rng.integers(1, 4))
        f = random_bump_fn(rng, n, 0.8)
        m = int(rng.integers(1, n + 1))
        rep = gm.gauss_green_residual(f, m, spec3, quad)
        ok = rep.residual <= 3.0 * rep.stderr
        all_ok = all_ok and ok
        detail.append(f"{rep.residual / max(rep.stderr, 1e-300):.2f}x")
    elapsed = time.time() - t0
    spec1 = gm.GaussianSpec(1)
    det = gm.gauss_green_residual(bump_fn(1, 1.6, poly="x(1)+y(1)^2"), 1, spec1,
                                  gm.Quadrature("gauss_hermite", nodes_per_axis=48))
    report(3, "Gauss-Green residuals: paired MC at 1e6 samples + deterministic",
           all_ok and elapsed < 60.0 and det.residual <= 1e-8,
           f"sigmas {','.join(detail)}; det {det.residual:.1e}; {elapsed:.1f}s")


def test_criterion_04_ibp_and_adjoint():
    spec2 = gm.GaussianSpec(2)
    spec1 = gm.GaussianSpec(1)
    rng = np.random.default_rng(44)
    mc = gm.Quadrature("monte_carlo", N=40_000, seed=45)
    gh = gm.Quadrature("gauss_hermite", nodes_per_axis=48)
    varphi = CylinderFn("x(1)^2")
    all_ok = True

    # integration by parts, both variants, 20 random pairs
    for k in range(20):
        n = int(rng.integers(1, 3))
        spec = spec1 if n == 1 else spec2
        f = random_bump_fn(rng, n, 0.8)
        g = random_bump_fn(rng, n, 0.8)
        i = int(rng.integers(1, n + 1))
        for weighted in (False, True):
            est = do.ibp_residual(f, g, i, spec, mc, weighted=weighted,
                                  varphi=varphi)
            all_ok = all_ok and abs(est.mean) <= 3 * est.stderr + 1e-12
    det_f = bump_fn(1, 1.6, poly="x(1)")
    det_g = bump_fn(1, 1.6, poly="y(1)^2-0.3")
    for weighted in (False, True):
        est = do.ibp_residual(det_f, det_g, 1, spec1, gh, weighted=weighted,
                              varphi=varphi)
        all_ok = all_ok and abs(est.mean) <= 1e-8

    # adjoint pairing over the three degrees, 20 random pairs
    ctx2 = do.OperatorContext(spec2, FAM, CylinderFn("x(1)^2"),
                              CylinderFn("0.5*(x(1)^2+y(2)^2)"),
                              CylinderFn("0"), CylinderFn("0"))
    degrees = [(0, 0)] * 7 + [(0, 1)] * 7 + [(1, 0)] * 6
    worst_sig = 0.0
    for deg in degrees:
        u = random_form(rng, deg, 2, 0.8, FAM)
        f = random_form(rng, (deg[0], deg[1] + 1), 2, 0.8, FAM)
        est = do.adjoint_residual(u, f, ctx2, mc)
        sig = abs(est.mean) / max(est.stderr, 1e-300)
        worst_sig = max(worst_sig, sig)
        all_ok = all_ok and abs(est.mean) <= 3 * est.stderr + 1e-12
    ctx1 = do.OperatorContext(spec1, FAM, CylinderFn("x(1)^2"),
                              CylinderFn("x(1)^2+0.5*y(1)^2"),
                              CylinderFn("0"), CylinderFn("0"))
    for deg, key_u, key_f in (((0, 0), ((), ()), ((), (1,))),
                              ((1, 0), ((1,), ()), ((1,), (1,)))):
        u = Form(deg, {key_u: bump_fn(1, 1.6, poly="x(1)+0.3*y(1)")}, FAM)
        f = Form((deg[0], deg[1] + 1), {key_f: bump_fn(1, 1.6, poly="y(1)^2-0.2")}, FAM)
        est = do.adjoint_residual(u, f, ctx1, gh)
        all_ok = all_ok and abs(est.mean) <= 1e-8
    report(4, "integration by parts (delta, sigma) and the adjoint pairing",
           all_ok, f"worst adjoint dev {worst_sig:.2f} sigma")


def test_criterion_05_commutator_and_complex():
    spec2 = gm.GaussianSpec(2)
    rng = np.random.default_rng(55)
    pts = gm.sample(spec2, 100, 56)
    worst_c = 0.0
    phis = ["x(1)^2", "x(1)^2+y(2)^2", "x(1)*x(2)", "exp(0.2*x(1))",
            "y(1)^2", "x(2)^2+0.5*x(1)^2", "0.3*x(1)^2*y(2)",
            "x(1)^2+x(2)^2", "y(2)^2+0.1*x(1)", "cos(x(1))"]
    hs = ["z(1)*zb(2)", "x(1)^2*y(2)", "zb(1)^2", "sin(x(1))*y(2)",
          "z(2)^2", "x(2)*y(1)", "1+x(1)", "zb(2)*x(1)", "y(1)*y(2)",
          "exp(0.3*y(1))"]
    for h_str, phi_str in zip(hs, phis):
        ctx = do.OperatorContext(spec2, FAM, CylinderFn("0"), CylinderFn("0"),
                                 CylinderFn("0"), CylinderFn(phi_str))
        for i in (1, 2):
            for j in (1, 2):
                worst_c = max(worst_c, do.commutator_residual(
                    CylinderFn(h_str), i, j, ctx, pts))
    worst_st = 0.0
    for deg in ((0, 0), (0, 1), (1, 0)):
        for _ in range(10):
            u = random_form(rng, deg, 2, 0.8, FAM)
            worst_st = max(worst_st, do.st_complex_residual(u, pts))
    report(5, "commutator identity and S after T = 0 pointwise",
           worst_c <= 1e-10 and worst_st <= 1e-10,
           f"commutator {worst_c:.1e}; complex {worst_st:.1e}")


def test_criterion_06_reduction():
    spec3 = gm.GaussianSpec(3)
    rng = np.random.default_rng(66)
    ok = True

    # closed-form exactness
    f_low = bump_fn(2, 0.7)
    ok = ok and (gm.reduce_fn(f_low, 2, spec3) is f_low)
    r = gm.reduce_fn(CylinderFn("x(3)^2"), 2, spec3)
    pts2 = gm.sample(spec3, 20, 67, n=2)
    ok = ok and np.allclose(r(pts2).real, spec3.a(3) ** 2, rtol=1e-12)

    # contraction over 20 random functions
    quad = gm.Quadrature("monte_carlo", N=20_000, seed=68)
    pts, w = quad.nodes_weights(spec3)
    for _ in range(20):
        f = random_bump_fn(rng, 3, 0.8)
        fv = np.abs(f(pts)) ** 2
        nf = float(np.sum(w * fv))
        se = float(np.std(fv) / math.sqrt(len(fv)))
        n = int(rng.integers(1, 3))
        rv = np.abs(gm.reduce_fn(f, n, spec3)(pts)) ** 2
        ok = ok and float(np.sum(w * rv)) <= nf + 3 * se

    # ladder of ||f_n - f||
    f = random_bump_fn(rng, 3, 0.8)
    fv = f(pts)
    errs, ses = [], []
    for n in (1, 2, 3):
        dv = np.abs(gm.reduce_fn(f, n, spec3)(pts) - fv) ** 2
        errs.append(float(np.sum(w * dv)))
        ses.append(float(np.std(dv) / math.sqrt(len(dv))))
    ok = ok and errs[0] >= errs[1] - 3 * (ses[0] + ses[1])
    ok = ok and errs[1] >= errs[2] - 3 * (ses[1] + ses[2])
    ok = ok and errs[2] == 0.0
    report(6, "reduction: exact closed forms, contraction, convergence ladder",
           ok, f"ladder {[f'{e:.2e}' for e in errs]}")


def test_criterion_07_mollifier():
    ok = True
    details = []
    for n in (1, 2):
        aud = rd.audit_mollifier(n)
        ok = ok and aud.mass_deviation <= 1e-6 and aud.exterior_max == 0.0
        details.append(f"mass dev n={n}: {aud.mass_deviation:.1e}")
    spec1 = gm.GaussianSpec(1)
    for poly in ("1", "1+x(1)"):
        f = bump_fn(1, 0.5, poly=poly)
        errs = []
        for d in (0.2, 0.1, 0.05):
            g = rd.mollify(f, d, grid_res=121)
            ax = g.axes()
            mesh = np.meshgrid(ax, ax, indexing="ij")
            p = np.stack([m.reshape(-1) for m in mesh], axis=1)
            errs.append(math.sqrt(rd.l2_gauss_grid(
                g.values - f(p).reshape(g.shape), g, spec1)))
        ok = ok and errs[0] > errs[1] > errs[2]
    # support containment, exact at the exterior grid nodes beyond R + delta
    g = rd.mollify(bump_fn(1, 0.5), 0.1, grid_res=121)
    ax = g.axes()
    mesh = np.meshgrid(ax, ax, indexing="ij")
    radii = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
    exterior = np.abs(g.values)[radii > 0.6]
    ok = ok and exterior.size > 0 and float(np.max(exterior)) == 0.0
    report(7, "mollifier audits and strictly improving delta ladder", ok,
           "; ".join(details))


def test_criterion_08_condition_checkers():
    ok = True
    rep = check_conditions(constant_family(1.0), max_index=5, s=0, t=0)
    ok = ok and rep.c0_inf == 1.0 and rep.c1_sup == 1.0 and rep.multiplicative_ok
    rep = check_conditions(multiplicative_family(mu=lambda j: 1.0 + 1.0 / j),
                           max_index=6, s=0, t=0)
    ok = ok and abs(rep.c0_inf - 7.0 / 6.0) < 1e-14 and abs(rep.c1_sup - 2.0) < 1e-14
    ok = ok and rep.multiplicative_ok
    a = lambda i: 2.0 ** (-(i + 1))
    vals = []
    for N in (4, 6, 8):
        repN = check_conditions(prior_work_family(a), max_index=N, s=0, t=0)
        ok = ok and abs(repN.c0_inf - 2.0 * a(N) ** 2) <= 1e-15
        vals.append(repN.c0_inf)
    ok = ok and vals[0] > vals[1] > vals[2]
    report(8, "coefficient conditions: constant, multiplicative, decaying prior family",
           ok, f"prior c0: {[f'{v:.2e}' for v in vals]}")


def test_criterion_09_key_inequality():
    t0 = time.time()
    spec2 = gm.GaussianSpec(2)
    tri, dom, kappa = wt.recipe_weights_whole_space(spec2)
    ctx = do.OperatorContext(spec2, FAM, tri.w1, tri.w2, tri.w3, tri.phi)
    cond4_pts = dom.sample_sublevel(2, 2.0, 200, 91)
    ok = wt.check_cond4(tri.phi, tri.psi, 2, cond4_pts) >= 0.0
    quad = gm.Quadrature("monte_carlo", N=20_000, seed=92)
    rng = np.random.default_rng(93)
    margins = []
    for deg in ((0, 1), (1, 1)):
        for _ in range(10):
            f = random_form(rng, deg, 2, 0.6, FAM)
            out = sv.key_inequality_check(f, ctx, quad, tri, dom, cond4_pts)
            ok = ok and out.passed is True and out.margin >= -3 * out.stderr
            margins.append(out.margin)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(9, "key inequality margin with recipe weights (20 random forms)",
           ok, f"min margin {min(margins):.3f}; {elapsed:.1f}s")


def test_criterion_10_minimal_norm_solve():
    t0 = time.time()
    spec1 = gm.GaussianSpec(1)
    phi = CylinderFn("3*(x(1)^2+y(1)^2)")
    ctx = do.OperatorContext(spec1, FAM, phi, phi, phi, CylinderFn("0"))
    R = 0.8
    gh = gm.Quadrature("gauss_hermite", nodes_per_axis=24)
    ok = True
    norms = []
    for poly in ("x(1)", "x(1)+0.5*y(1)^2"):
        u0 = Form((0, 0), {((), ()): bump_fn(1, R, poly=poly)}, FAM)
        f = do.dbar(u0)
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                               n=1, radius=R, quad=gh)
        u, rep = sv.solve_min_norm(prob)
        ok = ok and rep.residual <= 1e-3
        ok = ok and math.sqrt(rep.c0) * rep.norm_u_w1 <= rep.norm_f_w2 * (1 + 1e-6)
        norms.append((u, rep, f))
    # Cauchy-transform oracle on the first problem
    u, rep, f = norms[0]
    f1 = f.coeff((), (1,))
    oracle = sv.CauchyOracle(f1=f1)
    val = oracle.dbar_residual_on_grid(extent=0.7, res=9)
    ok = ok and val <= 1e-4
    pts, w = gh.nodes_weights(spec1)
    w1v = np.exp(-np.real(ctx.w1(pts)))
    norm_uc = float(np.sqrt(np.sum(w * np.abs(oracle(pts)) ** 2 * w1v)))
    ok = ok and rep.norm_u_w1 <= norm_uc * (1 + 1e-3)
    elapsed = time.time() - t0
    report(10, "minimal-norm solve: residual, norm bound, Cauchy-transform oracle",
           ok, f"residual {rep.residual:.1e}; oracle dev {val:.1e}; "
               f"|u| {rep.norm_u_w1:.5f} <= |u_c| {norm_uc:.5f}; {elapsed:.0f}s")


def test_criterion_11_majorants():
    ok = True
    grid = np.linspace(0.0, 10.0, 2001)
    fixtures = [(lambda v: 1.0, 80), (lambda v: 1.0 + v * v, 300),
                (lambda v: 1000.0 if v >= 5 else 1.0, 300)]
    for g0, order in fixtures:
        maj = wt.convex_majorant(g0, K_max=10.0, trunc_order=order)
        g0v = np.array([g0(v) for v in grid])
        ok = ok and float(np.min(maj.deriv(grid, 2) - maj.deriv(grid, 1))) >= -1e-9
        ok = ok and float(np.min(maj.deriv(grid, 1) - maj(grid))) >= -1e-9
        ok = ok and float(np.min(maj(grid) - g0v)) >= -1e-9
        ok = ok and all(maj.a_seq[l] >= 1.0 / l for l in range(1, len(maj.a_seq)))
    for g in (lambda t: 0.0, lambda t: 0.0 if t <= 3.0 else 1.0,
              lambda t: 0.0 if t <= 3.0 else 0.5 * (t - 3.0)):
        G = wt.calculus_G(g, x1=1.0, x2=3.0, K_max=10.0)
        gv = np.array([g(t) for t in grid])
        ok = ok and float(np.min(G(grid) - gv)) >= -1e-9
        ok = ok and float(np.min(G.deriv(grid) - gv)) >= -1e-9
        ok = ok and float(np.min(G.second(grid))) >= -1e-9
    report(11, "series and C2 majorant chain inequalities on [0, 10]", ok)


def test_criterion_12_cutoff_calculus():
    ok = True
    for k in (1, 2, 5):
        cf = wt.cutoff(k)
        ok = ok and cf.h([float(k)])[0] == 1.0 and cf.h([float(k + 1)])[0] == 0.0
        ts = np.linspace(k, k + 1, 200001)
        ok = ok and abs(float(np.max(np.abs(cf.h_prime(ts)))) - 1.5) <= 1e-9
    dom = dm.normalize_eta(dm.ball(r=1.0))
    rep = wt.psi_majorant(dom, 2, levels=3, samples=5000, seed=121)
    eta = dom.eta(2)
    pts = dom.sample_sublevel(2, 4.0, 1000, 122)
    worst = -math.inf
    for k in (1, 2, 3):
        cf = wt.cutoff(k, eta)
        total = np.zeros(len(pts))
        for i in (1, 2):
            total += np.abs(delbar_op(cf.X_k, i)(pts)) ** 2
        worst = max(worst, float(np.max(total - np.exp(np.real(rep.psi(pts))))))
    ok = ok and worst <= 0.0
    report(12, "cut-off endpoints, slope bound 3/2, and the psi majorization",
           ok, f"max (sum - e^psi) = {worst:.2e}")


def test_criterion_13_reproducibility(tmp_path):
    cfg = {
        "seed": 7, "trunc_dim": 2,
        "quadrature": {"kind": "monte_carlo", "N": 20000},
        "family": {"kind": "constant", "value": 1.0},
        "varphi": "x(1)^2", "w1": "x(1)^2", "w2": "x(1)^2", "w3": "x(1)^2",
        "multiplier": "x(1)",
        "forms": [
            {"degree": [0, 0],
             "entries": [{"I": [], "J": [],
                          "coeff": "x(1)*bump((" + radial_sq(2) + ")/0.64)"}]},
            {"degree": [0, 1],
             "entries": [{"I": [], "J": [1],
                          "coeff": "y(2)*bump((" + radial_sq(2) + ")/0.64)"}]},
        ],
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["identities", "--config", str(cpath), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = True
    for fname in ("identities_report.jsonl", "identities_summary.csv"):
        same = same and ((outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes())
    report(13, "re-running a command with the same config is byte-identical", same)
