import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from dbarl2 import dbarops as do
from dbarl2 import domains as dm
from dbarl2 import forms as fm
from dbarl2 import gaussmeasure as gm
from dbarl2 import solver as sv
from dbarl2 import weights as wt
from dbarl2.forms import Form, norm_sq, support_mask
from dbarl2.multiindex import check_conditions, constant_family, multiplicative_family
from dbarl2.symfun import CylinderFn, EvalError, support_radius_in

from conftest import (CountingFn, ScalarTwo, as_leaf, bump_fn, compiles_and_runs,
                      random_form)


R = 0.8
GH24 = gm.Quadrature("gauss_hermite", nodes_per_axis=24)
# points beyond the support disc of radius R
FAR_POINTS = np.array([(2.48, 0.0), (-1.8, -1.2), (1.5, 1.0), (-1.2, -2.1)])


@pytest.fixture(scope="module")
def quad_ctx(fam):
    spec = gm.GaussianSpec(1)
    phi = CylinderFn("3*(x(1)^2+y(1)^2)")
    ctx = do.OperatorContext(spec, fam, phi, phi, phi, CylinderFn("0"))
    return spec, ctx


@pytest.fixture(scope="module")
def manufactured(quad_ctx, fam):
    spec, ctx = quad_ctx
    u0 = Form((0, 0), {((), ()): bump_fn(1, R, poly="x(1)")}, fam)
    return u0, do.dbar(u0)


class TestSolve:
    def test_zero_target(self, quad_ctx, fam):
        spec, ctx = quad_ctx
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0),
                               f=Form((0, 1), {}, fam), n=1, radius=R)
        u, rep = sv.solve_min_norm(prob)
        assert u.is_zero()
        assert rep.residual == 0.0

    def test_manufactured_recovery(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                               n=1, radius=R, quad=GH24)
        u, rep = sv.solve_min_norm(prob)
        assert rep.residual <= 1e-3
        assert rep.bound_pass
        assert rep.kernel_orth <= 1e-8
        assert 0 < rep.rank <= rep.basis_dim
        # minimal norm never exceeds the manufactured generator's norm
        n_u0 = np.sqrt(norm_sq(u0, ctx.w1, spec, GH24).mean.real)
        assert rep.norm_u_w1 <= n_u0 * (1 + 1e-8)
        # independent Monte Carlo residual agrees
        mc = gm.Quadrature("monte_carlo", N=30_000, seed=5)
        dd = do.dbar(u) + f.scale(-1.0)
        e2 = norm_sq(dd, ctx.w2, spec, mc).mean.real
        f2 = norm_sq(f, ctx.w2, spec, mc).mean.real
        assert np.sqrt(e2 / f2) <= 1e-3

    def test_monotone_refinement(self, quad_ctx, fam):
        # a transcendental profile is never exactly in the polynomial span,
        # so refinement genuinely reduces the residual
        spec, ctx = quad_ctx
        u0 = Form((0, 0), {((), ()): bump_fn(1, R, poly="sin(2*x(1))")}, fam)
        f = do.dbar(u0)
        residuals = []
        for d in (4, 6, 8):
            prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=d,
                                   n=1, radius=R, quad=GH24)
            _, rep = sv.solve_min_norm(prob)
            residuals.append(rep.residual)
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert residuals[2] <= 1e-3

    def test_two_variable_solve_memory(self, fam):
        # n = 2, degree 3 at 8 nodes per axis: 8192 weighted rows, so a full
        # (rows x rows) factor alone would take 1 GiB; the thin solve stays small
        spec = gm.GaussianSpec(2)
        phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
        ctx = do.OperatorContext(spec, fam, phi, phi, phi, CylinderFn("0"))
        u0 = Form((0, 0), {((), ()): bump_fn(2, R, poly="x(1)+0.5*y(2)^2")}, fam)
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=do.dbar(u0), degree=3,
                               n=2, radius=R,
                               quad=gm.Quadrature("gauss_hermite", nodes_per_axis=8))
        tracemalloc.start()
        try:
            u, rep = sv.solve_min_norm(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20
        pts = np.random.default_rng(21).standard_normal((200, 4)) * 0.3
        ref = u0.coeff((), ())(pts)
        assert float(np.max(np.abs(u.coeff((), ())(pts) - ref))) <= 1e-9
        assert 0 < rep.rank <= rep.basis_dim

    def test_closedness_gate(self, fam):
        # in two variables a dzb_1 coefficient depending on zb_2 is not closed
        spec = gm.GaussianSpec(2)
        phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
        ctx = do.OperatorContext(spec, fam, phi, phi, phi, CylinderFn("0"))
        bad = Form((0, 1), {((), (1,)): bump_fn(2, R, poly="zb(2)")}, fam)
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=bad, n=2, radius=R)
        with pytest.raises(sv.ClosednessError):
            sv.solve_min_norm(prob)

    def test_closedness_gate_refuses_nan(self, fam):
        # inf - inf: dbar(f) is NaN at every audit point, which must not pass the gate
        spec = gm.GaussianSpec(2)
        phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
        ctx = do.OperatorContext(spec, fam, phi, phi, phi, CylinderFn("0"))
        u0 = Form((0, 0), {((), ()): CylinderFn("exp(800+x(1))*x(2) - exp(800+x(1))*x(2)")},
                  fam)
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=do.dbar(u0), n=1, radius=R)
        with np.errstate(all="ignore"), pytest.raises(sv.ClosednessError, match="nan"):
            sv.solve_min_norm(prob)

    def test_galerkin_adjoint_consistency(self, quad_ctx, fam):
        # matrix of T against the trial dictionary equals the conjugate
        # transpose of the matrix of the closed-form adjoint; the support
        # edge sits deep in the Gaussian tail so quadrature error is
        # negligible against the 1e-8 target
        spec, ctx = quad_ctx
        Rwide = 1.6
        dict_u = sv.scalar_dictionary(1, 3, Rwide, spec)
        # the trial functions and their x-derivatives, which bring in the bump's
        # first derivative: test forms the trial space itself does not span
        dict_f = dict_u + [ub.d_dx(1) for ub in dict_u]
        pts, w = gm.Quadrature("gauss_hermite", nodes_per_axis=48).nodes_weights(spec)
        ew1 = np.exp(-np.real(ctx.w1(pts)))
        ew2 = np.exp(-np.real(ctx.w2(pts)))
        B = np.zeros((len(dict_f), len(dict_u)), dtype=complex)
        Bstar = np.zeros((len(dict_u), len(dict_f)), dtype=complex)
        for b_idx, ub in enumerate(dict_u):
            Tu = do.dbar(Form((0, 0), {((), ()): ub}, fam))
            tv = Tu.coeff((), (1,))(pts)
            for a_idx, fa in enumerate(dict_f):
                B[a_idx, b_idx] = np.sum(w * tv * np.conjugate(fa(pts)) * ew2)
        for a_idx, fa in enumerate(dict_f):
            Tsf = do.Tstar(Form((0, 1), {((), (1,)): fa}, fam), ctx)
            sv_ = Tsf.coeff((), ())(pts)
            for b_idx, ub in enumerate(dict_u):
                Bstar[b_idx, a_idx] = np.sum(w * np.conjugate(sv_) * ub(pts) * ew1)
        # sesquilinear pairings conjugate one slot already, so the adjoint
        # relation reads B[a, b] = Bstar[b, a]
        assert float(np.max(np.abs(B - Bstar.T))) <= 1e-8


    def test_stacked_rows_equal_the_per_column_loop(self, fam):
        spec = gm.GaussianSpec(2)
        dict_u = sv.scalar_dictionary(2, 2, R, spec)
        slots = [((), (1,)), ((), (2,)), ((), (3,))]  # no image has a dzb_3 part
        images = [do.dbar(Form((0, 0), {((), ()): b}, fam)) for b in dict_u]
        pts, wq = gm.Quadrature("gauss_hermite", nodes_per_axis=4).nodes_weights(spec)
        w = CylinderFn("3*(x(1)^2+y(2)^2)")
        ball = support_mask(pts, R, 2)  # the trial ball: rows are zero off it
        assert 0 < np.count_nonzero(ball) < len(pts)
        ew = np.exp(-np.real(w(pts[ball])))
        M = len(pts)
        cols = []
        for img in images:
            col = np.zeros(M * len(slots), dtype=complex)
            for si, key in enumerate(slots):
                fn = img.coeffs.get(key)
                if fn is not None:
                    col[si * M:(si + 1) * M][ball] = \
                        fn(pts)[ball] * np.sqrt(fam.coeff(*key) * wq[ball] * ew)
            cols.append(col)
        assert np.array_equal(sv._stack_rows(images, slots, pts, wq, w, fam),
                              np.stack(cols, axis=1))


class TestDictionary:
    def test_degree_combo_order(self):
        assert list(sv._degree_combos(3, 2)) == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 2, 0),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
        # lexicographic, first slot slowest: the order that fixes the basis
        lex = [c for c in itertools.product(range(4), repeat=4) if sum(c) <= 3]
        assert list(sv._degree_combos(4, 3)) == lex

    def test_dictionary_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            sv.scalar_dictionary(2, 3, 0.8, gm.GaussianSpec(2))
            assert gc.collect() == 0
        finally:
            gc.enable()


def _solve(ctx, u0, fam, degree, n, quad):
    f = do.dbar(Form((0, 0), {((), ()): u0}, fam))
    return sv.solve_min_norm(sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f,
                                             degree=degree, n=n, radius=R, quad=quad))


def _cold(ctx, u0, fam, degree, n, quad):
    sv._galerkin_space.cache_clear()
    return _solve(ctx, u0, fam, degree, n, quad)


def _assert_same_bits(got, want, n):
    (u, rep), (u_ref, rep_ref) = got, want
    pts = np.random.default_rng(31).standard_normal((200, 2 * n)) * 0.3
    assert u.coeffs.keys() == u_ref.coeffs.keys()
    for key, fn in u.coeffs.items():
        assert fn(pts).tobytes() == u_ref.coeffs[key](pts).tobytes()
    assert repr(rep) == repr(rep_ref)  # every field, floats by their repr


def _ctx(fam, n):
    phi = CylinderFn("3*(" + "+".join(f"x({i})^2+y({i})^2" for i in range(1, n + 1)) + ")")
    return do.OperatorContext(gm.GaussianSpec(n), fam, phi, phi, phi, CylinderFn("0"))


GH6 = gm.Quadrature("gauss_hermite", nodes_per_axis=6)


class TestSpaceCache:
    @pytest.mark.parametrize("n, degree, quad, polys", [
        (1, 8, GH24, ("x(1)", "y(1)^2-0.5*x(1)")),
        (2, 3, GH6, ("x(1)+0.5*y(2)^2", "y(1)-x(2)^2"))], ids=["n1", "n2"])
    def test_warm_solve_equals_cold(self, fam, n, degree, quad, polys):
        ctx = _ctx(fam, n)
        first, second = (bump_fn(n, R, poly=p) for p in polys)
        sv._galerkin_space.cache_clear()
        _solve(ctx, first, fam, degree, n, quad)
        warm = _solve(ctx, second, fam, degree, n, quad)
        info = sv._galerkin_space.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        _assert_same_bits(warm, _cold(ctx, second, fam, degree, n, quad), n)

    def test_audit_points_are_drawn_once(self, fam, monkeypatch):
        # the closedness gate reads its 200 audit points from the Monte Carlo cache
        calls = []
        sample = gm.sample

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return sample(*args, **kwargs)
        monkeypatch.setattr(gm, "sample", counting)
        monkeypatch.setattr(sv, "sample", counting, raising=False)
        gm._mc_nodes_weights.cache_clear()
        ctx = _ctx(fam, 1)
        for poly in ("x(1)", "y(1)^2-0.5*x(1)"):
            _solve(ctx, bump_fn(1, R, poly=poly), fam, 8, 1, GH24)
        assert calls == [(200, 20_202)]

    def test_other_space_misses(self, fam):
        ctx = _ctx(fam, 1)
        u0 = bump_fn(1, R, poly="x(1)")
        phi = CylinderFn("3*(x(1)^2+y(1)^2)")  # same expression, another w1 object
        fam2 = constant_family(2.0)
        variants = [(do.OperatorContext(ctx.spec, fam, phi, ctx.w2, ctx.w3, ctx.varphi),
                     fam, 8, GH24),
                    (ctx, fam, 6, GH24),
                    (ctx, fam, 8, gm.Quadrature("gauss_hermite", nodes_per_axis=20)),
                    (ctx, fam2, 8, GH24)]
        for c, fm, degree, quad in variants:
            sv._galerkin_space.cache_clear()
            _solve(ctx, u0, fam, 8, 1, GH24)
            got = _solve(c, u0, fm, degree, 1, quad)
            assert sv._galerkin_space.cache_info().misses == 2
            _assert_same_bits(got, _cold(c, u0, fm, degree, 1, quad), 1)

    def test_cached_arrays_are_read_only(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        f = manufactured[1]
        sv._galerkin_space.cache_clear()
        sv.solve_min_norm(sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                                          n=1, radius=R, quad=GH24))
        entry = sv._galerkin_space(ctx.w1, ctx.w2, spec, fam, 1, 8, R, GH24, 0, 1,
                                   tuple(f.coeffs))
        assert sv._galerkin_space.cache_info().hits == 1
        arrays = [a for a in entry if isinstance(a, np.ndarray)]
        assert len(arrays) == 8  # nodes, weights, E, D, W, U, sv, Vh
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0

    def test_size_stays_within_maxsize(self, fam):
        ctx = _ctx(fam, 1)
        u0 = bump_fn(1, R, poly="x(1)")
        quad = gm.Quadrature("gauss_hermite", nodes_per_axis=8)
        sv._galerkin_space.cache_clear()
        for degree in range(1, 8):
            _solve(ctx, u0, fam, degree, 1, quad)
            info = sv._galerkin_space.cache_info()
            assert info.currsize <= info.maxsize
        assert info.currsize == info.maxsize < 7


class TestKeyInequality:
    def test_zero_form(self, fam):
        spec = gm.GaussianSpec(2)
        tri, dom, _ = wt.recipe_weights_whole_space(spec)
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        pts = dom.sample_sublevel(2, 2.0, 100, 1)
        out = sv.key_inequality_check(Form((0, 1), {}, fam), ctx,
                                      gm.Quadrature("monte_carlo", N=5000, seed=2),
                                      tri, dom, pts)
        assert out.lhs == 0.0 and out.rhs == 0.0

    def test_random_forms_pass(self, fam):
        spec = gm.GaussianSpec(2)
        tri, dom, _ = wt.recipe_weights_whole_space(spec)
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        pts = dom.sample_sublevel(2, 2.0, 200, 3)
        quad = gm.Quadrature("monte_carlo", N=20_000, seed=4)
        rng = np.random.default_rng(5)
        for deg in ((0, 1), (1, 1)):
            for _ in range(3):
                f = random_form(rng, deg, 2, 0.6, fam)
                out = sv.key_inequality_check(f, ctx, quad, tri, dom, pts)
                assert out.passed
                assert out.margin >= -3 * out.stderr

    def test_refuses_broken_weights(self, fam):
        spec = gm.GaussianSpec(2)
        zero = CylinderFn("0")
        tri = wt.weight_triple(zero, zero)
        dom = dm.whole_space()
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        pts = dom.sample_sublevel(2, 2.0, 50, 6)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.6)}, fam)
        out = sv.key_inequality_check(f, ctx,
                                      gm.Quadrature("monte_carlo", N=5000, seed=7),
                                      tri, dom, pts)
        assert out.passed is None
        assert "curvature" in out.reason

    def test_c0_is_one_truncation_for_every_check(self):
        # c0 = inf mu(j) over the indices the conditions enumerate, so it
        # depends on the range: the key inequality and the bound audits read it
        # at max(n, max index of f, s+t+1) + 2 = 4, as the solve does
        fam = multiplicative_family(lambda j: 1.0 + 1.0 / j)
        spec = gm.GaussianSpec(2)
        tri, dom, _ = wt.recipe_weights_whole_space(spec)
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        f = Form((0, 1), {((), (2,)): bump_fn(2, 0.6, poly="x(2)")}, fam)
        quad = gm.Quadrature("gauss_hermite", nodes_per_axis=6)
        out = sv.key_inequality_check(f, ctx, quad, tri, dom, dom.sample_sublevel(2, 2.0, 100, 1))
        assert out.passed is not None
        assert out.rhs == pytest.approx(1.25 * norm_sq(f, ctx.w2, spec, quad).mean.real, rel=1e-12)
        assert sv._bound_c0(f, ctx, gm.sample(spec, 10, 1), -np.inf) == 1.25

    def test_unimodular_invariance(self, fam):
        spec = gm.GaussianSpec(1)
        tri, dom, _ = wt.recipe_weights_whole_space(spec)
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        pts = dom.sample_sublevel(1, 2.0, 100, 8)
        quad = gm.Quadrature("gauss_hermite", nodes_per_axis=20)
        f = Form((0, 1), {((), (1,)): bump_fn(1, 0.6, poly="x(1)")}, fam)
        out1 = sv.key_inequality_check(f, ctx, quad, tri, dom, pts)
        out2 = sv.key_inequality_check(f.scale(np.exp(1j * 0.7)), ctx, quad,
                                       tri, dom, pts)
        assert out1.margin == pytest.approx(out2.margin, rel=1e-12)


    def test_shared_evaluation_peak_is_no_higher(self, fam, monkeypatch):
        """One memo for all coefficients, values dropped after their last use,
        against one root per coefficient and per weight: the shared peak stays
        within twice that (1.67 times measured, numpy 2.4.6).  The priming call
        fills forms' value memo, so it is emptied before each measured call,
        which then evaluates cold (with the memo's hits it read 1.13)."""
        from dbarl2.symfun import eval_expr
        spec = gm.GaussianSpec(2)
        tri, dom, _ = wt.recipe_weights_whole_space(spec)
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        pts = dom.sample_sublevel(2, 2.0, 100, 9)
        quad = gm.Quadrature("monte_carlo", N=20_000, seed=10)
        f = random_form(np.random.default_rng(11), (1, 1), 2, 0.6, fam)

        def per_coefficient(parts, qpts):
            outs = []
            for form, w_fn in parts:
                total = np.zeros(len(qpts))
                for (I, J), fn in form.coeffs.items():
                    total += form.family.coeff(I, J) * np.abs(eval_expr(fn.expr, qpts)) ** 2
                radius = support_radius_in([fn.expr for fn in form.coeffs.values()],
                                           form.max_dim())
                mask = support_mask(qpts, radius, form.max_dim())
                out = np.zeros_like(total)
                out[mask] = total[mask] * np.exp(-np.real(eval_expr(w_fn.expr,
                                                                    qpts[mask])))
                outs.append(out)
            return outs

        def traced():
            sv.key_inequality_check(f, ctx, quad, tri, dom, pts)
            fm._memo.pts, fm._memo.balls = None, {}  # a cold evaluation, not the memo's
            gc.collect()
            tracemalloc.start()
            try:
                out = sv.key_inequality_check(f, ctx, quad, tri, dom, pts)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        shared, out = traced()
        monkeypatch.setattr(sv, "_weighted_sq_vals", per_coefficient)
        alone, ref = traced()
        assert shared <= 2 * alone, (shared / 2 ** 20, alone / 2 ** 20)
        assert (out.lhs, out.rhs, out.margin, out.stderr) == \
            (ref.lhs, ref.rhs, ref.margin, ref.stderr)


class TestBoundedDomainWeights:
    """phi = -2 log(1 - |z|^2) is defined only in the unit disc; f and the trial
    space live in the disc of radius 0.5, where every weight is evaluated."""

    @pytest.fixture(scope="class")
    def disc(self, fam):
        spec = gm.GaussianSpec(1)
        tri = wt.weight_triple(CylinderFn("-2*log(1-(x(1)^2+y(1)^2))"), CylinderFn("0"))
        ctx = do.OperatorContext(spec, fam, tri.w1, tri.w2, tri.w3, tri.phi)
        f = do.dbar(Form((0, 0), {((), ()): bump_fn(1, 0.5, poly="x(1)")}, fam))
        assert f.coeff((), (1,)).support_radius == 0.5
        return ctx, tri, f

    def test_solve_returns_a_record(self, disc):
        ctx, _, f = disc
        _, rep = sv.solve_min_norm(sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f,
                                                   degree=8, n=1, radius=0.5, quad=GH24))
        assert rep.bound.passed is not None and rep.residual <= 1e-6

    def test_key_inequality_returns_a_record(self, disc):
        ctx, tri, f = disc
        dom = dm.ball(r=1.0)
        out = sv.key_inequality_check(f, ctx, GH24, tri, dom,
                                      dom.sample_sublevel(1, 1.0, 200, 41))
        assert out.passed is not None and out.margin > 0


class TestBoundChecks:
    def test_weighted_bound_end_to_end(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                               n=1, radius=R, quad=GH24)
        u, _ = sv.solve_min_norm(prob)
        levi_pts = gm.sample(spec, 50, 9)
        out = sv.weighted_bound_check(u, f, ctx, CylinderFn("3"), GH24, levi_pts)
        assert out.passed

    def test_c_scaling_is_exact(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        levi_pts = gm.sample(spec, 50, 10)
        rhs = {}
        for kappa in (1.0, 2.0, 3.0):
            out = sv.weighted_bound_check(u0, f, ctx, CylinderFn(f"{kappa}"),
                                          GH24, levi_pts)
            rhs[kappa] = out.rhs
        assert rhs[1.0] == pytest.approx(2.0 * rhs[2.0], rel=1e-12)
        assert rhs[1.0] == pytest.approx(3.0 * rhs[3.0], rel=1e-12)

    def test_levi_gate_refuses(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        levi_pts = gm.sample(spec, 50, 11)
        out = sv.weighted_bound_check(u0, f, ctx, CylinderFn("100"), GH24, levi_pts)
        assert out.passed is None

    def test_hormander_bounded_variant(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                               n=1, radius=R, quad=GH24)
        u, _ = sv.solve_min_norm(prob)
        levi_pts = gm.sample(spec, 50, 12)
        out = sv.hormander_bound_check(u, f, ctx, GH24, levi_pts, sup_norm_sq=1.0)
        assert out.passed
        out2 = sv.hormander_bound_check(u, f, ctx, GH24, levi_pts)
        assert out2.passed

    def test_scaled_solution_fails(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        levi_pts = gm.sample(spec, 50, 13)
        out = sv.hormander_bound_check(u0.scale(10.0), f, ctx, GH24, levi_pts,
                                       sup_norm_sq=1.0)
        assert out.passed is False


def _bound_reference(u, f, ctx, quad, c_fn=None, sup_norm_sq=None):
    """(lhs, rhs, margin, stderr) of a bound audit from per-coefficient loops:
    the weighted bound when c_fn is given, else the (1 + |z|^2)^-2 bound, or
    its bounded-domain form when sup_norm_sq is given."""
    pts, wq = quad.nodes_weights(ctx.spec)
    ephi = np.exp(-np.real(ctx.w3(pts)))
    u_vals = np.zeros(pts.shape[0])
    for (I, L), fn in u.coeffs.items():
        u_vals += u.family.coeff(I, L) * np.abs(fn(pts)) ** 2
    f_vals = np.zeros(pts.shape[0])
    for (I, J), fn in f.coeffs.items():
        f_vals += f.family.coeff(I, J) * np.abs(fn(pts)) ** 2
    s, tp1 = f.degree
    c0 = check_conditions(f.family, max_index=max(f.max_index(), s + tp1) + 2,
                          s=s, t=tp1 - 1).c0_inf
    if c_fn is not None:
        lhs_vals = u_vals * ephi
        rhs_vals = 2.0 * f_vals / np.real(c_fn(pts)) * ephi / (c0 * tp1)
    else:
        rhs_vals = f_vals * ephi / (c0 * tp1)
        if sup_norm_sq is not None:
            lhs_vals = u_vals * ephi
            rhs_vals = (1.0 + sup_norm_sq) ** 2 * rhs_vals
        else:
            lhs_vals = u_vals * ephi / (1.0 + np.sum(pts ** 2, axis=1)) ** 2
    diff = rhs_vals - lhs_vals
    se = 0.0 if quad.deterministic else float(np.std(diff) / np.sqrt(len(diff)))
    return float(np.sum(wq * lhs_vals)), float(np.sum(wq * rhs_vals)), \
        float(np.sum(wq * diff)), se


class TestFoldedBoundAudits:
    """Both bound audits take their integrands from one shared evaluation; they
    equal the per-coefficient loops."""

    MC = gm.Quadrature("monte_carlo", N=20_000, seed=5)

    def _cases(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        yield ctx, u0, f, gm.sample(spec, 50, 9)
        spec2 = gm.GaussianSpec(2)
        phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
        ctx2 = do.OperatorContext(spec2, fam, phi, phi, phi, CylinderFn("0"))
        rng = np.random.default_rng(31)
        yield (ctx2, random_form(rng, (0, 1), 2, 0.8, fam),
               random_form(rng, (0, 2), 2, 0.8, fam), gm.sample(spec2, 50, 9))

    @pytest.mark.parametrize("quad", [GH24, MC], ids=["gh24", "mc"])
    def test_equal_the_per_coefficient_loop(self, quad, quad_ctx, manufactured, fam):
        for ctx, u, f, levi in self._cases(quad_ctx, manufactured, fam):
            if quad.deterministic and ctx.spec.trunc_dim > 1:
                quad = gm.Quadrature("gauss_hermite", nodes_per_axis=10)
            c = CylinderFn("2+x(1)^2")
            outs = [(sv.weighted_bound_check(u, f, ctx, c, quad, levi),
                     _bound_reference(u, f, ctx, quad, c_fn=c))]
            for sup_norm_sq in (None, 0.7):
                outs.append((sv.hormander_bound_check(u, f, ctx, quad, levi,
                                                      sup_norm_sq=sup_norm_sq),
                             _bound_reference(u, f, ctx, quad, sup_norm_sq=sup_norm_sq)))
            for out, (lhs, rhs, margin, se) in outs:
                assert out.passed is not None
                assert out.lhs == pytest.approx(lhs, rel=1e-12)
                assert out.rhs == pytest.approx(rhs, rel=1e-12)
                assert out.margin == pytest.approx(margin, rel=1e-12, abs=1e-12 * rhs)
                assert out.stderr == pytest.approx(se, rel=1e-12)
                assert (se == 0.0) == quad.deterministic


class TestCauchyOracle:
    def test_validation_and_norm_comparison(self, quad_ctx, manufactured, fam):
        spec, ctx = quad_ctx
        u0, f = manufactured
        f1 = f.coeff((), (1,))
        oracle = sv.CauchyOracle(f1=f1)
        assert oracle.dbar_residual_on_grid(extent=0.7, res=7) <= 1e-4
        prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8,
                               n=1, radius=R, quad=GH24)
        u, rep = sv.solve_min_norm(prob)
        pts, w = GH24.nodes_weights(spec)
        w1v = np.exp(-np.real(ctx.w1(pts)))
        norm_uc = float(np.sqrt(np.sum(w * np.abs(oracle(pts)) ** 2 * w1v)))
        assert rep.norm_u_w1 <= norm_uc * (1 + 1e-3)

    @pytest.mark.parametrize("poly", ["x(1)", "x(1)+0.5*y(1)^2"])
    def test_exact_transform_at_every_point(self, poly, quad_ctx, fam):
        # criterion 10's problems: f = dbar u0 with u0 compactly supported, so
        # the transform of f is u0 itself, inside the support disc and beyond it
        u0 = bump_fn(1, R, poly=poly)
        oracle = sv.CauchyOracle(f1=do.dbar(Form((0, 0), {((), ()): u0}, fam)).coeff((), (1,)))
        sup = float(np.max(np.abs(u0(gm._mesh(np.linspace(-R, R, 401), 2)))))
        near = np.random.default_rng(11).uniform(-0.7, 0.7, (200, 2))
        for pts in (near, FAR_POINTS, GH24.nodes_weights(quad_ctx[0])[0]):
            assert np.max(np.abs(oracle(pts) - u0(pts))) <= 1e-9 * sup

    def test_batch_equals_per_point_calls(self, manufactured):
        oracle = sv.CauchyOracle(f1=manufactured[1].coeff((), (1,)))
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.uniform(-0.7, 0.7, (6, 2)), FAR_POINTS,
                              [[0.0, 0.0], [R, 0.0], [0.0, -R], [5.0, 0.0]]])
        got = oracle(pts)
        assert np.array_equal(got, [oracle(p[None])[0] for p in pts])
        assert np.array_equal(oracle(pts[::-1]), got[::-1])

    def test_a_large_call_holds_one_group_at_a_time(self, manufactured):
        # 1,000 points inside the disc: one evaluation of all their 12,288,000
        # nodes would trace about 1 GB (200 points: 171 MiB); groups of
        # _ORACLE_GROUP points trace 6.9 MiB
        oracle = sv.CauchyOracle(f1=manufactured[1].coeff((), (1,)))
        pts = np.random.default_rng(14).uniform(-0.5, 0.5, (1000, 2))
        oracle(pts[:1])  # the tape is compiled outside the traced call
        tracemalloc.start()
        try:
            got = oracle(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert np.array_equal(got, [oracle(p[None])[0] for p in pts])

    def test_far_field_moments_of_a_dbar_vanish(self, manufactured):
        # beyond R, u(z) = 2 sum_k m_k z^-(k+1) with m_k/R^(k+1) = int f (zeta/R)^k dA / (2 pi R):
        # on the circle |z| = 1.25 R the modes of u give the moments, which are 0
        # for f = dbar u0 with u0 compactly supported, and not for (1 + x1) bump
        rad, nt = 1.25 * R, 64
        th = np.arange(nt) * (2 * np.pi / nt)
        circle = rad * np.stack([np.cos(th), np.sin(th)], axis=1)
        k = np.arange(sv._ORACLE_NT // 2)

        def moments(f1):
            modes = np.fft.fft(sv.CauchyOracle(f1=f1)(circle)) / nt
            return 0.5 * modes[-(k + 1)] * (rad / R) ** (k + 1)
        assert np.max(np.abs(moments(manufactured[1].coeff((), (1,))))) <= 1e-12
        assert np.max(np.abs(moments(bump_fn(1, R, poly="1+x(1)")))) >= 1e-2

    def test_nested_counts_agree(self, monkeypatch):
        # f = (1 + x1) bump has no compactly supported primitive: the transform
        # is known only through the rule, at counts m and 2m
        oracle = sv.CauchyOracle(f1=bump_fn(1, R, poly="1+x(1)"))
        pts = np.concatenate([np.random.default_rng(13).uniform(-0.7, 0.7, (40, 2)), FAR_POINTS])
        got = oracle(pts)
        monkeypatch.setattr(sv, "_ORACLE_NR", 2 * sv._ORACLE_NR)
        monkeypatch.setattr(sv, "_ORACLE_NT", 2 * sv._ORACLE_NT)
        ref = oracle(pts)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_integrand_sees_only_live_nodes(self, manufactured):
        # one call of the integrand per call of the oracle, on nodes inside the
        # support disc: one set of radii shared by the points beyond R, two per point inside
        f1 = manufactured[1].coeff((), (1,))
        rng = np.random.default_rng(10)
        for pts, rows in ((rng.uniform(-0.7, 0.7, (1, 2)), 2), (FAR_POINTS[:1], 1),
                          (np.concatenate([rng.uniform(-0.7, 0.7, (3, 2)), FAR_POINTS]), 7)):
            g = InsideSupport(f1)
            sv.CauchyOracle(f1=as_leaf(g))(pts)
            assert g.calls == 1 and g.points == rows * sv._ORACLE_NR * sv._ORACLE_NT

    def test_integrand_is_compiled_once_per_call(self, manufactured, monkeypatch):
        f1 = CylinderFn(manufactured[1].coeff((), (1,)).expr)  # never called yet
        oracle = sv.CauchyOracle(f1=f1)
        pts = np.array([[0.1, -0.2], [0.3, 0.25], [1.5, 1.0]])
        compiled, runs = compiles_and_runs(monkeypatch)
        got = oracle(pts)
        assert np.array_equal(oracle(pts), got)
        monkeypatch.undo()
        # one run per call, one tape: the function keeps its own
        assert len(runs) == 2 and compiled == [f1.expr]
        for nodes, vals in runs:
            assert np.array_equal(vals, f1(nodes))

    def test_nonfinite_point_propagates(self, manufactured):
        # a non-finite point gives NaN, reaches no integrand, and leaves the other points as they are
        f1 = manufactured[1].coeff((), (1,))
        oracle = sv.CauchyOracle(f1=as_leaf(InsideSupport(f1)))
        got = oracle(np.array([[np.nan, 0.0], [np.inf, 0.0], [0.1, 0.2], [2.0, -np.inf]]))
        assert np.isnan(got[[0, 1, 3]]).all()
        assert np.array_equal(got[2:3], oracle(np.array([[0.1, 0.2]])))

    def test_constant_scalar_integrand(self):
        # a function with no derived disc in C^1 is refused, naming it: a constant,
        # a logarithm, and a bump over C^2
        for f1 in (as_leaf(ScalarTwo(1)), CylinderFn("log(x(1))"), CylinderFn("2"),
                   bump_fn(2, R)):
            with pytest.raises(ValueError, match="none is derived for"):
                sv.CauchyOracle(f1=f1)
        with pytest.raises(ValueError, match="ScalarTwo"):
            sv.CauchyOracle(f1=as_leaf(ScalarTwo(1)))

    def test_reach_is_a_checked_claim(self, manufactured):
        f1 = manufactured[1].coeff((), (1,))
        for reach in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="reach"):
                sv.CauchyOracle(f1=f1, reach=reach)
        pts = np.concatenate([[[0.1, 0.2]], FAR_POINTS])
        assert np.array_equal(sv.CauchyOracle(f1=f1, reach=0.5)(pts), sv.CauchyOracle(f1=f1)(pts))

    def test_eval_error_propagates(self):
        oracle = sv.CauchyOracle(f1=bump_fn(1, R, poly="log(x(1))"))
        with pytest.raises(EvalError):
            oracle(np.zeros((1, 2)))

    def test_legendre_rule_built_once(self):
        nodes, weights = sv._leggauss(64)
        ref = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(nodes, ref[0]) and np.array_equal(weights, ref[1])
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert sv._leggauss(64)[0] is nodes


class InsideSupport(CountingFn):
    """Counts calls and points, and fails on a point outside the support disc."""

    def __init__(self, f):
        super().__init__(f)
        self.points = 0

    def __call__(self, pts):
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= gm.support_rsq(self.support_radius))
        self.points += len(pts)
        return super().__call__(pts)
