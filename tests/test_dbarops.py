import numpy as np

from dbarl2 import dbarops as do
from dbarl2 import gaussmeasure as gm
from dbarl2.dbarops import OperatorContext, Tstar, dbar
from dbarl2.forms import Form
from dbarl2.multiindex import multiplicative_family
from dbarl2.symfun import CylinderFn, eval_expr

from conftest import bump_fn, random_form


def make_ctx(spec, fam, w1="0", w2="0", w3="0", varphi="0"):
    return OperatorContext(spec, fam, CylinderFn(w1), CylinderFn(w2),
                           CylinderFn(w3), CylinderFn(varphi))


class TestDbar:
    def test_holomorphic_function(self, spec2, fam):
        f = Form((0, 0), {((), ()): CylinderFn("z(1)^2")}, fam)
        df = dbar(f)
        pts = gm.sample(spec2, 50, 0)
        for fn in df.coeffs.values():
            assert np.max(np.abs(fn(pts))) <= 1e-14

    def test_antiholomorphic_coordinate(self, spec2, fam):
        f = Form((0, 0), {((), ()): CylinderFn("zb(1)")}, fam)
        df = dbar(f)
        pts = gm.sample(spec2, 20, 1)
        np.testing.assert_allclose(df.coeff((), (1,))(pts), 1.0)

    def test_sign_example(self, spec2, fam):
        f = Form((0, 1), {((), (1,)): CylinderFn("zb(2)")}, fam)
        df = dbar(f)
        pts = gm.sample(spec2, 20, 2)
        np.testing.assert_allclose(df.coeff((), (1, 2))(pts), -1.0)

    def test_s_degree_sign(self, spec2, fam):
        f = Form((1, 0), {((1,), ()): CylinderFn("zb(2)")}, fam)
        df = dbar(f)
        pts = gm.sample(spec2, 20, 3)
        # (-1)^s with s = 1 flips the coefficient sign
        np.testing.assert_allclose(df.coeff((1,), (2,))(pts), -1.0)

    def test_complex_property(self, spec2, fam):
        rng = np.random.default_rng(11)
        pts = gm.sample(spec2, 100, 4)
        for deg in ((0, 0), (0, 1), (1, 0)):
            for _ in range(5):
                u = random_form(rng, deg, 2, 0.8, fam)
                assert do.st_complex_residual(u, pts) <= 1e-10


class TestTstar:
    def test_plain_delta(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        g = bump_fn(1, 0.9, poly="x(1)")
        f = Form((0, 1), {((), (1,)): g}, fam)
        ts = Tstar(f, ctx)
        pts = gm.sample(spec2, 40, 5)
        from dbarl2.symfun import delta_op
        expect = -delta_op(g, 1, spec2.a(1))(pts)
        np.testing.assert_allclose(ts.coeff((), ())(pts), expect, atol=1e-14)

    def test_constant_coefficient(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        f = Form((0, 1), {((), (1,)): CylinderFn("1")}, fam)
        ts = Tstar(f, ctx)
        pts = gm.sample(spec2, 40, 6)
        expect = (pts[:, 0] - 1j * pts[:, 1]) / (2 * spec2.a(1) ** 2)
        np.testing.assert_allclose(ts.coeff((), ())(pts), expect, atol=1e-14)

    def test_weight_derivative_term(self, spec2, fam):
        # with w1 = w2 = x1 the gauge drops out and the d_1 w2 = 1/2 term stays
        ctx = make_ctx(spec2, fam, w1="x(1)", w2="x(1)")
        f = Form((0, 1), {((), (1,)): CylinderFn("1")}, fam)
        ts = Tstar(f, ctx)
        pts = gm.sample(spec2, 40, 7)
        expect = (pts[:, 0] - 1j * pts[:, 1]) / (2 * spec2.a(1) ** 2) + 0.5
        np.testing.assert_allclose(ts.coeff((), ())(pts), expect, atol=1e-14)

    def test_gauge_factor(self, spec2, fam):
        ctx = make_ctx(spec2, fam, w1="0", w2="x(1)")
        f = Form((0, 1), {((), (1,)): CylinderFn("1")}, fam)
        ts = Tstar(f, ctx)
        pts = gm.sample(spec2, 40, 8)
        gauge = np.exp(-pts[:, 0])
        expect = gauge * ((pts[:, 0] - 1j * pts[:, 1]) / (2 * spec2.a(1) ** 2) + 0.5)
        np.testing.assert_allclose(ts.coeff((), ())(pts), expect, atol=1e-13)

    def test_contraction_reads_the_family_at_J_over_L(self, spec3, fam):
        # the term contracting i out of J carries c[I, J] / c[I, J without i]
        mult = multiplicative_family(mu=lambda j: 1.0 + 1.0 / j)
        weights = dict(w1="x(1)^2", w2="0.5*(x(1)^2+y(3)^2)")
        coeffs = {((2,), (1, 3)): bump_fn(3, 0.9, poly="x(1)+y(3)"),
                  ((1,), (2, 3)): bump_fn(3, 0.9, poly="y(2)-0.5")}
        plain = Tstar(Form((1, 2), coeffs, fam), make_ctx(spec3, fam, **weights))
        weighted = Tstar(Form((1, 2), coeffs, mult), make_ctx(spec3, mult, **weights))
        pts = gm.sample(spec3, 40, 9)
        assert set(weighted.coeffs) == set(plain.coeffs)
        for (I, L), fn in plain.coeffs.items():
            J = next(J for (I2, J) in coeffs if I2 == I)
            ratio = mult.coeff(I, J) / mult.coeff(I, L)
            np.testing.assert_allclose(weighted.coeffs[(I, L)](pts), ratio * fn(pts),
                                       rtol=1e-13, atol=0)

    def test_support_preserved(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.5)}, fam)
        rng = np.random.default_rng(13)
        out = rng.normal(size=(500, 4))
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        out *= 0.5 + 1.5 * rng.random((500, 1))
        leak = lambda form: do.max_abs(eval_expr([fn.expr for fn in form.coeffs.values()], out))
        assert leak(Tstar(f, ctx)) <= 1e-12
        assert leak(dbar(f)) <= 1e-12


class TestAdjoint:
    def test_zero_cases(self, spec1, fam):
        ctx = make_ctx(spec1, fam)
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=16)
        z = Form((0, 0), {}, fam)
        f = Form((0, 1), {((), (1,)): bump_fn(1, 0.8)}, fam)
        est = do.adjoint_residual(z, f, ctx, q)
        assert abs(est.mean) == 0.0

    def test_deterministic_small(self, spec1, fam):
        ctx = make_ctx(spec1, fam, w1="x(1)^2", w2="x(1)^2+0.5*y(1)^2")
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=48)
        u = Form((0, 0), {((), ()): bump_fn(1, 1.6, poly="x(1)+0.3*y(1)")}, fam)
        f = Form((0, 1), {((), (1,)): bump_fn(1, 1.6, poly="y(1)^2-0.2")}, fam)
        est = do.adjoint_residual(u, f, ctx, q)
        assert abs(est.mean) <= 1e-8

    def test_mc_pairs(self, spec2, fam):
        rng = np.random.default_rng(17)
        ctx = make_ctx(spec2, fam, w1="x(1)^2", w2="0.5*(x(1)^2+y(2)^2)")
        q = gm.Quadrature("monte_carlo", N=40_000, seed=31)
        for deg in ((0, 0), (0, 1), (1, 0)):
            u = random_form(rng, deg, 2, 0.8, fam)
            f = random_form(rng, (deg[0], deg[1] + 1), 2, 0.8, fam)
            est = do.adjoint_residual(u, f, ctx, q)
            assert abs(est.mean) <= 3 * est.stderr + 1e-12


class TestIbp:
    def test_constant_f(self, spec2, fam):
        q = gm.Quadrature("monte_carlo", N=40_000, seed=32)
        f = CylinderFn("1")
        g = bump_fn(2, 0.8, poly="x(2)")
        est = do.ibp_residual(f, g, 1, spec2, q)
        assert abs(est.mean) <= 3 * est.stderr + 1e-12

    def test_deterministic(self, spec1, fam):
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=48)
        f = bump_fn(1, 1.6, poly="x(1)")
        g = bump_fn(1, 1.6, poly="y(1)")
        est = do.ibp_residual(f, g, 1, spec1, q)
        assert abs(est.mean) <= 1e-8

    def test_sigma_equals_delta_when_varphi_zero(self, spec1, fam):
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=24)
        f = bump_fn(1, 1.2, poly="x(1)")
        g = bump_fn(1, 1.2, poly="y(1)^2")
        a = do.ibp_residual(f, g, 1, spec1, q)
        b = do.ibp_residual(f, g, 1, spec1, q, weighted=True, varphi=CylinderFn("0"))
        assert est_equal(a.mean, b.mean)

    def test_weighted_variant(self, spec1, fam):
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=48)
        f = bump_fn(1, 1.6, poly="x(1)")
        g = bump_fn(1, 1.6, poly="x(1)*y(1)")
        est = do.ibp_residual(f, g, 1, spec1, q, weighted=True,
                              varphi=CylinderFn("x(1)^2"))
        assert abs(est.mean) <= 1e-8


def est_equal(a, b):
    return abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b))


class TestCommutator:
    def test_constant_h_quadratic_phi(self, spec2, fam):
        ctx = make_ctx(spec2, fam, varphi="x(1)^2+y(2)^2")
        pts = gm.sample(spec2, 100, 33)
        assert do.commutator_residual(CylinderFn("1"), 1, 1, ctx, pts) <= 1e-12

    def test_cross_terms_vanish(self, spec3, fam):
        ctx = make_ctx(spec3, fam, varphi="x(3)^2")
        pts = gm.sample(spec3, 100, 34)
        assert do.commutator_residual(CylinderFn("x(1)*y(2)"), 1, 2, ctx, pts) <= 1e-12

    def test_mixed_fixture(self, spec2, fam):
        ctx = make_ctx(spec2, fam, varphi="x(1)^2")
        pts = gm.sample(spec2, 100, 35)
        assert do.commutator_residual(CylinderFn("z(1)*zb(2)"), 1, 1, ctx, pts) <= 1e-10


class TestWeakDbar:
    def test_exact_pair(self, spec2, fam):
        q = gm.Quadrature("monte_carlo", N=30_000, seed=36)
        f = Form((0, 0), {((), ()): bump_fn(2, 0.8, poly="x(1)")}, fam)
        g = dbar(f)
        test = bump_fn(2, 1.0, poly="y(2)")
        for K in ((1,), (2,)):
            est = do.weak_dbar_residual(f, g, test, (), K, spec2, q)
            assert abs(est.mean) <= 3 * est.stderr + 1e-12

    def test_zero_f(self, spec2, fam):
        q = gm.Quadrature("monte_carlo", N=10_000, seed=37)
        f = Form((0, 0), {}, fam)
        g = Form((0, 1), {}, fam)
        est = do.weak_dbar_residual(f, g, bump_fn(2, 0.8), (), (1,), spec2, q)
        assert est.mean == 0.0

    def test_detects_wrong_candidate(self, spec2, fam):
        q = gm.Quadrature("monte_carlo", N=30_000, seed=38)
        f = Form((0, 0), {((), ()): bump_fn(2, 0.8, poly="x(1)")}, fam)
        g = dbar(f)
        # deliberately wrong candidate: add a bump to the dzb_1 slot
        bad = g + Form((0, 1), {((), (1,)): bump_fn(2, 0.8)}, fam)
        test = bump_fn(2, 0.8)
        est = do.weak_dbar_residual(f, bad, test, (), (1,), spec2, q)
        assert abs(est.mean) > 5 * est.stderr


class TestMultiplier:
    def test_constant_multiplier(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.8, poly="y(1)")}, fam)
        pts = gm.sample(spec2, 100, 39)
        assert do.multiplier_residual(CylinderFn("2"), f, ctx, pts) <= 1e-12

    def test_coordinate_multiplier(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        f = Form((0, 1), {((), (2,)): bump_fn(2, 0.8, poly="x(2)")}, fam)
        pts = gm.sample(spec2, 100, 40)
        assert do.multiplier_residual(CylinderFn("x(1)"), f, ctx, pts) <= 1e-10

    def test_zero_form(self, spec2, fam):
        ctx = make_ctx(spec2, fam)
        f = Form((0, 1), {}, fam)
        pts = gm.sample(spec2, 50, 41)
        assert do.multiplier_residual(CylinderFn("x(1)"), f, ctx, pts) == 0.0


class TestMaxAbs:
    def test_values(self):
        assert do.max_abs([]) == 0.0
        assert do.max_abs([np.array([]), np.zeros(0, dtype=complex)]) == 0.0
        assert do.max_abs([np.array([1.0, -3j]), np.array([2.0])]) == 3.0

    def test_nan_propagates(self, spec2, fam):
        assert np.isnan(do.max_abs([np.zeros(3), np.array([1.0, np.nan])]))
        # exp(800 x1) overflows at x1 = 1: inf - inf is NaN there
        c = "exp(800*x(1))*x({}) - exp(800*x(1))*x({})"
        with np.errstate(all="ignore"):
            # dbar(dbar u) needs a (0, 0)-form in two variables to have a coefficient
            u2 = Form((0, 0), {((), ()): CylinderFn(c.format(2, 2))}, fam)
            pts = np.array([[1.0, 0.0, 0.5, 0.0]])
            assert np.isnan(do.st_complex_residual(u2, pts))
            ctx = make_ctx(spec2, fam, varphi="x(1)^2")
            assert np.isnan(do.commutator_residual(CylinderFn(c.format(2, 2)), 1, 1, ctx, pts))

    def test_residuals_equal_the_per_coefficient_loop(self, spec2, fam):
        rng = np.random.default_rng(41)
        u = random_form(rng, (0, 1), 2, 0.9, fam)
        pts = gm.sample(spec2, 300, 42)
        loop = lambda form: max([0.0] + [float(np.max(np.abs(fn(pts))))
                                         for fn in form.coeffs.values()])
        assert do.st_complex_residual(u, pts) == loop(dbar(dbar(u)))
