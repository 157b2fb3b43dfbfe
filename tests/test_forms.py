import gc

import numpy as np
import pytest

from dbarl2 import dbarops as do
from dbarl2 import forms as fm
from dbarl2 import gaussmeasure as gm
from dbarl2 import solver as sv
from dbarl2.forms import Form, inner, norm_sq, parse_form_literal
from dbarl2.multiindex import constant_family, multiplicative_family
from dbarl2.symfun import (CylinderFn, conj_, delbar_op, delta_op, mul, sigma_op, support,
                           support_radius_in)

from conftest import RecordingFn, as_leaf, bump_fn, random_form


GH = gm.Quadrature("gauss_hermite", nodes_per_axis=10)
MC = gm.Quadrature("monte_carlo", N=50_000, seed=21)


class RadiusFreePartials:
    """f's values with the support radius given; its partials are f's, with
    none (a payload)."""

    def __init__(self, f, support_radius=None):
        self.f, self.dim, self.support_radius = f, f.dim, support_radius

    def __call__(self, pts):
        return self.f(pts)

    def d_dx(self, i):
        return RadiusFreePartials(self.f.d_dx(i))

    def d_dy(self, i):
        return RadiusFreePartials(self.f.d_dy(i))


class TestFormBasics:
    def test_degree_validation(self, fam):
        with pytest.raises(fm.DegreeError):
            Form((0, 1), {((1,), (1,)): CylinderFn("1")}, fam)

    def test_zero_coefficients_dropped(self, fam):
        f = Form((0, 1), {((), (1,)): CylinderFn("0")}, fam)
        assert f.is_zero()

    def test_add_and_scale(self, fam, spec2):
        g = bump_fn(1, 0.5)
        f = Form((0, 1), {((), (1,)): g}, fam)
        z = f + f.scale(-1.0)
        pts = gm.sample(spec2, 50, 3)
        assert np.max(np.abs(z.coeff((), (1,))(pts))) <= 1e-16
        assert f.scale(0.0).is_zero()

    def test_degree_mismatch_add(self, fam):
        f = Form((0, 1), {((), (1,)): CylinderFn("1")}, fam)
        g = Form((1, 0), {((1,), ()): CylinderFn("1")}, fam)
        with pytest.raises(fm.DegreeError):
            _ = f + g

    def test_support_radius(self, fam):
        # the ball of a form's squared norm, derived from its coefficients as a sum
        def radius(form):
            return support_radius_in([fn.expr for fn in form.coeffs.values()],
                                     form.max_dim())

        # a dim-1 bump is a cylinder in C^2: no ball in C^2 holds the form
        low = bump_fn(1, 0.5)
        f = Form((0, 1), {((), (1,)): low, ((), (2,)): bump_fn(2, 0.8)}, fam)
        assert radius(f) is None
        far = np.array([[0.1, 0.0, 5.0, 0.0]])  # |z| = 5.001 > 0.8
        assert abs(low(far)[0]) > 0.0
        same = Form((0, 1), {((), (1,)): bump_fn(2, 0.5), ((), (2,)): bump_fn(2, 0.8)}, fam)
        assert radius(same) == pytest.approx(0.8, rel=1e-15)
        assert radius(Form((0, 1), {}, fam)) == 0.0
        g = Form((0, 1), {((), (1,)): CylinderFn("x(1)")}, fam)
        assert radius(g) is None


class TestContract:
    def test_at_most_one_match(self):
        # sum over K of |eps^K_{iL}| is at most 1 for entries up to 8
        from itertools import combinations

        from dbarl2.multiindex import epsilon
        for t in (0, 1, 2):
            for L in combinations(range(1, 9), t):
                for i in range(1, 9):
                    total = sum(abs(epsilon(i, L, K))
                                for K in combinations(range(1, 9), t + 1))
                    assert total <= 1


class TestNorm:
    def test_zero_form(self, fam, spec2):
        est = norm_sq(Form((0, 1), {}, fam), None, spec2, GH)
        assert est.mean == 0.0

    def test_moment_norm(self, fam, spec2):
        f = Form((0, 1), {((), (1,)): CylinderFn("x(1)")}, fam)
        est = norm_sq(f, None, spec2, GH)
        assert est.mean.real == pytest.approx(spec2.a(1) ** 2, rel=1e-12)

    def test_scaling_homogeneity(self, fam, spec2):
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.7, poly="x(2)")}, fam)
        n1 = norm_sq(f, None, spec2, GH).mean.real
        n2 = norm_sq(f.scale(2.0), None, spec2, GH).mean.real
        assert n2 == pytest.approx(4.0 * n1, rel=1e-12)

    def test_family_weighting(self, spec2):
        fam2 = multiplicative_family(mu=lambda j: float(j))
        f = Form((0, 1), {((), (2,)): CylinderFn("x(1)")}, fam2)
        est = norm_sq(f, None, spec2, GH)
        assert est.mean.real == pytest.approx(2.0 * spec2.a(1) ** 2, rel=1e-12)

    def test_weight_factor(self, fam, spec1):
        f = Form((0, 1), {((), (1,)): bump_fn(1, 1.6)}, fam)
        w = CylinderFn("x(1)^2+y(1)^2")
        quad = gm.Quadrature("gauss_hermite", nodes_per_axis=48)
        plain = norm_sq(f, None, spec1, quad).mean.real
        weighted = norm_sq(f, w, spec1, quad).mean.real
        assert 0 < weighted < plain

    def test_unit_weight_on_mixed_dims_equals_no_weight(self, fam):
        # the weight is evaluated only on the form's support ball, here the
        # cylinder over z1 that a dim-1 coefficient gives: the weight "0" must
        # change nothing
        spec = gm.GaussianSpec(2, a_rule=lambda i: 0.5)
        quad = gm.Quadrature("monte_carlo", N=20_000, seed=3)
        f = Form((0, 1), {((), (1,)): bump_fn(1, 0.5), ((), (2,)): bump_fn(2, 0.8)}, fam)
        zero = CylinderFn("0")
        assert norm_sq(f, zero, spec, quad).mean == norm_sq(f, None, spec, quad).mean
        assert inner(f, f, zero, spec, quad).mean == inner(f, f, None, spec, quad).mean

    def test_parallelogram_law(self, fam, spec2):
        rng = np.random.default_rng(5)
        f = random_form(rng, (0, 1), 2, 0.7, fam)
        g = random_form(rng, (0, 1), 2, 0.7, fam)
        quad = gm.Quadrature("gauss_hermite", nodes_per_axis=12)
        a = norm_sq(f + g, None, spec2, quad).mean.real
        b = norm_sq(f - g, None, spec2, quad).mean.real
        c = norm_sq(f, None, spec2, quad).mean.real
        d = norm_sq(g, None, spec2, quad).mean.real
        assert a + b == pytest.approx(2 * c + 2 * d, rel=1e-10)

    def test_inner_consistency(self, fam, spec2):
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.7, poly="x(1)")}, fam)
        est = inner(f, f, None, spec2, GH)
        nrm = norm_sq(f, None, spec2, GH)
        assert est.mean.real == pytest.approx(nrm.mean.real, rel=1e-12)
        assert abs(est.mean.imag) <= 1e-15


    def test_shared_integrands_equal_the_per_coefficient_loop(self, fam, spec2):
        rng = np.random.default_rng(6)
        f = random_form(rng, (1, 1), 2, 0.7, fam)
        g = random_form(rng, (1, 1), 2, 0.7, fam)
        w = CylinderFn("0.3*(x(1)^2+y(2)^2)+log(1+x(2)^2)")
        pts = np.random.default_rng(7).normal(size=(400, 4), scale=0.5)
        mask = fm.support_mask(pts, 0.7, 2)
        ew = np.exp(-np.real(w(pts[mask])))
        inner_ref = np.zeros(len(pts), dtype=complex)
        for k in set(f.coeffs) & set(g.coeffs):
            inner_ref += f.coeffs[k](pts) * np.conjugate(g.coeffs[k](pts))
        inner_ref[mask] *= ew
        inner_ref[~mask] = 0.0
        assert np.array_equal(fm.inner_vals(f, g, w, pts), inner_ref)
        sq_ref = []
        for h in (f, g):
            total = np.zeros(len(pts))
            for fn in h.coeffs.values():
                total += np.abs(fn(pts)) ** 2
            out = np.zeros(len(pts))
            out[mask] = total[mask] * ew
            sq_ref.append(out)
        got = fm._weighted_sq_vals([(f, w), (g, w)], pts)
        assert all(np.array_equal(a, b) for a, b in zip(got, sq_ref))


class TestWeightOnSupportBall:
    """A weight, and an integrand with or without one, is evaluated only inside
    the integrand's support ball, and never for a zero integrand (an opaque
    weight would be undefined elsewhere)."""

    RADIUS = 0.4

    def _parts(self, fam):
        rng = np.random.default_rng(21)
        f = random_form(rng, (0, 1), 2, self.RADIUS, fam)
        g = random_form(rng, (0, 1), 2, self.RADIUS, fam)
        pts = np.random.default_rng(22).normal(size=(2000, 4), scale=0.3)
        return f, g, pts, RecordingFn(CylinderFn("x(1)^2+y(1)^2-0.5*x(2)"))

    def _assert_inside(self, w, pts):
        seen = np.concatenate(w.seen)
        assert 0 < len(seen) < len(pts)
        assert np.all(np.sum(seen ** 2, axis=1) <= gm.support_rsq(self.RADIUS))

    def test_weighted_squares_and_inner_products(self, fam):
        f, g, pts, w = self._parts(fam)
        fm._weighted_sq_vals([(f, as_leaf(w)), (g, as_leaf(w))], pts)
        fm.inner_vals(f, g, as_leaf(w), pts)
        self._assert_inside(w, pts)

    def test_stacked_rows(self, fam):
        f, g, pts, w = self._parts(fam)
        wq = np.full(len(pts), 1.0 / len(pts))
        sv._stack_rows([f, g], sorted(set(f.coeffs) | set(g.coeffs)), pts, wq, as_leaf(w), fam)
        self._assert_inside(w, pts)

    def test_weighted_ibp_residual(self, fam, spec2):
        *_, w = self._parts(fam)
        quad = gm.Quadrature("monte_carlo", N=2000, seed=23)
        do.ibp_residual(bump_fn(2, self.RADIUS, poly="x(1)+y(2)"),
                        bump_fn(2, self.RADIUS, poly="1-x(2)"), 1, spec2, quad,
                        weighted=True, varphi=as_leaf(w))
        self._assert_inside(w, quad.nodes_weights(spec2)[0])

    def test_unweighted_payload_sees_only_its_ball(self, fam):
        # one rule with or without a weight: the integrand is computed on its ball
        *_, pts, _ = self._parts(fam)
        g = RecordingFn(bump_fn(2, self.RADIUS, poly="1+x(1)"))
        form = Form((0, 1), {((), (1,)): as_leaf(g)}, fam)
        sq, = fm._weighted_sq_vals([(form, None)], pts)
        prod = fm.inner_vals(form, form, None, pts)
        inside = fm.support_mask(pts, self.RADIUS, 2)
        seen = np.concatenate(g.seen)
        assert g.calls == 2 and len(seen) == 2 * np.count_nonzero(inside) < len(pts)
        assert np.all(np.sum(seen ** 2, axis=1) <= gm.support_rsq(self.RADIUS))
        # the points off the ball are the zeros an evaluation there gives
        assert np.array_equal(sq, np.abs(g.f(pts)) ** 2)
        assert np.array_equal(prod, np.abs(g.f(pts)) ** 2)

    def test_cylinder_weight_sees_only_its_cylinder(self, fam):
        # a coefficient on C^2 whose ball spans z1 alone: its weight is
        # evaluated on that cylinder, not at every point
        *_, pts, w = self._parts(fam)
        coeff = CylinderFn(f"x(2)*bump((x(1)^2+y(1)^2)/{self.RADIUS ** 2})")
        assert coeff.dim == 2 and support(coeff.expr) == (pytest.approx(self.RADIUS), 1)
        form = Form((0, 1), {((), (1,)): coeff}, fam)
        fm._weighted_sq_vals([(form, as_leaf(w))], pts)
        seen = np.concatenate(w.seen)
        assert len(seen) == np.count_nonzero(fm.support_mask(pts, self.RADIUS, 1)) < len(pts)
        assert np.all(seen[:, 0] ** 2 + seen[:, 1] ** 2 <= gm.support_rsq(self.RADIUS))
        assert np.max(np.abs(seen[:, 2:])) > self.RADIUS  # not a ball in C^2

    def test_zero_integrand_never_evaluates_the_weight(self, fam):
        f, _, pts, w = self._parts(fam)
        zero = Form((0, 1), {}, fam)
        sq, = fm._weighted_sq_vals([(zero, as_leaf(w))], pts)
        prod = fm.inner_vals(zero, f, as_leaf(w), pts)
        assert not w.seen
        assert not np.any(sq) and not np.any(prod)

    def _pair(self):
        """Two complex coefficients on the ball of RADIUS in C^2, and a weight."""
        a = bump_fn(2, self.RADIUS, poly="1+x(1)") + 0.5j * bump_fn(2, self.RADIUS, poly="y(2)")
        b = bump_fn(2, self.RADIUS, poly="x(2)-0.3") - 0.7j * bump_fn(2, self.RADIUS, poly="y(1)")
        return a, b, CylinderFn("x(1)^2+y(1)^2-0.5*x(2)")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_terms_give_their_products_bit_for_bit(self, fam, weighted):
        # (c, a, None) gives c |a|^2 as float64 and (c, a, b) gives (c a) conj(b),
        # summed in term order from zero, times e^{-Re w} on the ball, zero off it
        a, b, w = self._pair()
        w = w if weighted else None
        *_, pts, _ = self._parts(fam)
        sq, prod = fm.integrands([([(0.7, a.expr, None), (1.3, b.expr, None)], w),
                                  ([(0.7, a.expr, b.expr), (-1.3j, b.expr, a.expr)], w)], pts)
        on = fm.support_mask(pts, self.RADIUS, 2)
        assert 0 < np.count_nonzero(on) < len(pts)
        va, vb = a(pts[on]), b(pts[on])
        ew = None if w is None else np.exp(-np.real(w(pts[on])))

        def spread(total):
            out = np.zeros(len(pts), dtype=total.dtype)
            out[on] = total if ew is None else total * ew
            return out
        ref_sq = spread(np.zeros(len(va)) + 0.7 * np.abs(va) ** 2 + 1.3 * np.abs(vb) ** 2)
        ref_prod = spread(np.zeros(len(va), dtype=complex) + 0.7 * va * np.conjugate(vb)
                          + -1.3j * vb * np.conjugate(va))
        assert sq.dtype == np.float64 and prod.dtype == np.complex128
        assert sq.tobytes() == ref_sq.tobytes() and prod.tobytes() == ref_prod.tobytes()
        # a payload that is not 0 off the radius it declares is zero there all the same
        lying = RadiusFreePartials(CylinderFn("1+x(1)", dim=2), self.RADIUS)
        cut, = fm.integrands([([(2.0, as_leaf(lying).expr, None)], w)], pts)
        ref_cut = spread(np.zeros(len(va)) + 2.0 * np.abs(lying(pts[on])) ** 2)
        assert cut.tobytes() == ref_cut.tobytes()
        assert not np.any(cut[~on]) and np.all(cut[on] > 0)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_ibp_sides_on_two_balls_equal_the_one_ball_formula(self, spec2, weighted):
        # f's ball lies strictly inside g's, and its partials declare no radius, so
        # d-bar f conj(g) is computed on g's ball and f conj(adj g) on f's; both
        # sides vanish between the balls, so the estimate is that of computing
        # everything on the ball of f g, bit for bit
        f = as_leaf(RadiusFreePartials(bump_fn(2, 0.25, poly="x(1)+y(2)"), 0.25))
        g = bump_fn(2, self.RADIUS, poly="1-x(2)+0.5*y(1)")
        varphi = self._pair()[2] if weighted else None
        adj = sigma_op(g, 1, spec2.a(1), varphi) if weighted else delta_op(g, 1, spec2.a(1))
        dbf = delbar_op(f, 1)
        balls = support(mul(dbf.expr, conj_(g.expr))), support(mul(f.expr, conj_(adj.expr)))
        assert balls == (support(g.expr), support(f.expr)) and balls[0][0] > balls[1][0]
        quad = gm.Quadrature("monte_carlo", N=4000, seed=24)

        def one_ball(pts):
            on = fm.support_mask(pts, *support(mul(f.expr, g.expr)))
            vdbf, vg, vf, vadj = (h(pts[on]) for h in (dbf, g, f, adj))
            ew = None if varphi is None else np.exp(-np.real(varphi(pts[on])))
            sides = []
            for total in (vdbf * np.conjugate(vg), -vf * np.conjugate(vadj)):
                sides.append(np.zeros(len(pts), dtype=complex))
                sides[-1][on] = total if ew is None else total * ew
            return [sides]
        (ref, _, _), = gm.integrals(quad, spec2, one_ball)
        got = do.ibp_residual(f, g, 1, spec2, quad, weighted=weighted, varphi=varphi)
        assert repr(got) == repr(ref) and got.mean != 0


class TestNonfinitePoints:
    """A NaN or an inf point is inside every support ball, so a weighted
    integrand is not finite there, as the unweighted one is."""

    PTS = np.array([[np.nan, 0.1], [0.1, 0.2], [np.inf, 0.0]])

    def _form(self, fam):
        return Form((0, 0), {((), ()): bump_fn(1, 0.8, poly="1+x(1)")}, fam)

    @pytest.mark.parametrize("w", [None, "x(1)^2"])
    def test_weighted_squares_and_inner_products(self, fam, w):
        f, w = self._form(fam), None if w is None else CylinderFn(w)
        assert f.coeff((), ()).support_radius == pytest.approx(0.8, rel=1e-15)
        v = f.coeff((), ())(self.PTS[1])[0]
        assert v.real > 0.0
        finite = abs(v) ** 2 * (1.0 if w is None else np.exp(-0.01))
        with np.errstate(invalid="ignore"):
            sq, = fm._weighted_sq_vals([(f, w)], self.PTS)
            prod = fm.inner_vals(f, f, w, self.PTS)
        for vals in (sq, prod):
            assert np.isnan(vals[0]) and not np.isfinite(vals[2])
            assert vals[1] == pytest.approx(finite, rel=1e-15)


class TestFormLiteral:
    def test_parse_entries(self, fam, spec2):
        f = parse_form_literal(
            [{"I": [], "J": [1], "coeff": "x(1)"},
             {"I": [], "J": [2], "coeff": "y(2)^2*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2)/4)"}],
            (0, 1), fam)
        assert set(f.coeffs) == {((), (1,)), ((), (2,))}
        assert f.coeffs[((), (1,))].support_radius is None
        assert f.coeffs[((), (2,))].support_radius == 2.0

    def test_duplicate_keys_accumulate(self, fam):
        f = parse_form_literal(
            [{"I": [], "J": [1], "coeff": "x(1)"},
             {"I": [], "J": [1], "coeff": "x(1)"}],
            (0, 1), fam)
        pts = np.array([[0.5, 0.0]])
        assert f.coeff((), (1,))(pts)[0] == pytest.approx(1.0)


def _memo_values() -> list:
    """Every value the value memo keeps, over the balls of its slot."""
    return [v for *_, known in fm._memo.balls.values() for v in known.values()]


def _empty_memo():
    fm._memo.pts, fm._memo.balls = None, {}


class TestValueMemo:
    """On a read-only point set that owns its data, ``_ball_values`` computes
    each non-constant root once while its node lives and the set is the last
    one given; the values, and so every estimate, are those of a cold call."""

    def _pairings(self, fam, spec2, g0, quad):
        """adjoint_residual, both ibp_residual variants and weak_dbar_residual
        on forms whose first coefficient is g0, as ``dbarl2 identities`` pairs them."""
        ctx = do.OperatorContext(spec2, fam, CylinderFn("x(1)^2"),
                                 CylinderFn("0.5*(x(1)^2+y(2)^2)"), CylinderFn("0"),
                                 CylinderFn("x(1)^2"))
        u = Form((0, 0), {((), ()): g0}, fam)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.8, poly="x(2)+y(1)"),
                          ((), (2,)): bump_fn(2, 0.8, poly="1-x(1)")}, fam)
        g1 = f.coeff((), (1,))
        return [lambda: do.adjoint_residual(u, f, ctx, quad),
                lambda: do.ibp_residual(g0, g1, 1, spec2, quad),
                lambda: do.ibp_residual(g0, g1, 1, spec2, quad, weighted=True,
                                        varphi=ctx.varphi),
                lambda: do.weak_dbar_residual(u, do.dbar(u), g0, (), (1,), spec2, quad)]

    def test_leaf_root_is_evaluated_once_across_the_pairings(self, fam, spec2):
        # the leaf is a root of the first three pairings: with the memo it is
        # evaluated once for all three, against once a pairing without; weak
        # d-bar also reads it inside the root delta_1 of it, whose plain tape
        # evaluates the leaf again, so four pairings make two calls, not four
        quad = gm.Quadrature("monte_carlo", N=5000, seed=31)
        pts = quad.nodes_weights(spec2)[0]
        for memo, counts in ((True, [1, 1, 1, 2]), (False, [1, 2, 3, 4])):
            g0 = RecordingFn(bump_fn(2, 0.8, poly="1+x(1)-y(2)"))
            calls = []
            for run in self._pairings(fam, spec2, as_leaf(g0), quad):
                if not memo:
                    _empty_memo()
                run()
                calls.append(g0.calls)
            assert calls == counts
            for seen in g0.seen:  # on its ball only
                assert np.array_equal(seen, pts[fm.support_mask(pts, 0.8, 2)])

    def test_warm_and_cold_estimates_agree(self, fam, spec2):
        runs = self._pairings(fam, spec2, bump_fn(2, 0.8, poly="1+x(1)-y(2)"),
                              gm.Quadrature("monte_carlo", N=5000, seed=32))
        cold = []
        for run in runs:
            _empty_memo()
            cold.append(repr(run()))
        _empty_memo()
        warming = [repr(run()) for run in runs]
        warm = [repr(run()) for run in runs]
        assert warming == cold and warm == cold

    def test_writable_points_mutated_in_place_give_new_values(self, fam, spec2):
        form = Form((0, 1), {((), (1,)): bump_fn(2, 0.8, poly="1+x(1)")}, fam)
        w = CylinderFn("x(1)^2")
        pts = gm.sample(spec2, 500, 33)
        before, = fm._weighted_sq_vals([(form, w)], pts)
        pts *= 0.5
        after, = fm._weighted_sq_vals([(form, w)], pts)
        fresh = pts.copy()
        fresh.flags.writeable = False
        assert np.array_equal(after, fm._weighted_sq_vals([(form, w)], fresh)[0])
        assert not np.array_equal(after, before)

    def test_dead_forms_leave_the_slot(self, fam, spec2):
        pts = gm.sample(spec2, 500, 34)
        pts.flags.writeable = False
        form = Form((0, 1), {((), (1,)): bump_fn(2, 0.7, poly="0.29+x(1)"),
                             ((), (2,)): CylinderFn("0.41*x(2)*y(1)")}, fam)
        w = CylinderFn("0.37*x(1)^2+0.13*y(2)^2")
        fm._weighted_sq_vals([(form, w)], pts)
        fm.inner_vals(form, form, w, pts)
        assert fm._memo.pts is pts and len(_memo_values()) == 3  # two coefficients, one weight
        assert all(not v.flags.writeable for v in _memo_values())
        del form, w
        gc.collect()
        assert fm._memo.pts is pts and not _memo_values()

    def test_a_new_point_set_empties_the_slot(self, fam, spec2):
        form = Form((0, 1), {((), (1,)): bump_fn(2, 0.8, poly="1+y(2)")}, fam)
        a, b = gm.sample(spec2, 500, 35), gm.sample(spec2, 400, 36)
        a.flags.writeable = b.flags.writeable = False
        fm._weighted_sq_vals([(form, None)], a)
        slot = fm._memo.balls
        assert fm._memo.pts is a and len(_memo_values()) == 1
        fm._weighted_sq_vals([(form, None)], b)
        assert fm._memo.pts is b and fm._memo.balls is not slot
        (on, sub, _), = fm._memo.balls.values()
        assert len(sub) == np.count_nonzero(on) and [len(v) for v in _memo_values()] == [len(sub)]
        # a read-only view does not own its points: it is not kept, and empties the slot
        fm._weighted_sq_vals([(form, None)], b[:100])
        assert fm._memo.pts is None and not fm._memo.balls
