import math

import numpy as np
import pytest

from dbarl2 import domains as dm
from dbarl2 import weights as wt
from dbarl2.forms import Form
from dbarl2.gaussmeasure import GaussianSpec
from dbarl2.symfun import CylinderFn, delbar_op

from conftest import bump_fn


class TestCutoffs:
    def test_endpoint_values(self):
        cf = wt.cutoff(3)
        assert cf.h([3.0])[0] == 1.0
        assert cf.h([4.0])[0] == 0.0
        assert cf.h([2.0])[0] == 1.0
        assert cf.h([5.0])[0] == 0.0

    def test_midpoint(self):
        cf = wt.cutoff(2)
        assert cf.h([2.5])[0] == pytest.approx(0.5)

    def test_max_slope(self):
        cf = wt.cutoff(1)
        ts = np.linspace(1.0, 2.0, 200001)
        m = np.max(np.abs(cf.h_prime(ts)))
        assert m == pytest.approx(1.5, abs=1e-9)
        # located at the midpoint
        assert abs(ts[np.argmax(np.abs(cf.h_prime(ts)))] - 1.5) <= 1e-4

    def test_plateaus_of_X_k(self):
        dom = dm.normalize_eta(dm.ball(r=1.0))
        eta = dom.eta(2)
        cf = wt.cutoff(2, eta)
        inner = dom.sample_sublevel(2, 1.9, 200, 5)
        vals = np.real(cf.X_k(inner))
        np.testing.assert_allclose(vals, 1.0, atol=1e-15)
        outer = dom.sample_interior(2, 4000, 6)
        ev = np.real(eta(outer))
        far = outer[ev > 3.05]
        if len(far):
            np.testing.assert_allclose(np.real(cf.X_k(far)), 0.0, atol=1e-15)

    def test_smooth_step_plateaus(self):
        # eta = x1 on C: eta_rho at (t, 0) is the cut-off h_rho(t)
        eta_rho = wt.smooth_step(2.0, CylinderFn("x(1)"))
        h = np.real(eta_rho(np.array([[1.5, 0.0], [3.5, 0.0], [2.5, 0.0]])))
        assert h[0] == 1.0
        assert h[1] == 0.0
        assert 0 < h[2] < 1


class TestPsiMajorant:
    def test_domination_and_monotonicity(self):
        dom = dm.normalize_eta(dm.ball(r=1.0))
        rep = wt.psi_majorant(dom, 2, levels=3, samples=4000, seed=11)
        pts = dom.sample_sublevel(2, 4.0, 4000, 12)
        margin = np.real(rep.psi(pts)) - np.real(rep.target(pts))
        assert float(np.min(margin)) >= 0.0
        grid = dom.sample_sublevel(2, 4.0, 500, 13)
        eta_v = np.real(dom.eta(2)(grid))
        order = np.argsort(eta_v)
        psi_sorted = np.real(rep.psi(grid))[order]
        # staircase is monotone within sampling tolerance of the eta ordering
        assert np.min(np.diff(psi_sorted)) >= -1e-9

    def test_constant_target(self):
        # eta with constant gradient: eta = ||z||^2 has target ln(1+2.25 r^2),
        # but a linear eta in one real variable has an exactly constant target
        dom = dm.Domain("custom", lambda n: CylinderFn("x(1)+0*y(1)", dim=n),
                        lambda pts: np.full(len(pts), np.inf),
                        lambda n, N, seed: np.random.default_rng(seed).random((N, 2 * n)) * 0.8)
        rep = wt.psi_majorant(dom, 1, levels=2, samples=500, seed=14)
        target = math.log(1 + 2.25 * 0.25)  # |dbar_1 eta|^2 = 1/4
        np.testing.assert_allclose(rep.levels, 1.5 * target, rtol=1e-12)

    def test_cutoff_calculus(self):
        dom = dm.normalize_eta(dm.ball(r=1.0))
        rep = wt.psi_majorant(dom, 2, levels=3, samples=4000, seed=15)
        eta = dom.eta(2)
        pts = dom.sample_sublevel(2, 4.0, 1000, 16)
        for k in (1, 2, 3):
            cf = wt.cutoff(k, eta)
            total = np.zeros(len(pts))
            for i in (1, 2):
                total += np.abs(delbar_op(cf.X_k, i)(pts)) ** 2
            assert float(np.min(np.exp(np.real(rep.psi(pts))) - total)) >= 0.0


class TestConvexMajorant:
    @pytest.mark.parametrize("g0,order", [
        (lambda v: 1.0, 80),
        (lambda v: 1.0 + v * v, 300),
        (lambda v: 1000.0 if v >= 5 else 1.0, 300),
    ])
    def test_chain_inequalities(self, g0, order):
        maj = wt.convex_majorant(g0, K_max=10.0, trunc_order=order)
        grid = np.linspace(0.0, 10.0, 2001)
        g0v = np.array([g0(v) for v in grid])
        assert float(np.min(maj.deriv(grid, 2) - maj.deriv(grid, 1))) >= -1e-9
        assert float(np.min(maj.deriv(grid, 1) - maj(grid))) >= -1e-9
        assert float(np.min(maj(grid) - g0v)) >= -1e-9

    def test_base_value(self):
        maj = wt.convex_majorant(lambda v: 1.0, K_max=10.0, trunc_order=80)
        assert maj(0.0) == pytest.approx(math.e)

    def test_factor_lower_bound(self):
        maj = wt.convex_majorant(lambda v: 1.0 + v, K_max=8.0, trunc_order=200)
        for l in range(1, len(maj.a_seq)):
            assert maj.a_seq[l] >= 1.0 / l

    def test_truncation_error_raised(self):
        with pytest.raises(wt.TruncationError):
            wt.convex_majorant(lambda v: 1000.0 if v >= 5 else 1.0,
                               K_max=10.0, trunc_order=60)

    def test_compose(self):
        maj = wt.convex_majorant(lambda v: 1.0, K_max=4.0, trunc_order=60)
        dom = dm.whole_space()
        phi = maj.compose(dom.eta(1))
        pts = np.array([[0.3, 0.4]])
        assert phi(pts)[0].real == pytest.approx(maj(0.25), rel=1e-12)


class TestCalculusG:
    @pytest.mark.parametrize("g", [
        lambda t: 0.0,
        lambda t: 0.0 if t <= 3.0 else 1.0,
        lambda t: 0.0 if t <= 3.0 else 0.5 + (t - 3.0) ** 2,
    ])
    def test_audits(self, g):
        G = wt.calculus_G(g, x1=1.0, x2=3.0, K_max=8.0)
        grid = np.linspace(0.0, 8.0, 3201)
        gv = np.array([g(t) for t in grid])
        assert float(np.max(np.abs(G(grid[grid <= 1.0])))) == 0.0
        assert float(np.min(G(grid) - gv)) >= -1e-9
        assert float(np.min(G.deriv(grid) - gv)) >= -1e-9
        assert float(np.min(G.second(grid))) >= -1e-9

    def test_c2_matching_at_x1(self):
        g = lambda t: 0.0 if t <= 3.0 else 1.0
        G = wt.calculus_G(g, x1=1.0, x2=3.0, K_max=8.0)
        assert G(np.array([1.0]))[0] == 0.0
        assert G.deriv(np.array([1.0]))[0] == 0.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            wt.calculus_G(lambda t: 1.0, x1=1.0, x2=3.0)


class TestWeightTriple:
    def test_pointwise_identities(self):
        phi = CylinderFn("3*(x(1)^2+y(1)^2)")
        psi = CylinderFn("x(1)^2")
        tri = wt.weight_triple(phi, psi)
        pts = np.random.default_rng(0).normal(size=(100, 2))
        d1 = np.abs(tri.w3(pts) - tri.w2(pts) - tri.psi(pts))
        d2 = np.abs(tri.w2(pts) - tri.w1(pts) - tri.psi(pts))
        assert max(np.max(d1), np.max(d2)) <= 1e-12

    def test_zero_psi_collapses(self):
        phi = CylinderFn("x(1)^2")
        tri = wt.weight_triple(phi, CylinderFn("0"))
        pts = np.random.default_rng(1).normal(size=(50, 2))
        np.testing.assert_allclose(tri.w1(pts), tri.w3(pts), atol=1e-15)
        np.testing.assert_allclose(tri.w2(pts), tri.w3(pts), atol=1e-15)


class TestCond4:
    def test_quadratic_passes(self):
        spec = GaussianSpec(2)
        phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
        margin = wt.check_cond4(phi, CylinderFn("0"), 2,
                                np.random.default_rng(2).normal(size=(20, 4)) * 0.2)
        assert margin == pytest.approx(1.5, abs=1e-9)

    def test_flat_phi_fails(self):
        margin = wt.check_cond4(CylinderFn("0"), CylinderFn("0"), 2, np.zeros((1, 4)))
        assert margin == pytest.approx(-1.5)

    def test_recipe_weights_pass(self):
        spec = GaussianSpec(2)
        tri, dom, kappa = wt.recipe_weights_whole_space(spec)
        pts = dom.sample_sublevel(2, 2.0, 200, 3)
        assert wt.check_cond4(tri.phi, tri.psi, 2, pts) >= 0.0


class TestWeightForTarget:
    def test_structure_and_audits(self, fam):
        spec = GaussianSpec(2)
        ball = dm.ball(r=1.0)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.5, poly="x(1)")}, fam)
        rec = wt.weight_for_target(f, ball, J_max=3, spec=spec, samples=3000,
                                   trunc_order=400)
        assert np.all(rec.b > 0)
        assert np.all(np.isfinite(rec.m))
        assert float(np.sum(rec.b * rec.m[:len(rec.b)])) < math.inf
        assert np.all(np.diff(rec.g0_table) >= -1e-12)
        assert math.isfinite(rec.norm_w2_est)
        pts = rec.domain.sample_sublevel(2, 3.0, 200, 4)
        assert wt.check_cond4(rec.triple.phi, rec.triple.psi, 2, pts) >= -1e-6

    def test_compact_support_makes_far_annuli_empty(self, fam):
        spec = GaussianSpec(2)
        ball = dm.ball(r=1.0)
        f = Form((0, 1), {((), (1,)): bump_fn(2, 0.3)}, fam)
        rec = wt.weight_for_target(f, ball, J_max=4, spec=spec, samples=3000,
                                   trunc_order=400)
        # the support sits inside the first levels: high annuli carry no mass
        assert np.all(rec.m[2:] == 0.0)
        np.testing.assert_allclose(rec.b[2:],
                                   [2.0 ** (-(j + 1)) for j in range(2, 5)])
