import math

import numpy as np
import pytest

from dbarl2 import cli
from dbarl2 import dbarops as do
from dbarl2 import forms as fm
from dbarl2 import gaussmeasure as gm
from dbarl2.symfun import CylinderFn, EvalError, delbar_op, delta_op, sigma_op

from conftest import (CountingFn, RecordingFn, ScalarTwo, as_leaf, bump_fn, compiles_and_runs,
                      random_bump_fn)


MC = gm.Quadrature("monte_carlo", N=200_000, seed=42)
GH = gm.Quadrature("gauss_hermite", nodes_per_axis=8)


class TestSpecAndSampling:
    def test_default_scales(self, spec3):
        assert spec3.a(1) == 0.25
        assert spec3.a(2) == 0.125
        # standing hypothesis: the full series sums to 1/2 < 1
        assert sum(2.0 ** (-(i + 1)) for i in range(1, 60)) < 1.0

    def test_sample_determinism(self, spec3):
        a = gm.sample(spec3, 150_000, seed=3)
        b = gm.sample(spec3, 150_000, seed=3)
        assert np.array_equal(a, b)
        c = gm.sample(spec3, 150_000, seed=4)
        assert not np.array_equal(a, c)

    def test_sample_moments(self, spec3):
        pts = gm.sample(spec3, 10 ** 6, seed=11)
        a1 = spec3.a(1)
        assert abs(np.mean(pts[:, 0])) <= 4 * a1 / 1000.0
        assert np.mean(pts[:, 0] ** 2) == pytest.approx(a1 ** 2, rel=0.02)

    def test_invalid_args(self, spec3):
        with pytest.raises(ValueError):
            gm.sample(spec3, 0, seed=1)
        with pytest.raises(ValueError):
            gm.GaussianSpec(trunc_dim=0)


class TestIntegrate:
    def test_second_moment(self, spec3):
        est = gm.integrate(CylinderFn("x(1)^2"), spec3, MC)
        assert est.mean.real == pytest.approx(spec3.a(1) ** 2, abs=4 * est.stderr)

    def test_odd_independence(self, spec3):
        est = gm.integrate(CylinderFn("x(1)*x(2)"), spec3, MC)
        assert abs(est.mean) <= 4 * est.stderr

    def test_mod_z_sq(self, spec3):
        est = gm.integrate(CylinderFn("x(1)^2+y(1)^2"), spec3, GH)
        assert est.mean.real == pytest.approx(2 * spec3.a(1) ** 2, rel=1e-12)

    def test_total_mass(self, spec3):
        est = gm.integrate(CylinderFn("1"), spec3, GH)
        assert est.mean.real == pytest.approx(1.0, rel=1e-13)
        assert est.stderr == 0.0
        mc = gm.integrate(CylinderFn("1"), spec3, gm.Quadrature("monte_carlo", N=1000, seed=1))
        assert mc.mean.real == pytest.approx(1.0, abs=1e-12)

    def test_gh_budget_guard(self, spec3):
        with pytest.raises(ValueError):
            gm.Quadrature("gauss_hermite", nodes_per_axis=40).nodes_weights(spec3)

    def test_gh_polynomial_exactness(self, spec2):
        # tensor rule with m nodes is exact for per-axis degree < 2m
        q = gm.Quadrature("gauss_hermite", nodes_per_axis=6)
        a1, a2 = spec2.a(1), spec2.a(2)
        est = gm.integrate(CylinderFn("x(1)^4*y(2)^2"), spec2, q)
        assert est.mean.real == pytest.approx(3 * a1 ** 4 * a2 ** 2, rel=1e-12)

    def test_broken_hermite_rule_is_refused(self, spec1):
        # numpy's hermgauss gives all-zero weights at 371 nodes, non-finite ones from 372 on
        with np.errstate(all="ignore"):
            for m in (371, 400):
                with pytest.raises(ValueError, match=rf"rule of \({m}, {m}\) nodes has non-finite"):
                    gm.Quadrature("gauss_hermite", nodes_per_axis=m).nodes_weights(spec1)
        _, w = gm.Quadrature("gauss_hermite", nodes_per_axis=24).nodes_weights(spec1)
        assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0, rel=1e-13)

    def test_monte_carlo_points_drawn_once(self, spec3):
        q = gm.Quadrature("monte_carlo", N=1000, seed=11)
        pts, w = q.nodes_weights(spec3)
        again = q.nodes_weights(spec3)
        assert again[0] is pts and again[1] is w
        assert not pts.flags.writeable and not w.flags.writeable
        assert np.array_equal(pts, gm.sample(spec3, 1000, 11))
        assert np.array_equal(w, np.full(1000, 1.0 / 1000))
        other, _ = gm.Quadrature("monte_carlo", N=1000, seed=12).nodes_weights(spec3)
        assert not np.array_equal(other, pts)


class TestSupportMask:
    """The one support-ball test: squared norm over the first 2 dim columns at
    most support_rsq(R), or not finite."""

    EDGE = 0.5 * (1.0 + 2e-13)  # on the boundary, inside the 1e-12 slack

    @pytest.mark.parametrize("point, live", [
        ((0.3, 0.1, 9.0, 9.0), True),  # columns past 2 dim do not count
        ((0.4, 0.4, 0.0, 0.0), False),
        ((EDGE, 0.0, 0.0, 0.0), True),
        ((0.5 * (1.0 + 1e-11), 0.0, 0.0, 0.0), False),
        ((np.nan, 0.1, 0.0, 0.0), True),
        ((0.4, 0.4, np.nan, 0.0), False),
        ((np.inf, 0.0, 0.0, 0.0), True),
        ((0.0, -np.inf, 0.0, 0.0), True),
    ], ids=["inside", "outside", "boundary", "past-slack", "nan", "nan-uncounted", "inf",
            "minus-inf"])
    def test_table(self, point, live):
        with np.errstate(invalid="ignore"):
            got = gm.support_mask(np.array([point]), 0.5, 1)
        assert got.dtype == bool and got.tolist() == [live]

    def test_no_radius_keeps_every_point(self):
        pts = np.array([[9.0, 9.0], [np.nan, 0.0]])
        assert gm.support_mask(pts, None, 1).tolist() == [True, True]


def _rule(r):
    """The ReducedFn payload of a reduction (a CylinderFn leaf)."""
    return r.expr.fn


def _per_node(r, pts):
    """Reference: the tail rule as one evaluation of r.f per tail node."""
    r = _rule(r)
    out = np.zeros(len(pts), dtype=complex)
    full = np.empty((len(pts), 2 * r.f.dim))
    full[:, :2 * r.dim] = pts[:, :2 * r.dim]
    for t in range(r._tail_pts.shape[0]):
        full[:, 2 * r.dim:] = r._tail_pts[t]
        out += r._tail_w[t] * r.f(full)
    return out


def _counts(r):
    """The nodes per axis of a reduction's tensor tail rule."""
    return [len(np.unique(col)) for col in _rule(r)._tail_pts.T]


def _live_counts(r, pts):
    """Reference: per tail node, the heads whose pair lies in the support ball."""
    r = _rule(r)
    head = np.sum(pts[:, :2 * r.dim] ** 2, axis=1)
    tail = np.sum(r._tail_pts ** 2, axis=1)
    thr = gm.support_rsq(r.support_radius)
    return np.array([sum(1 for hs in head if hs <= thr - ts) for ts in tail])


class TestReduce:
    def test_identity_when_low_dim(self, spec3):
        f = bump_fn(2, 0.7)
        assert gm.reduce_fn(f, 2, spec3) is f

    def test_a_reduction_is_a_leaf_of_its_payload(self, spec3):
        # a CylinderFn in both branches: f itself (above), or its ReducedFn as a
        # Leaf, whose values are the payload's bits
        r = gm.reduce_fn(random_bump_fn(np.random.default_rng(29), 3, 0.8), 1, spec3)
        assert type(r) is CylinderFn and type(_rule(r)) is gm.ReducedFn
        assert r.dim == 1 and r.support_radius == _rule(r).support_radius == 0.8
        pts = gm.sample(spec3, 300, 17, n=1)
        for fn in (r, r.d_dx(1), r.d_dy(1)):
            assert fn(pts).tobytes() == _rule(fn)(pts).tobytes()

    def test_odd_tail_vanishes(self, spec3):
        f = CylinderFn("x(1)*x(3)")
        r = gm.reduce_fn(f, 2, spec3)
        pts = gm.sample(spec3, 20, 5, n=2)
        assert np.max(np.abs(r(pts))) <= 1e-16

    def test_tail_second_moment_exact(self, spec3):
        f = CylinderFn("x(3)^2")
        r = gm.reduce_fn(f, 2, spec3)
        pts = gm.sample(spec3, 20, 6, n=2)
        np.testing.assert_allclose(r(pts).real, spec3.a(3) ** 2, rtol=1e-12)

    def test_contraction_property(self, spec3):
        rng = np.random.default_rng(9)
        quad = gm.Quadrature("monte_carlo", N=20_000, seed=77)
        pts, w = quad.nodes_weights(spec3)
        for _ in range(5):
            f = random_bump_fn(rng, 3, 0.8)
            norm_f = np.sqrt(np.sum(w * np.abs(f(pts)) ** 2))
            for n in (1, 2):
                fn = gm.reduce_fn(f, n, spec3)
                norm_fn = np.sqrt(np.sum(w * np.abs(fn(pts)) ** 2))
                se = np.std(np.abs(f(pts)) ** 2) / np.sqrt(len(pts))
                assert norm_fn ** 2 <= norm_f ** 2 + 3 * se

    def test_convergence_ladder(self, spec3):
        rng = np.random.default_rng(10)
        quad = gm.Quadrature("monte_carlo", N=20_000, seed=78)
        pts, w = quad.nodes_weights(spec3)
        f = random_bump_fn(rng, 3, 0.8)
        fv = f(pts)
        errs = []
        for n in (1, 2, 3):
            rv = gm.reduce_fn(f, n, spec3)(pts)
            errs.append(float(np.sum(w * np.abs(rv - fv) ** 2)))
        se = np.std(np.abs(fv) ** 2) / np.sqrt(len(pts))
        assert errs[0] + 3 * se >= errs[1] - 3 * se
        assert errs[1] + 3 * se >= errs[2]
        assert errs[2] == 0.0  # n = dim: reduce returns f itself

    def test_derivative_commutes(self, spec3):
        f = CylinderFn("x(1)^2*x(3)^2")
        r = gm.reduce_fn(f, 2, spec3)
        pts = gm.sample(spec3, 10, 8, n=2)
        got = r.d_dx(1)(pts)
        expect = 2 * pts[:, 0] * spec3.a(3) ** 2
        np.testing.assert_allclose(got.real, expect, rtol=1e-12)

    def test_batched_tail_equals_per_node_loop(self, spec3):
        rng = np.random.default_rng(21)
        f = random_bump_fn(rng, 3, 0.8)
        for n, N in ((1, 200), (2, 200), (2, 20_000)):
            r = gm.reduce_fn(f, n, spec3)
            pts = gm.sample(spec3, N, 31 + n, n=n)
            assert np.array_equal(r(pts), _per_node(r, pts))
            if N == 200:
                d = r.d_dx(1)
                assert np.array_equal(d(pts), _per_node(d, pts))

    def test_batched_tail_constant_integrand(self, spec3):
        pts = gm.sample(spec3, 200, 4, n=1)
        for f in (CylinderFn("2", dim=3), as_leaf(ScalarTwo(3))):
            r = gm.reduce_fn(f, 1, spec3)
            got = r(pts)
            assert got.shape == (200,)
            assert np.array_equal(got, _per_node(r, pts))
            np.testing.assert_allclose(got, 2.0, rtol=1e-12)

    def test_tail_counts_follow_the_scales(self):
        # 8 nodes on the first tail axis, the others in proportion to their scale, at least 2
        spec4 = gm.GaussianSpec(4)
        f = bump_fn(4, 0.8, poly="1+x(4)^2")
        r = gm.reduce_fn(f, 1, spec4)
        assert _counts(r) == [8, 8, 4, 4, 2, 2]
        assert _rule(r)._tail_pts.shape[0] == 4096
        again = gm.reduce_fn(f, 1, spec4)
        assert _rule(r)._tail_pts.tobytes() == _rule(again)._tail_pts.tobytes()
        assert _rule(r)._tail_w.tobytes() == _rule(again)._tail_w.tobytes()
        pts = gm.sample(spec4, 200, 5, n=1)
        assert np.array_equal(r(pts), _per_node(r, pts))
        assert _counts(gm.reduce_fn(f, 2, spec4)) == [8, 8, 4, 4]
        assert _counts(gm.reduce_fn(f, 3, spec4)) == [8, 8]

    def test_tail_rule_is_exact_per_axis(self, spec3):
        # m nodes on an axis integrate its degrees < 2m: 8 on x(2), 4 on x(3) at 3 -> 1
        pts = gm.sample(spec3, 5, 6, n=1)
        for i, k, moment in ((2, 14, 135135), (3, 6, 15)):  # E x^k = (k-1)!! a^k
            r = gm.reduce_fn(CylinderFn(f"x({i})^{k}", dim=3), 1, spec3)
            np.testing.assert_allclose(r(pts).real, moment * spec3.a(i) ** k, rtol=1e-12)
        r = gm.reduce_fn(CylinderFn("x(3)^8", dim=3), 1, spec3)
        assert abs(r(pts[:1])[0].real / (105 * spec3.a(3) ** 8) - 1) > 0.1

    def test_tail_rule_over_budget_is_refused(self):
        # equal scales keep 8 nodes on every axis: 8^6 exceeds the budget
        flat = gm.GaussianSpec(4, a_rule=lambda i: 0.25)
        with pytest.raises(ValueError, match=r"\(8, 8, 8, 8, 8, 8\) nodes per axis exceeds"):
            gm.reduce_fn(bump_fn(4, 0.8), 1, flat)
        assert _counts(gm.reduce_fn(bump_fn(4, 0.8), 2, flat)) == [8, 8, 8, 8]

    def test_batched_tail_one_call_per_batch(self, spec3):
        f = RecordingFn(bump_fn(3, 0.8))
        r = gm.reduce_fn(as_leaf(f), 1, spec3)
        T = math.prod(_counts(r))
        assert _rule(r)._tail_pts.shape[0] == T
        pts = gm.sample(spec3, 200, 6, n=1)
        r(pts)
        live = _live_counts(r, pts)
        node = {tuple(t): j for j, t in enumerate(_rule(r)._tail_pts)}
        seen = set()
        for call in f.seen:
            assert len(call) <= gm._TAIL_CHUNK
            nodes, rows = np.unique([node[tuple(p)] for p in call[:, 2:]], return_counts=True)
            assert np.array_equal(rows, live[nodes])  # whole nodes only
            assert seen.isdisjoint(nodes)
            seen.update(nodes.tolist())
        assert sum(len(call) for call in f.seen) == live.sum() < 200 * T
        # greedy: whole nodes while the call stays within _TAIL_CHUNK rows
        calls, rows = 0, None
        for k in live:
            if rows is None or rows + k > gm._TAIL_CHUNK:
                calls += bool(rows)  # a group of zero rows makes no call
                rows = 0
            rows += k
        calls += bool(rows)
        assert f.calls == calls

    def test_integrand_is_compiled_once_per_call(self, spec3, monkeypatch):
        f = random_bump_fn(np.random.default_rng(21), 3, 0.8)
        r = gm.reduce_fn(f, 1, spec3)
        pts = gm.sample(spec3, 200, 6, n=1)
        compiled, runs = compiles_and_runs(monkeypatch)
        got = _rule(r)(pts)
        monkeypatch.undo()
        assert len(runs) > 1 and compiled == [f.expr]  # several batches, one tape
        for cols, vals in runs:  # each batch as its own evaluation of f
            assert np.array_equal(vals, f(cols))
        assert np.array_equal(got, _per_node(r, pts))

    def test_masked_tail_equals_dense_loop(self, spec2, spec3):
        # the mollifier grid of the approximation pipeline
        f = bump_fn(2, 0.4, poly="1+x(1)-y(2)^2")
        axis = np.linspace(-0.45, 0.45, 61)
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")], 1)
        r = gm.reduce_fn(f, 1, spec2)
        assert 0 < _live_counts(r, grid).sum() < 0.2 * len(grid) * 64
        assert np.array_equal(r(grid), _per_node(r, grid))
        d = r.d_dx(1)
        assert np.array_equal(d(grid), _per_node(d, grid))
        # no support radius: every pair is live
        r = gm.reduce_fn(CylinderFn("exp(x(1)*y(3))*(1+x(2)^2)", dim=3), 1, spec3)
        pts = gm.sample(spec3, 300, 12, n=1)
        assert np.array_equal(r(pts), _per_node(r, pts))
        # every head outside the ball: zeros, and the integrand is never called
        counting = CountingFn(f)
        far = grid[np.sum(grid ** 2, axis=1) > 0.41 ** 2]
        got = gm.reduce_fn(as_leaf(counting), 1, spec2)(far)
        assert got.shape == (len(far),) and np.array_equal(got, np.zeros(len(far)))
        assert counting.calls == 0

    def test_integrand_sees_only_its_support_ball(self, spec3):
        f = RecordingFn(random_bump_fn(np.random.default_rng(13), 3, 0.8))
        r = gm.reduce_fn(as_leaf(f), 1, spec3)
        pts = gm.sample(spec3, 400, 14, n=1)
        r(pts)
        seen = np.concatenate(f.seen)
        head, tail = np.sum(seen[:, :2] ** 2, axis=1), np.sum(seen[:, 2:] ** 2, axis=1)
        assert np.all(head <= gm.support_rsq(0.8) - tail)
        assert len(seen) == _live_counts(r, pts).sum()

    def test_lower_dim_factor_does_not_bound_the_tail(self, spec2):
        # bump(|z_1|^2) * x2^2 is supported in the unit ball of C^1, not of C^2
        f = bump_fn(1, 1.0) * CylinderFn("x(2)^2")
        assert f.support_radius is None
        got = gm.reduce_fn(f, 1, spec2)(np.array([[0.95, 0.0]]))
        want = math.exp(-1.0 / (1.0 - 0.95 ** 4)) * spec2.a(2) ** 2
        np.testing.assert_allclose(got.real, want, rtol=1e-12)

    def test_a_non_finite_head_is_not_masked(self, spec2):
        # the support ball must not turn a NaN head into an exact 0
        f = bump_fn(2, 0.8, poly="1+x(1)")
        pts = np.array([[np.nan, 0.1], [0.3, -0.2], [np.inf, 0.0], [0.9, 0.0], [-0.1, 0.4]])
        with np.errstate(invalid="ignore"):  # (1 + inf) * 0
            got = gm.reduce_fn(f, 1, spec2)(pts)
            unbounded = gm.reduce_fn(CylinderFn(f.expr), 1, spec2)(pts)
        assert np.all(np.isnan(got[[0, 2]])) and np.all(np.isnan(unbounded[[0, 2]]))
        assert np.array_equal(got[[1, 3, 4]], _per_node(gm.reduce_fn(f, 1, spec2), pts[[1, 3, 4]]))

    def test_tied_heads_keep_the_per_node_bits(self, spec2):
        # a symmetric grid of heads: (+-a, +-b) and (+-b, +-a) tie in |head|^2, and
        # tied heads may be sorted in any order, since each sums its own nodes
        f = bump_fn(2, 0.5, poly="1+x(1)-y(1)^2+x(2)")
        axis = np.linspace(-0.6, 0.6, 25)
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")], 1)
        pts = np.concatenate([grid, [[np.nan, 0.1]]])
        hsq = np.sum(grid ** 2, axis=1)
        assert len(np.unique(hsq)) < len(hsq) / 3
        r = gm.reduce_fn(f, 1, spec2)
        # live at no node: |head|^2 above the bound of the node nearest the origin
        dead = hsq > gm.support_rsq(0.5) - np.min(np.sum(_rule(r)._tail_pts ** 2, axis=1))
        assert 0 < dead.sum() < len(grid)
        with np.errstate(invalid="ignore"):
            got = r(pts)
            ref = _per_node(r, pts)
        assert got.tobytes() == ref.tobytes()
        assert np.isnan(got[-1]) and not np.any(np.isnan(got[:-1]))
        assert got[:-1][dead].tobytes() == np.zeros(dead.sum(), dtype=complex).tobytes()

    def test_batched_tail_eval_error_propagates(self, spec3):
        r = gm.reduce_fn(CylinderFn("log(x(3))", dim=3), 1, spec3)
        with pytest.raises(EvalError):
            r(gm.sample(spec3, 200, 7, n=1))


class TestGaussGreen:
    def test_stein_identity(self, spec3):
        rep = gm.gauss_green_residual(CylinderFn("x(1)"), 1, spec3, MC)
        assert rep.lhs == pytest.approx(1.0)
        assert gm.verdict(-rep.residual, rep.stderr, 1e-8)

    def test_constant(self, spec3):
        rep = gm.gauss_green_residual(CylinderFn("1"), 1, spec3, MC)
        assert rep.lhs == 0.0
        assert gm.verdict(-rep.residual, rep.stderr, 1e-8)

    def test_bump(self, spec3):
        f = bump_fn(1, 1.0)
        rep = gm.gauss_green_residual(f, 1, spec3, MC)
        assert rep.residual <= 3 * rep.stderr

    def test_deterministic(self, spec1):
        f = bump_fn(1, 1.6, poly="x(1)+y(1)^2")
        rep = gm.gauss_green_residual(f, 1, spec1,
                                      gm.Quadrature("gauss_hermite", nodes_per_axis=48))
        assert rep.residual <= 1e-8
        assert rep.stderr == 0.0


class TestVerdict:
    """One pass rule: margin >= -3 stderr with a stderr, else margin >= -tol."""

    @pytest.mark.parametrize("margin, stderr, tol, want", [
        (-0.29, 0.1, 0.0, True),      # stderr > 0: tol is ignored
        (-0.31, 0.1, 1.0, False),
        (-0.31, 0.1, 0.0, False),
        (-1e-9, 0.0, 1e-8, True),     # stderr = 0: tol applies
        (-1e-7, 0.0, 1e-8, False),
        (0.0, 0.0, 0.0, True),
        (-1e-300, 0.0, 0.0, False),
    ])
    def test_table(self, margin, stderr, tol, want):
        assert gm.verdict(margin, stderr, tol) is want

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.25])
    def test_exact_boundary(self, tol):
        assert gm.verdict(-tol, 0.0, tol) is True
        assert gm.verdict(np.nextafter(-tol, -np.inf), 0.0, tol) is False

    def test_three_stderr_boundary(self):
        edge = -3.0 * 0.1
        assert gm.verdict(edge, 0.1, 0.0) is True
        assert gm.verdict(np.nextafter(edge, -np.inf), 0.1, 0.0) is False

    def test_gauss_green_report_uses_it(self, monkeypatch):
        # the identities command judges the residual at the config's deterministic tol
        def record(residual, stderr, tol):
            monkeypatch.setattr(gm, "gauss_green_residual", lambda *args: gm.GaussGreenReport(
                1.0, 1.0, residual=residual, stderr=stderr))
            config = {"trunc_dim": 1, "quadrature": {"kind": "monte_carlo", "N": 200},
                      "tolerances": {"deterministic": tol},
                      "forms": [{"degree": [0, 0],
                                 "entries": [{"I": [], "J": [], "coeff": "x(1)"}]}]}
            rec = next(cli.cmd_identities(cli.read_config("identities", config), 0, None))
            assert (rec.check_id, rec.margin, rec.stderr) == ("gauss_green_x1", -residual,
                                                               stderr)
            return rec.passed

        for tol in (1e-8, 1e-3):
            assert record(tol, 0.0, tol) is True
            assert record(np.nextafter(tol, np.inf), 0.0, tol) is False
        assert record(3.0 * 0.1, 0.1, 1e-8) is True  # with a stderr: 3 stderr
        assert record(np.nextafter(3.0 * 0.1, 1.0), 0.1, 1e-8) is False

    def test_record_columns(self):
        rec = gm.CheckOutcome.judged("c", 1.5, 2.0, 0.5, 0.0, 0.0)
        assert rec.passed is True
        assert rec.row() == ["c", "1.5", "2.0", "0.0", "0.5", "true"]
        assert rec.json_obj() == {"check_id": "c", "lhs": 1.5, "rhs": 2.0, "stderr": 0.0,
                                  "margin": 0.5, "pass": True}
        # margin before stderr, as in verdict
        rec = gm.CheckOutcome.judged("c", 0.0, 0.0, -0.3, 0.1, 0.0)
        assert (rec.margin, rec.stderr, rec.passed) == (-0.3, 0.1, True)
        refused = gm.CheckOutcome.refused("c", "refused")
        assert (refused.passed, refused.reason) == (None, "refused")
        assert refused.row() == ["c", "0.0", "0.0", "0.0", "0.0", "false"]

    def test_strict_tol_fails_at_zero(self):
        assert gm.verdict(0.0, 0.0, gm.STRICT) is False
        assert gm.verdict(-0.0, 0.0, gm.STRICT) is False
        assert gm.verdict(np.nextafter(0.0, 1.0), 0.0, gm.STRICT) is True


class TestPastTheTruncation:
    """An integrand over more coordinates than the truncation is refused with
    ``ValueError`` at every entry point, also where its support ball keeps no
    node: x(3) times a bump of radius 0.1 in C^3, at trunc_dim 2 with GH4, where
    every node has |x1| >= 0.18."""

    F = CylinderFn("x(3)*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2+x(3)^2+y(3)^2)/0.01)")
    GH4 = gm.Quadrature("gauss_hermite", nodes_per_axis=4)

    @pytest.mark.parametrize("entry", ["integrate", "gauss_green_residual", "norm_sq",
                                       "inner", "ibp_residual", "ibp_residual_weighted",
                                       "weak_dbar_residual"])
    def test_is_refused(self, spec2, fam, entry):
        f, g, q = self.F, CylinderFn("1+x(1)"), self.GH4
        u = fm.Form((0, 0), {((), ()): f}, fam)
        run = {"integrate": lambda: gm.integrate(f, spec2, q),
               "gauss_green_residual": lambda: gm.gauss_green_residual(f, 1, spec2, q),
               "norm_sq": lambda: fm.norm_sq(u, None, spec2, q),
               "inner": lambda: fm.inner(u, u, CylinderFn("x(1)^2"), spec2, q),
               "ibp_residual": lambda: do.ibp_residual(f, g, 1, spec2, q),
               "ibp_residual_weighted": lambda: do.ibp_residual(
                   f, g, 1, spec2, q, weighted=True, varphi=CylinderFn("x(1)^2")),
               "weak_dbar_residual": lambda: do.weak_dbar_residual(
                   u, do.dbar(u), g, (), (1,), spec2, q)}[entry]
        with pytest.raises(ValueError, match="exceed"):
            run()


class TestEstimate:
    """One estimator: mean sum(w v); stderr std(v)/sqrt(N) for Monte Carlo, 0 for
    Gauss-Hermite.  Every integral and residual is that estimate of its integrand."""

    MC_SMALL = gm.Quadrature("monte_carlo", N=2000, seed=5)
    GH_SMALL = gm.Quadrature("gauss_hermite", nodes_per_axis=6)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_monte_carlo_stderr(self, dtype):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(1000).astype(dtype)
        if dtype is complex:
            v = v + 1j * rng.standard_normal(1000)
        w = np.full(1000, 1e-3)
        est = gm.estimate(v, w, self.MC_SMALL)
        assert est.stderr == float(np.std(v) / math.sqrt(len(v)))
        assert est.mean == complex(np.sum(w * v))

    def test_deterministic_rule_has_no_stderr(self, spec2):
        pts, w = self.GH_SMALL.nodes_weights(spec2)
        v = np.cos(pts[:, 0]) + 1j * pts[:, 3]
        est = gm.estimate(v, w, self.GH_SMALL)
        assert est.stderr == 0.0
        assert est.mean == complex(np.sum(w * v))

    @staticmethod
    def _inner(fa, fb, w_fn, pts):
        """Sum' c f_a conj(f_b) e^{-w}, coefficient by coefficient."""
        total = np.zeros(len(pts), dtype=complex)
        for key in set(fa.coeffs) & set(fb.coeffs):
            total += fa.family.coeff(*key) * fa.coeffs[key](pts) \
                * np.conjugate(fb.coeffs[key](pts))
        return total * np.exp(-np.real(w_fn(pts)))

    def _cases(self, spec, fam):
        a1 = spec.a(1)
        f, g = CylinderFn("x(1)*y(2)+sin(x(2))"), CylinderFn("1+x(1)^2-y(1)*x(2)")
        varphi, w = CylinderFn("x(1)^2+y(2)^2"), CylinderFn("0.5*x(2)^2")
        u = fm.Form((0, 0), {((), ()): f}, fam)
        v = fm.Form((0, 1), {((), (1,)): g, ((), (2,)): f}, fam)
        ctx = do.OperatorContext(spec, fam, w, varphi, CylinderFn("0"), varphi)
        yield ("integrate", lambda q: gm.integrate(f, spec, q), lambda p: f(p))
        yield ("norm_sq", lambda q: fm.norm_sq(v, w, spec, q),
               lambda p: np.real(self._inner(v, v, w, p)))
        yield ("inner", lambda q: fm.inner(v, v.scale(1j), w, spec, q),
               lambda p: self._inner(v, v.scale(1j), w, p))
        yield ("adjoint_residual", lambda q: do.adjoint_residual(u, v, ctx, q),
               lambda p: self._inner(do.dbar(u), v, ctx.w2, p)
               - self._inner(u, do.Tstar(v, ctx), ctx.w1, p))
        yield ("ibp_delta", lambda q: do.ibp_residual(f, g, 1, spec, q),
               lambda p: delbar_op(f, 1)(p) * np.conjugate(g(p))
               + f(p) * np.conjugate(delta_op(g, 1, a1)(p)))
        yield ("ibp_sigma", lambda q: do.ibp_residual(f, g, 1, spec, q, weighted=True,
                                                      varphi=varphi),
               lambda p: (delbar_op(f, 1)(p) * np.conjugate(g(p))
                          + f(p) * np.conjugate(sigma_op(g, 1, a1, varphi)(p)))
               * np.exp(-np.real(varphi(p))))
        yield ("weak_dbar_residual",
               lambda q: do.weak_dbar_residual(u, v, g, (), (1,), spec, q),
               lambda p: -f(p) * np.conjugate(delta_op(g, 1, a1)(p))
               - g(p) * np.conjugate(g(p)))
        yield ("gauss_green_residual", lambda q: gm.gauss_green_residual(f, 1, spec, q),
               lambda p: f.d_dx(1)(p) - (p[:, 0] / a1 ** 2) * f(p))

    @pytest.mark.parametrize("kind", ["monte_carlo", "gauss_hermite"])
    def test_every_integral_is_the_estimate_of_its_integrand(self, spec2, fam, kind):
        quad = self.MC_SMALL if kind == "monte_carlo" else self.GH_SMALL
        pts, w = quad.nodes_weights(spec2)
        for name, run, integrand in self._cases(spec2, fam):
            got = run(quad)
            want = gm.estimate(integrand(pts), w, quad)
            if name == "gauss_green_residual":
                got = gm.MCEstimate(got.residual, got.stderr)
                want = gm.MCEstimate(abs(want.mean), want.stderr)
            assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15), name
            assert got.stderr == pytest.approx(want.stderr, rel=1e-12), name
            assert (got.stderr == 0.0) is quad.deterministic, name
