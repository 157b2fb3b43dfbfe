import math

import numpy as np
import pytest

from dbarl2 import domains as dm
from dbarl2.symfun import EvalError


class TestBall:
    def test_center_value(self):
        b = dm.ball(r=1.0)
        assert b.eta(2)(np.zeros(4))[0].real == pytest.approx(0.0)

    def test_log_inversion(self):
        b = dm.ball(r=1.0)
        v = np.zeros(4)
        v[0] = math.sqrt(1 - math.exp(-1.0))
        assert b.eta(2)(v)[0].real == pytest.approx(1.0)

    def test_boundary_blowup(self):
        b = dm.ball(r=1.0)
        v = np.zeros(4)
        v[0] = math.sqrt(1 - 1e-6)
        assert b.eta(2)(v)[0].real == pytest.approx(6 * math.log(10.0), rel=1e-9)

    def test_outside_is_error(self):
        b = dm.ball(r=1.0)
        v = np.zeros(4)
        v[0] = 1.5
        with pytest.raises(EvalError):
            b.eta(2)(v)

    def test_translated_center(self):
        b = dm.ball(center=(0.5 + 0.25j,), r=2.0)
        v = np.array([0.5, 0.25, 0.0, 0.0])
        assert b.eta(2)(v)[0].real == pytest.approx(0.0)


class TestPolydisc:
    def test_center(self):
        pd = dm.polydisc()
        assert pd.eta(2)(np.zeros(4))[0].real == pytest.approx(1.0)

    def test_half_moduli(self):
        pd = dm.polydisc()
        v = np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0])
        assert pd.eta(2)(v)[0].real == pytest.approx(4.0)

    def test_pole_is_error(self):
        pd = dm.polydisc()
        v = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(EvalError):
            pd.eta(2)(v)


class TestLevi:
    def test_ball_identity_hessian(self):
        b = dm.ball(r=1.0)
        eig, = dm.levi_min_eigs(b.eta(2), np.zeros(4), 2)
        assert eig == pytest.approx(1.0, abs=1e-12)

    def test_catalog_positivity(self):
        for dom in (dm.ball(r=1.0), dm.polydisc(),
                    dm.ball(center=(0.1 + 0.05j,), r=1.5),
                    dm.whole_space()):
            pts = dom.sample_interior(2, 50, 77)
            assert float(np.min(dm.levi_min_eigs(dom.eta(2), pts, 2))) >= -1e-9

    def test_normalized_dominates_identity(self):
        nb = dm.normalize_eta(dm.ball(r=1.0))
        pts = nb.sample_interior(2, 50, 78)
        assert float(np.min(dm.levi_min_eigs(nb.eta(2), pts, 2))) >= 1.0 - 1e-6

    def test_normalized_gains_exactly_identity(self):
        b = dm.ball(r=1.0)
        nb = dm.normalize_eta(b)
        pts = b.sample_interior(2, 20, 79)
        base = dm.levi_min_eigs(b.eta(2), pts, 2)
        lifted = dm.levi_min_eigs(nb.eta(2), pts, 2)
        np.testing.assert_allclose(lifted, base + 1.0, atol=1e-9)

    def test_normalized_nonnegative(self):
        nb = dm.normalize_eta(dm.ball(r=1.0))
        pts = nb.sample_interior(2, 1000, 80)
        assert float(np.min(np.real(nb.eta(2)(pts)))) >= 0.0

    def test_hermitian_symmetry(self):
        b = dm.polydisc()
        pts = b.sample_interior(2, 20, 81)
        H = dm.complex_hessian(b.eta(2), pts, 2)
        dev = np.max(np.abs(H - np.conjugate(np.transpose(H, (0, 2, 1)))))
        assert dev <= 1e-10


class TestGeometry:
    def test_d_V_inside(self):
        b = dm.ball(r=1.0)
        assert dm.d_V(b, np.array([[0.5, 0, 0, 0]])) == pytest.approx([0.5])

    def test_d_V_at_center_uses_inverse_norm_convention(self):
        b = dm.ball(r=1.0)
        assert dm.d_V(b, np.zeros((1, 4))) == pytest.approx([1.0])

    def test_whole_space_dV(self):
        w = dm.whole_space()
        np.testing.assert_array_equal(dm.d_V(w, np.array([[2.0, 0.0], [0.0, 0.0]])),
                                      [0.5, math.inf])

    def test_sublevel_uniformly_included(self):
        b = dm.ball(r=1.0)
        for tau in (0.5, 1.0, 2.0):
            assert dm.uniformly_included(b, tau, n=2, seed=83) > 0

    def test_short_sublevel_sample_raises(self):
        # 60 draws of 2000 points hold only 6 with eta <= 0.01 in the unit ball of C^2
        with pytest.raises(ValueError, match="only 6 of 1000 interior samples"):
            dm.ball(r=1.0).sample_sublevel(2, 0.01, 1000, 1)

    def test_nesting(self):
        b = dm.ball(r=1.0)
        t1, t2 = 0.5, 1.0
        pts = b.sample_sublevel(2, t1, 500, 84)
        vals = np.real(b.eta(2)(pts))
        assert np.all(vals <= t1)
        assert np.all(vals < t2)

    def test_lipschitz_on_sublevel(self):
        b = dm.ball(r=1.0)
        rng = np.random.default_rng(85)
        pts = b.sample_sublevel(2, 1.0, 2000, 86)
        eta = b.eta(2)
        vals = np.real(eta(pts))
        idx = rng.permutation(len(pts))
        a, c = pts[idx[:1000]], pts[idx[1000:2000]]
        va, vc = vals[idx[:1000]], vals[idx[1000:2000]]
        dz = np.linalg.norm(a - c, axis=1)
        keep = dz > 1e-9
        ratio = np.abs(va[keep] - vc[keep]) / dz[keep]
        assert float(np.max(ratio)) <= 1e3

    def test_sublevel_gap_scales(self):
        # d(V_t1, boundary of V_t2) >= (t2 - t1)/C(t2), sampled proxy
        b = dm.ball(r=1.0)
        t1, t2 = 0.5, 1.5
        inner = b.sample_sublevel(2, t1, 300, 87)
        shell = b.sample_sublevel(2, t2, 3000, 88)
        sv = np.real(b.eta(2)(shell))
        near = shell[sv >= t2 - 0.05]
        if len(near):
            dmin = np.min(np.linalg.norm(inner[:, None, :] - near[None, :, :], axis=2))
            assert dmin > 0.0
