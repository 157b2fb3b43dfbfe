import numpy as np
import pytest

from dbarl2 import domains as dm
from dbarl2 import gaussmeasure as gm
from dbarl2 import reduction as rd
from dbarl2.forms import Form
from dbarl2.symfun import CylinderFn, germ_step, mul, const, add, parse

from conftest import bump_fn, grid_of

MC20K = gm.Quadrature("monte_carlo", N=20_000, seed=404)  # a pipeline's quadrature


class TestMollifierKernel:
    @pytest.mark.parametrize("n", [1, 2])
    def test_audits(self, n):
        aud = rd.audit_mollifier(n)
        assert aud.mass_deviation <= 1e-6
        assert aud.exterior_max == 0.0
        assert aud.radial_deviation <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_mass_reads_the_evaluated_kernel(self, n, monkeypatch):
        m = rd.mollifier(n)
        assert abs(m.mass_quadrature() - 1.0) <= 1e-12
        level = rd.Mollifier.level
        monkeypatch.setattr(rd.Mollifier, "level", lambda self, r: 1.1 * level(self, r))
        assert m.mass_quadrature() == pytest.approx(1.1, rel=1e-12)

    def test_scaled_mass(self):
        m = rd.mollifier(1)
        # numerically integrate the delta-scaled kernel on a grid
        ax = np.linspace(-0.3, 0.3, 401)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=1)
        vals = m.scaled(pts, 0.25)
        h = ax[1] - ax[0]
        assert float(np.sum(vals)) * h * h == pytest.approx(1.0, abs=1e-6)


def direct_same_convolution(a, k):
    """The linear convolution a * k by direct summation over the kernel,
    cropped to the grid of a with the kernel's centre (sk - 1) // 2."""
    full = np.zeros([sa + sk - 1 for sa, sk in zip(a.shape, k.shape)], dtype=complex)
    for q in np.ndindex(k.shape):
        full[tuple(slice(qi, qi + sa) for qi, sa in zip(q, a.shape))] += k[q] * a
    return full[tuple(slice((sk - 1) // 2, (sk - 1) // 2 + sa)
                      for sa, sk in zip(a.shape, k.shape))]


class TestFFTConvolve:
    @pytest.mark.parametrize("a_shape, k_shape", [
        ((17, 12), (5, 3)),         # full lengths 21 and 14: neither 5-smooth
        ((20, 11), (9, 4)),         # 28 (not 5-smooth) and an even kernel
        ((7, 8, 6, 9), (3, 5, 3, 5)),  # full lengths 9, 12, 8 and 13
        ((9, 9, 9, 9), (7, 7, 7, 7)),  # 15 on every axis
    ])
    def test_matches_direct_sum(self, a_shape, k_shape):
        rng = np.random.default_rng(len(a_shape) + sum(k_shape))
        a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
        k = rng.standard_normal(k_shape) + 1j * rng.standard_normal(k_shape)
        ref = direct_same_convolution(a, k)
        got = rd._fftconvolve(a, k)
        assert got.shape == a.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_smooth_lengths(self):
        assert [rd._smooth_len(m) for m in (1, 7, 13, 14, 21, 121, 149, 251)] == \
            [1, 8, 15, 15, 24, 125, 150, 256]

    def test_smooth_length_is_the_least_5_smooth_length(self):
        def smooth(c):
            for p in (2, 3, 5):
                while c % p == 0:
                    c //= p
            return c == 1

        want = 1
        for m in range(1, 5001):
            while not smooth(want) or want < m:
                want += 1
            assert rd._smooth_len(m) == want


class TestMollify:
    def test_plateau_preserved(self, spec1):
        # the step germ of 2(|z|^2 - 1/4) is 0 from |z|^2 = 3/4 on, the ball the
        # support rule derives from it
        ind = CylinderFn(germ_step(mul(const(2.0), add(parse("x(1)^2+y(1)^2"), const(-0.25)))))
        assert ind.support_radius == pytest.approx(np.sqrt(0.75), rel=1e-15)
        g = rd.mollify(ind, 0.1, grid_res=161)
        inner = np.array([[0.0, 0.0], [0.1, 0.1], [0.3, 0.0]])
        np.testing.assert_allclose(g(inner).real, 1.0, atol=1e-9)

    def test_support_growth(self, spec1):
        f = bump_fn(1, 0.5)
        g = rd.mollify(f, 0.1, grid_res=121)
        # R + delta, and one cell diagonal of the interpolation past it
        assert g.support_radius == pytest.approx(0.6 + g.h * np.sqrt(2), rel=1e-15)
        ax = g.axes()
        mesh = np.meshgrid(ax, ax, indexing="ij")
        radii = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        exterior = np.abs(g.values)[radii > 0.6]
        assert exterior.size > 0
        assert float(np.max(exterior)) == 0.0

    def test_no_value_past_the_support_radius(self):
        # the multilinear interpolation reaches one cell diagonal past the last
        # nonzero grid value, R + delta = 0.5 here; at grid_res 41 the values
        # leak up to |z| = 0.530, so R + delta alone is not a bound
        g = rd.mollify(CylinderFn("x(1)*bump((x(1)^2+y(1)^2)/0.16)"), 0.1, grid_res=41)
        rng = np.random.default_rng(41)

        def shell(lo, hi, m=200_000):
            rad = hi - (hi - lo) * rng.random(m)  # in (lo, hi]
            ang = rng.uniform(0.0, 2.0 * np.pi, m)
            return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)

        assert np.count_nonzero(g(shell(0.5, g.support_radius))) > 0
        for fn in (g, g.d_dx(1), g.d_dy(1)):
            r = fn.support_radius
            assert not np.any(fn(shell(r, r + 0.05)))

    def test_delta_ladder_decreases(self, spec1):
        f = bump_fn(1, 0.5)
        errs = []
        for d in (0.2, 0.1, 0.05):
            g = rd.mollify(f, d, grid_res=121)
            ax = g.axes()
            mesh = np.meshgrid(ax, ax, indexing="ij")
            pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
            fv = f(pts).reshape(g.shape)
            errs.append(np.sqrt(rd.l2_gauss_grid(g.values - fv, g, spec1)))
        assert errs[0] > errs[1] > errs[2]

    def test_l1_sq_deviation_decreases(self, spec1):
        f = bump_fn(1, 0.5, poly="1+x(1)")
        devs = []
        for d in (0.2, 0.1, 0.05):
            g = rd.mollify(f, d, grid_res=121)
            ax = g.axes()
            mesh = np.meshgrid(ax, ax, indexing="ij")
            pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
            fv = f(pts).reshape(g.shape)
            diff = np.abs(np.abs(g.values) ** 2 - np.abs(fv) ** 2)
            a = spec1.a(1)
            dens = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * a * a)) / (2 * np.pi * a * a)
            devs.append(float(np.sum(diff * dens) * g.h ** 2))
        assert devs[0] > devs[1] > devs[2]

    def test_resolution_guards(self, spec1):
        f = bump_fn(1, 0.5)
        with pytest.raises(rd.ResolutionError):
            rd.mollify(f, 0.01, grid_res=21)
        with pytest.raises(rd.ResolutionError):
            rd.mollify(CylinderFn("x(1)"), 0.1)
        with pytest.raises(rd.ResolutionError):
            rd.mollify(bump_fn(3, 0.5), 0.1)

    def test_gridfn_stencil_derivative(self, spec1):
        f = bump_fn(1, 0.5, poly="x(1)")
        g = grid_of(f, 1, 0.7, 201)
        dx = g.d_dx(1)
        pts = np.array([[0.1, 0.05], [0.0, 0.2]])
        sym = f.d_dx(1)(pts)
        np.testing.assert_allclose(dx(pts), sym, atol=5e-3)


def _per_corner(g, pts):
    """Reference: multilinear interpolation gathered per corner by 2n-d fancy
    indexing, the points inside the grid box gathered and scattered back."""
    q = pts[:, :2 * g.dim]
    m = g.shape[0]
    u = (q + g.extent) / g.h
    out = np.zeros(len(q), dtype=complex)
    inside = np.all((u >= 0.0) & (u <= m - 1), axis=1)
    if not np.any(inside):
        return out
    ui = u[inside]
    base = np.minimum(np.floor(ui).astype(int), m - 2)
    frac = ui - base
    acc = np.zeros(int(inside.sum()), dtype=complex)
    for corner in range(1 << (2 * g.dim)):
        w = np.ones(len(ui))
        idx = []
        for ax in range(2 * g.dim):
            bit = (corner >> ax) & 1
            w = w * (frac[:, ax] if bit else 1.0 - frac[:, ax])
            idx.append(base[:, ax] + bit)
        acc += w * g.values[tuple(idx)]
    out[inside] = acc
    return out


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestGridFn:
    @pytest.fixture(params=[1, 2], ids=["n1", "n2"])
    def grid(self, request):
        # extent 1 on 9 or 5 points: h is a power of two, so the last grid line is u = m - 1
        n = request.param
        f = CylinderFn("(1+x(1)-0.5*y(1))*exp(x(%d)*y(%d))" % (n, n), dim=n)
        return grid_of(f, n, 1.0, 9 if n == 1 else 5)

    def test_gathers_match_the_per_corner_loop(self, grid):
        d = 2 * grid.dim
        rng = np.random.default_rng(23)
        inside = rng.uniform(-1.0, 1.0, (300, d))
        some_out = rng.uniform(-1.6, 1.6, (300, d))
        all_out = some_out[np.any(np.abs(some_out) > 1.0, axis=1)]
        assert 0 < len(all_out) < len(some_out)
        lines = rng.uniform(-1.0, 1.0, (40, d))
        lines[:20, 0] = 1.0   # u = m - 1 on the first axis
        lines[20:, -1] = -1.0  # u = 0 on the last
        lines[::3, 1] = 1.0
        u_last = (lines + grid.extent) / grid.h
        assert np.any(u_last == grid.shape[0] - 1) and np.any(u_last == 0.0)
        mix = np.concatenate([inside[:50], all_out[:50], lines])[rng.permutation(140)]
        for pts in (inside, some_out, all_out, lines, mix):
            got = grid(pts)
            assert got.shape == (len(pts),) and got.dtype == complex
            assert _bits(got) == _bits(_per_corner(grid, pts))

    def test_a_nan_gives_nan_and_an_inf_gives_zero(self, grid):
        d = 2 * grid.dim
        pts = np.full((5, d), 0.25)
        pts[0, 0] = np.nan
        pts[1, -1] = np.inf
        pts[2, 0], pts[2, -1] = np.nan, -np.inf  # outside on one axis
        pts[3, 0] = 1.5
        with np.errstate(invalid="ignore"):
            got = grid(pts)
        assert np.isnan(got[0].real) and np.isnan(got[0].imag)
        assert _bits(got[1:4]) == _bits(np.zeros(3, dtype=complex))
        assert _bits(got[4:]) == _bits(_per_corner(grid, pts[4:]))

    def test_mollify_builds_its_grid_mesh_once(self, monkeypatch):
        sizes = []
        mesh = rd._mesh

        def counting(ax, d):
            sizes.append(len(ax))
            return mesh(ax, d)
        monkeypatch.setattr(rd, "_mesh", counting)
        rd.mollify(bump_fn(1, 0.5), 0.1, grid_res=61)
        assert sizes.count(61) == 1

    def test_grid_of_declares_a_true_radius(self):
        # the interpolation is nonzero up to a cell diagonal past f's radius 0.5: the
        # test helper declares 0.5 + h sqrt(2), as mollify does, and nothing lies beyond
        g = grid_of(CylinderFn("(1+x(1))*bump((x(1)^2+y(1)^2)/0.25)"), 1, 0.7, 21)
        assert g.support_radius == pytest.approx(0.5 + 0.07 * np.sqrt(2.0), rel=1e-15)
        rng = np.random.default_rng(31)
        r, t = rng.uniform(0.5, 0.65, 200_000), rng.uniform(0.0, 2.0 * np.pi, 200_000)
        vals = g(np.stack([r * np.cos(t), r * np.sin(t)], axis=1))
        assert np.count_nonzero(vals[r <= g.support_radius]) > 0
        assert np.max(r[vals != 0]) > 0.59
        assert np.count_nonzero(vals[r > g.support_radius]) == 0


class TestConvolutionAdjoint:
    def test_zero_g(self, spec1):
        f = bump_fn(1, 0.5)
        res = rd.convolution_adjoint_residual(f, CylinderFn("0", support_radius=0.1),
                                              1, 0.1, spec1)
        assert res == 0.0

    def test_random_pair(self, spec1):
        f = bump_fn(1, 0.5)
        g = CylinderFn("bump(((x(1)-0.1)^2+y(1)^2)/0.36)", support_radius=0.7)
        res = rd.convolution_adjoint_residual(f, g, 1, 0.1, spec1)
        assert res <= 1e-4

    def test_symmetric_pair(self, spec1):
        f = bump_fn(1, 0.6)
        res = rd.convolution_adjoint_residual(f, f, 1, 0.1, spec1)
        assert res <= 1e-4


class TestPipeline:
    def test_zero_form(self, spec1, fam):
        f = Form((0, 1), {}, fam)
        rep = rd.approx_pipeline(f, dm.whole_space(), 2.0, [1], [0.1], spec1, MC20K, 101)
        assert rep.output.is_zero()
        assert rep.ladder[-1].norm_error == 0.0

    def test_cutoff_plateau_no_change_on_support(self, spec1, fam):
        f = Form((0, 1), {((), (1,)): bump_fn(1, 0.4)}, fam)
        dom = dm.whole_space()
        rep = rd.approx_pipeline(f, dom, rho=2.0, n_ladder=[1],
                                 delta_ladder=[0.1], spec=spec1, quad=MC20K,
                                 grid_res=121)
        out = rep.output
        pts = gm.sample(spec1, 200, 9)
        inside = pts[np.sum(pts ** 2, axis=1) <= 0.4 ** 2]
        # eta_rho = 1 on the support, so the cut-off factor changes nothing
        red = rd.mollify(f.coeff((), (1,)), 0.1, grid_res=121)
        np.testing.assert_allclose(out.coeff((), (1,))(inside), red(inside),
                                   atol=1e-12)

    def test_delta_ladder_report(self, spec1, fam, tmp_path):
        f = Form((0, 1), {((), (1,)): bump_fn(1, 0.4, poly="x(1)")}, fam)
        dom = dm.whole_space()
        rep = rd.approx_pipeline(f, dom, rho=2.0, n_ladder=[1],
                                 delta_ladder=[0.2, 0.1, 0.05], spec=spec1,
                                 quad=gm.Quadrature("monte_carlo", N=20000, seed=10),
                                 grid_res=121)
        errs = [row.norm_error for row in rep.ladder]
        assert errs[0] > errs[1] > errs[2]
        out = tmp_path / "ladder.csv"
        rep.write_csv(str(out))
        text = out.read_text().splitlines()
        assert text[0] == "n,delta,norm_error,stderr"
        assert len(text) == 4

    def test_zero_coefficient_output(self, spec1, fam):
        f = Form((0, 1), {((), (1,)): CylinderFn("0*x(1)", support_radius=0.4)}, fam)
        dom = dm.whole_space()
        rep = rd.approx_pipeline(f, dom, rho=2.0, n_ladder=[1], delta_ladder=[0.1],
                                 spec=spec1, quad=MC20K, grid_res=61)
        assert rep.ladder[-1].norm_error <= 1e-12


def _ladder_reference(f, rho, n_ladder, delta_ladder, spec, quad, grid_res):
    """The error ladder by a per-key loop over separately evaluated candidates."""
    eta = dm.whole_space().eta(spec.trunc_dim)
    eta_rho = CylinderFn(germ_step(add(eta.expr, const(-rho))), dim=eta.dim)
    pts, wq = quad.nodes_weights(spec)
    fvals = {key: fn(pts) for key, fn in f.coeffs.items()}
    rows = []
    for n in n_ladder:
        reduced = {key: gm.reduce_fn(fn, n, spec) for key, fn in f.coeffs.items()}
        for delta in delta_ladder:
            cand = Form(f.degree, {key: eta_rho * rd.mollify(red, delta, grid_res=grid_res)
                                   for key, red in reduced.items()}, f.family)
            total = np.zeros(pts.shape[0])
            for key in set(f.coeffs) | set(cand.coeffs):
                dv = cand.coeff(*key)(pts) - fvals[key]
                total += f.family.coeff(*key) * np.abs(dv) ** 2
            mean = float(np.sum(wq * total))
            rows.append((n, delta, np.sqrt(max(mean, 0.0)),
                         float(np.std(total) / np.sqrt(len(total)))))
    return rows


class TestFoldedLadder:
    """All candidates of one n through one integrand call equal the per-key
    loop exactly."""

    @pytest.mark.parametrize("two", [False, True])
    def test_equals_the_per_key_loop(self, two, spec1, spec2, fam):
        if two:
            spec = spec2
            f = Form((0, 1), {((), (1,)): bump_fn(2, 0.4, poly="1+x(1)"),
                              ((), (2,)): bump_fn(2, 0.5, poly="y(2)-x(1)")}, fam)
        else:
            spec = spec1
            f = Form((0, 1), {((), (1,)): bump_fn(1, 0.4, poly="x(1)")}, fam)
        kw = dict(rho=2.0, n_ladder=[1], delta_ladder=[0.2, 0.1, 0.05], spec=spec,
                  quad=gm.Quadrature("monte_carlo", N=4000, seed=12), grid_res=61)
        rep = rd.approx_pipeline(f, dm.whole_space(), **kw)
        want = _ladder_reference(f, **kw)
        assert [(r.n, r.delta, r.norm_error, r.stderr) for r in rep.ladder] == want
