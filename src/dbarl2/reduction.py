"""Mollification on the reduced finite-dimensional slice and the approximation pipeline.

The mollifier is the radial bump profile on C^n normalized to unit Lebesgue
mass; its normalising constant comes from a 600-node Gauss-Legendre rule of
the radial integral, and the unit-mass audit reads the kernel with a distinct
400-node rule, so the audit measures the normalisation instead of repeating
it.  Convolution runs on a uniform grid (n in {1, 2}, so 2 or 4 real
dimensions) by numpy FFTs.  Mollified coefficients come back as grid-backed
functions with stencil first derivatives, flagged approximate; the pipeline
composes reduce -> mollify -> multiply by the smooth cut-off eta_rho and
reports the error ladder over (n, delta) in the unweighted norm (the family's
c[I, J], no e^{-w}); its caller gives the quadrature and the grid size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .domains import Domain
from .forms import Form, _weighted_sq_vals
from .gaussmeasure import (GaussianSpec, Quadrature, _leggauss, _mesh, integrals, reduce_fn,
                           support_mask)
from .symfun import CylinderFn, bump_values, support
from .weights import smooth_step


def _radial_mass(level, d: int, nodes: int) -> float:
    """|S^(d-1)| times the nodes-point Gauss-Legendre rule on [0, 1] for the
    integral of level(r) r^(d-1): the Lebesgue mass of a radial kernel on R^d."""
    t, w = _leggauss(nodes)
    r = 0.5 * (t + 1.0)
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return surface * 0.5 * float(np.sum(w * level(r) * r ** (d - 1)))


@dataclass
class Mollifier:
    """Radial unit-mass bump kernel on C^n, scalable to width delta."""

    n: int
    norm_const: float  # gamma_n = norm_const * bump(|z|)

    def level(self, radii: np.ndarray) -> np.ndarray:
        return self.norm_const * bump_values(np.asarray(radii, dtype=float), 0)

    def scaled(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """gamma_{n,delta}(z) = delta^(-2n) gamma_n(z/delta) at real points (N, 2n)."""
        r = np.linalg.norm(pts, axis=1) / delta
        return self.level(r) / delta ** (2 * self.n)

    def mass_quadrature(self) -> float:
        """Mass of the kernel as ``level`` evaluates it, by a 400-node
        Gauss-Legendre rule (about 5e-14 from 1 for n = 1 and n = 2)."""
        return _radial_mass(self.level, 2 * self.n, 400)


def mollifier(n: int) -> Mollifier:
    """The unit-mass kernel on C^n.  Its constant is 1 over the mass of the bare
    bump by a 600-node Gauss-Legendre rule; the audit's rule has 400 nodes, so
    that ``mass_quadrature`` checks the constant rather than re-deriving it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Mollifier(n=n, norm_const=1.0 / _radial_mass(Mollifier(n, 1.0).level, 2 * n, 600))


class ResolutionError(ValueError):
    pass


class GridFn:
    """Values on a uniform grid over [-L, L]^(2n) with multilinear interpolation,
    a payload that enters an expression as a ``Leaf``.

    A point is outside, and gives 0, when a coordinate lies off the grid (an
    inf does); a NaN coordinate is not off the grid, so a NaN gives NaN.  Each
    of the 2^(2n) corners is one gather from the flattened grid by one flat
    index per point, and the points are gathered and scattered only when some
    point is outside.  First derivatives are central-difference stencils on
    the grid and so only approximate: they feed only the reported ladders,
    never an exact identity.
    """

    def __init__(self, values: np.ndarray, extent: float, n: int,
                 support_radius: Optional[float] = None):
        self.values = np.ascontiguousarray(values, dtype=complex)
        self.extent = float(extent)
        self.dim = n
        self.shape = self.values.shape
        self.h = 2.0 * self.extent / (self.shape[0] - 1)
        self.support_radius = support_radius if support_radius is not None else \
            self.extent * math.sqrt(2 * n)

    def axes(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.shape[0])

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        d, m = 2 * self.dim, self.shape[0]
        u = [(pts[:, ax] + self.extent) / self.h for ax in range(d)]
        off = (u[0] < 0.0) | (u[0] > m - 1)
        for col in u[1:]:
            off |= (col < 0.0) | (col > m - 1)
        live = np.flatnonzero(~off) if off.any() else None
        if live is not None:
            u = [col.take(live) for col in u]
        strides = [m ** (d - 1 - ax) for ax in range(d)]
        flat = np.zeros(len(u[0]), dtype=np.intp)  # flat index of the base corner
        frac = []
        for col, stride in zip(u, strides):
            base = np.fmin(np.floor(col), m - 2)  # fmin puts a NaN on the grid; its frac is NaN
            t = col - base
            frac.append((1.0 - t, t))
            flat += base.astype(np.intp) * stride
        grid = self.values.reshape(-1)
        acc = np.zeros(len(flat), dtype=complex)
        for corner in range(1 << d):
            bits = [(corner >> ax) & 1 for ax in range(d)]
            w = frac[0][bits[0]]
            for ax in range(1, d):  # the weight product in axis order
                w = w * frac[ax][bits[ax]]
            acc += w * grid.take(flat + sum(b * s for b, s in zip(bits, strides)))
        if live is None:
            return acc
        out = np.zeros(len(off), dtype=complex)
        out[live] = acc
        return out

    def _stencil(self, axis: int) -> "GridFn":
        g = np.gradient(self.values, self.h, axis=axis)  # nonzero one cell further out
        return GridFn(g, self.extent, self.dim, self.support_radius + self.h)

    def d_dx(self, i: int) -> "GridFn":
        return self._stencil(2 * (i - 1))

    def d_dy(self, i: int) -> "GridFn":
        return self._stencil(2 * (i - 1) + 1)


def _gauss_density(pts: np.ndarray, spec: GaussianSpec, n: int) -> np.ndarray:
    """The Gaussian density of the first n complex coordinates at real points."""
    dens = np.ones(len(pts))
    for i in range(1, n + 1):
        a = spec.a(i)
        dens = dens * np.exp(-(pts[:, 2 * i - 2] ** 2 + pts[:, 2 * i - 1] ** 2) / (2 * a * a)) \
            / (2 * math.pi * a * a)
    return dens


@lru_cache
def _smooth_len(m: int) -> int:
    """The least 2^i 3^j 5^k >= m: a length the FFT factors into small primes."""
    best = 1
    while best < m:  # the least power of two >= m bounds the answer
        best *= 2
    p = 1
    while p < best:  # p = 5^k, then q = 3^j 5^k, each below the bound
        q = p
        while q < best:
            c = q
            while c < m:
                c *= 2
            best = min(best, c)
            q *= 3
        p *= 5
    return best


def _fftconvolve(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The linear convolution a * k cropped to the grid of a (centred, like a
    "same" convolution), by FFTs padded to 5-smooth lengths."""
    axes = tuple(range(a.ndim))
    shape = [_smooth_len(sa + sk - 1) for sa, sk in zip(a.shape, k.shape)]
    full = np.fft.ifftn(np.fft.fftn(a, shape, axes) * np.fft.fftn(k, shape, axes), axes=axes)
    return full[tuple(slice((sk - 1) // 2, (sk - 1) // 2 + sa)
                      for sa, sk in zip(a.shape, k.shape))]


def _unit_kernel(n: int, delta: float, h: float) -> np.ndarray:
    """The width-delta mollifier on C^n sampled at spacing h, scaled to unit
    discrete mass (complex, for the FFT convolution)."""
    half = int(math.ceil(delta / h))
    kpts = _mesh(np.arange(-half, half + 1) * h, 2 * n)
    kern = mollifier(n).scaled(kpts, delta).reshape([2 * half + 1] * (2 * n))
    return (kern / kern.sum()).astype(complex)


def mollify(f_n: CylinderFn, delta: float, grid_res: int = 121) -> GridFn:
    """Convolution with the width-delta mollifier on a uniform grid.

    Needs a compactly supported input in dimension n <= 2 (grid convolution).
    The sampled kernel is renormalized to unit discrete mass, which removes
    the sampling bias; the continuum unit-mass audit lives on the Mollifier.
    """
    n = f_n.dim
    if n > 2:
        raise ResolutionError("grid convolution supports n <= 2 complex dimensions")
    if f_n.support_radius is None:
        raise ResolutionError("mollify needs a compactly supported input")
    if not 0 < delta:
        raise ValueError("delta must be positive")
    R = f_n.support_radius
    extent = R + delta + 4.0 * delta / max(grid_res, 8)
    h = 2.0 * extent / (grid_res - 1)
    if h > delta / 2.0:
        raise ResolutionError(
            f"grid spacing {h:.4g} too coarse for delta = {delta}; raise grid_res")
    pts = _mesh(np.linspace(-extent, extent, grid_res), 2 * n)  # for the values and the mask
    out = _fftconvolve(f_n(pts).reshape([grid_res] * (2 * n)), _unit_kernel(n, delta, h))
    # support arithmetic is exact: kill FFT roundoff outside radius R + delta
    out[~support_mask(pts, R + delta, n).reshape(out.shape)] = 0.0
    # the interpolation reaches one cell diagonal past the last nonzero grid value
    return GridFn(out, extent, n, R + delta + h * math.sqrt(2 * n))


def l2_gauss_grid(values_fn, grid: GridFn, spec: GaussianSpec) -> float:
    """Grid quadrature of |values|^2 against the Gaussian density."""
    n = grid.dim
    dens = _gauss_density(_mesh(grid.axes(), 2 * n), spec, n).reshape(grid.shape)
    return float(np.sum(np.abs(values_fn) ** 2 * dens) * grid.h ** (2 * n))


@dataclass
class MollifierAudit:
    mass_deviation: float
    exterior_max: float
    radial_deviation: float


def audit_mollifier(n: int) -> MollifierAudit:
    """Unit mass, support containment, and radiality of the kernel (at seeded
    random points)."""
    m = mollifier(n)
    mass_dev = abs(m.mass_quadrature() - 1.0)
    rng = np.random.default_rng(5)
    pts_out = rng.standard_normal((1000, 2 * n))
    pts_out /= np.linalg.norm(pts_out, axis=1, keepdims=True)
    pts_out *= 1.0 + rng.random((1000, 1))
    ext = float(np.max(np.abs(m.scaled(pts_out, 1.0))))
    v = rng.standard_normal((500, 2 * n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = rng.random(500) ** (1.0 / (2 * n))
    rad_dev = float(np.max(np.abs(m.level(radii) - m.scaled(v * radii[:, None], 1.0))))
    return MollifierAudit(mass_deviation=mass_dev, exterior_max=ext, radial_deviation=rad_dev)


_ADJOINT_GRID = 121  # grid points per axis of convolution_adjoint_residual


def convolution_adjoint_residual(f: CylinderFn, g: CylinderFn, n: int, delta: float,
                                 spec: GaussianSpec) -> float:
    """Residual of the convolution-transpose identity under the Gaussian measure.

    integral f_{n,delta} g dP  ==  integral f phi_n^{-1} (g_n phi_n)_{n,delta} dP,
    with phi_n the Gaussian density of the first n coordinates.  Both sides by
    grid quadrature with a shared kernel, on ``_ADJOINT_GRID`` points per axis.
    """
    if f.dim > n or g.dim > n:
        f = reduce_fn(f, n, spec)
        g = reduce_fn(g, n, spec)
    radii = [1.0 if fn.support_radius is None else fn.support_radius for fn in (f, g)]
    extent = max(radii) + delta + 0.05
    axes = np.linspace(-extent, extent, _ADJOINT_GRID)
    pts = _mesh(axes, 2 * n)
    h = axes[1] - axes[0]
    vol = h ** (2 * n)
    kern = _unit_kernel(n, delta, h)

    shape = [_ADJOINT_GRID] * (2 * n)
    fv = f(pts).reshape(shape)
    gv = g(pts).reshape(shape)
    dv = _gauss_density(pts, spec, n).reshape(shape)

    lhs = np.sum(_fftconvolve(fv, kern) * gv * dv) * vol
    rhs = np.sum(fv * _fftconvolve(gv * dv, kern)) * vol
    return float(abs(lhs - rhs))


@dataclass
class LadderRow:
    n: int
    delta: float
    norm_error: float
    stderr: float


@dataclass
class PipelineReport:
    output: Form
    ladder: list

    def write_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "delta", "norm_error", "stderr"])
            for row in self.ladder:
                w.writerow([row.n, f"{row.delta!r}", f"{row.norm_error!r}",
                            f"{row.stderr!r}"])


def approx_pipeline(f: Form, domain: Domain, rho: float, n_ladder: Sequence[int],
                    delta_ladder: Sequence[float], spec: GaussianSpec, quad: Quadrature,
                    grid_res: int) -> PipelineReport:
    """Coefficient-wise reduce -> mollify -> multiply by the cut-off eta_rho.

    Reports the unweighted norm of (eta_rho f_{n,delta} - f) over the requested
    (n, delta) ladder; the final output uses the last ladder entry.  The
    difference is evaluated on its support ball (``forms._ball_values``'s
    rule), and eta_rho exists only inside the domain: a quadrature point on
    that ball outside the domain raises ``ValueError`` before any is evaluated.
    """
    if any(fn.support_radius is None for fn in f.coeffs.values()):
        raise ValueError("the pipeline needs compactly supported coefficients")
    eta_rho = smooth_step(rho, domain.eta(spec.trunc_dim))

    cands = []

    def ladder(pts):  # one (norm^2, 0) pair per (n, delta), n slowest
        nonlocal cands
        outside = pts[domain.boundary_distance(pts) <= 0]  # where eta_rho is undefined
        for n in n_ladder:
            reduced = {key: reduce_fn(fn, n, spec) for key, fn in f.coeffs.items()}
            cands = [Form(f.degree, {key: eta_rho * mollify(red, delta, grid_res=grid_res)
                                     for key, red in reduced.items()}, f.family)
                     for delta in delta_ladder]
            diffs = [cand - f for cand in cands]
            for diff in diffs:
                r, k = support([fn.expr for fn in diff.coeffs.values()])
                if r and support_mask(outside, r, k).any():
                    raise ValueError(f"the approximation's support ball of radius {r:.6g} "
                                     f"in C^{k} leaves the {domain.kind} domain at a "
                                     f"quadrature point, where its cut-off is undefined")
            totals = _weighted_sq_vals([(diff, None) for diff in diffs], pts)
            yield from ((total, 0) for total in totals)
    ests = integrals(quad, spec, ladder)
    rows = [LadderRow(n=n, delta=delta, norm_error=math.sqrt(max(est.mean.real, 0.0)),
                      stderr=est.stderr)
            for (n, delta), (est, _, _) in zip(product(n_ladder, delta_ladder), ests)]
    return PipelineReport(output=cands[-1] if cands else None, ladder=rows)
