"""Pseudo-convex domain catalog, exhaustion geometry, and Levi-form scans.

The catalog is the runner's three kinds: the ball (any center and radius),
the Hilbert polydisc and the whole space.  Each domain carries its truncated
exhaustion eta_n as a symbolic cylinder function, its boundary distance and
its interior sampler.  ``d_V(domain, pts)`` is the distance rule of the paper
at each point, and ``uniformly_included`` the margin of uniform inclusion of
a sub-level set {eta_n <= tau}.  The Levi form is the complex Hessian
[del_i delbar_j eta]; positivity at sampled points is the operational
pseudo-convexity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .symfun import (CylinderFn, add, const, del_op, delbar_op, log_, mul, norm_sq_coords,
                     pw, x, y)


class SublevelShortfallError(ValueError):
    """Too few sampled points have eta <= tau: the set is too thin, not invalid."""


@dataclass
class Domain:
    kind: str
    eta: Callable[[int], CylinderFn]  # n -> the truncated exhaustion eta_n
    boundary_distance: Callable[[np.ndarray], np.ndarray]
    sample_interior: Callable[[int, int, int], np.ndarray]  # (n, N, seed) -> points

    def sample_sublevel(self, n: int, tau: float, N: int, seed: int) -> np.ndarray:
        """Rejection-sample N interior points with eta <= tau, in at most 60 draws;
        fewer raises ``SublevelShortfallError``."""
        eta = self.eta(n)
        got = []
        count = 0
        for trial in range(60):
            pts = self.sample_interior(n, max(2 * N, 64), seed + 7919 * trial)
            vals = np.real(eta(pts))
            keep = pts[vals <= tau]
            if len(keep):
                got.append(keep)
                count += len(keep)
            if count >= N:
                break
        if count < N:
            raise SublevelShortfallError(f"only {count} of {N} interior samples have "
                                         f"eta <= {tau} after 60 draws")
        return np.concatenate(got, axis=0)[:N]


def _center_cols(center: Sequence[complex], n: int) -> np.ndarray:
    out = np.zeros(2 * n)
    for i, c in enumerate(center[:n]):
        out[2 * i] = complex(c).real
        out[2 * i + 1] = complex(c).imag
    return out


def ball(center: Sequence[complex] = (), r: float = 1.0) -> Domain:
    """B_r(center): eta_n = -ln(1 - ||(z - center)/r||^2 over the first n coords)."""
    if not r > 0:
        raise ValueError("radius must be positive")
    center = tuple(complex(c) for c in center)

    def builder(n: int) -> CylinderFn:
        terms = []
        for i in range(1, n + 1):
            cx = center[i - 1].real if i <= len(center) else 0.0
            cy = center[i - 1].imag if i <= len(center) else 0.0
            terms.append(pw(add(x(i), const(-cx)), 2))
            terms.append(pw(add(y(i), const(-cy)), 2))
        dev = mul(const(1.0 / r ** 2), add(*terms))
        return CylinderFn(mul(const(-1), log_(add(const(1.0), mul(const(-1), dev)))), dim=n)

    def bdist(pts: np.ndarray) -> np.ndarray:
        c = _center_cols(center, pts.shape[1] // 2)
        return r - np.sqrt(np.sum((pts - c) ** 2, axis=1))

    def sampler(n: int, N: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
        v = rng.standard_normal((N, 2 * n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rho = rng.random(N) ** (1.0 / (2 * n))
        pts = r * 0.9999 * rho[:, None] * v
        return pts + _center_cols(center, n)

    return Domain("ball", builder, bdist, sampler)


def polydisc() -> Domain:
    """Hilbert polydisc: eta_n = product over i <= n of 1/(1 - |z_i|^2)."""

    def builder(n: int) -> CylinderFn:
        factors = [pw(add(const(1.0), mul(const(-1), add(pw(x(i), 2), pw(y(i), 2)))), -1)
                   for i in range(1, n + 1)]
        return CylinderFn(mul(*factors), dim=n)

    def bdist(pts: np.ndarray) -> np.ndarray:
        mods = np.sqrt(pts[:, 0::2] ** 2 + pts[:, 1::2] ** 2)
        gaps = 1.0 - mods
        # coordinates beyond the truncation are 0, so the gap there is 1
        return np.minimum(np.min(gaps, axis=1), 1.0)

    def sampler(n: int, N: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
        rad = np.sqrt(rng.random((N, n))) * 0.999
        th = rng.random((N, n)) * 2 * math.pi
        pts = np.empty((N, 2 * n))
        pts[:, 0::2] = rad * np.cos(th)
        pts[:, 1::2] = rad * np.sin(th)
        return pts

    return Domain("polydisc", builder, bdist, sampler)


def whole_space() -> Domain:
    """V = the whole space with exhaustion eta = ||z||^2 (Levi form = I).

    The boundary is empty, so the boundary distance is +infinity and d_V
    reduces to 1/||z||.  Numerically the tamest pseudo-convex arena: the
    exhaustion gradient sum is ||z||^2 itself.  Interior samples are centered
    Gaussians of scale 0.4 per real coordinate.
    """

    def builder(n: int) -> CylinderFn:
        return CylinderFn(norm_sq_coords(n), dim=n)

    def bdist(pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), np.inf)

    def sampler(n: int, N: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(6,)))
        return rng.standard_normal((N, 2 * n)) * 0.4

    return Domain("whole_space", builder, bdist, sampler)


def complex_hessian(eta: CylinderFn, points: np.ndarray, n: int) -> np.ndarray:
    """[del_i delbar_j eta] at each point: shape (P, n, n), Hermitian to a
    relative 1e-9 or refused."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    P = points.shape[0]
    H = np.empty((P, n, n), dtype=complex)
    for j in range(1, n + 1):
        dbj = delbar_op(eta, j)
        for i in range(1, n + 1):
            H[:, i - 1, j - 1] = del_op(dbj, i)(points)
    scale = max(1.0, float(np.max(np.abs(H))))
    dev = float(np.max(np.abs(H - np.conjugate(np.transpose(H, (0, 2, 1)))))) / scale
    if dev > 1e-9:
        raise ArithmeticError(
            f"complex Hessian deviates from Hermitian by {dev} (relative)")
    H = 0.5 * (H + np.conjugate(np.transpose(H, (0, 2, 1))))
    return H


def levi_min_eigs(fn: CylinderFn, points: np.ndarray, n: int) -> np.ndarray:
    """Smallest eigenvalue of the complex Hessian of fn at each point."""
    return np.linalg.eigvalsh(complex_hessian(fn, points, n))[:, 0]


def normalize_eta(domain: Domain, n_probe: int = 3, seed: int = 1234) -> Domain:
    """Shift to eta + ||z||^2 - inf_{V0} eta: nonnegative, Levi form gains +I.

    The infimum over V0 = {eta <= 0} is estimated on 10,000 samples; the
    10% safety margin shifts downward, which only enlarges the new eta and
    preserves every inequality it feeds.
    """
    eta = domain.eta(n_probe)
    pts = domain.sample_interior(n_probe, 10_000, seed)
    vals = np.real(eta(pts))
    sub = vals[vals <= 0.0]
    m_hat = float(np.min(sub)) if len(sub) else min(0.0, float(np.min(vals)))
    c_shift = m_hat - 0.1 * (1.0 + abs(m_hat))

    def builder(n: int) -> CylinderFn:
        base = domain.eta(n)
        return CylinderFn(add(base.expr, norm_sq_coords(n), const(-c_shift)), dim=n)

    return Domain(f"normalized({domain.kind})", builder, domain.boundary_distance,
                  domain.sample_interior)


def d_V(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """min of the boundary distance and 1/||z|| (1/0 = +inf) at each row of pts."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.linalg.norm(pts, axis=1)
    return np.minimum(domain.boundary_distance(pts), inv)


def uniformly_included(domain: Domain, tau: float, n: int, seed: int = 99) -> float:
    """The margin of uniform inclusion of the sub-level set {eta_n <= tau} (> 0:
    included): the infimum of d_V over 2000 points sampled from it."""
    return float(np.min(d_V(domain, domain.sample_sublevel(n, tau, 2000, seed))))
