"""Reference computations made apart from dbarl2.

Everything here uses numpy only: the benchmark's coefficient functions are
kept as structured data (a polynomial times a radial bump), rendered to the
dbarl2 expression grammar for the program, and evaluated here directly for
the checks.  Derivatives are centered differences, tail integrals use the
probabilists' Gauss-Hermite rule from ``numpy.polynomial.hermite_e`` (the
program uses the physicists' rule), and Gaussian moments are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e


def scale(i: int) -> float:
    """The default scale rule a_i = 2^-(i+1), restated for the references."""
    return 2.0 ** (-(i + 1))


@dataclass(frozen=True)
class BumpPoly:
    """P(x, y) * bump(|z_1..z_n|^2 / R^2) with bump(t) = exp(-1/(1-t^2)) on (-1, 1).

    ``terms`` holds (coefficient, exponents) pairs; exponents run over the
    real columns x1, y1, x2, y2, ... of the first ``n`` coordinates.
    """

    terms: tuple
    n: int
    radius: float

    def poly(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for c, exps in self.terms:
            mono = np.full(pts.shape[0], c)
            for col, k in enumerate(exps):
                if k:
                    mono = mono * pts[:, col] ** k
            out = out + mono
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = np.sum(pts[:, :2 * self.n] ** 2, axis=1) / self.radius ** 2
        om = 1.0 - t * t
        bump = np.zeros_like(t)
        inside = om > 0.0
        bump[inside] = np.exp(-1.0 / om[inside])
        return self.poly(pts) * bump

    def expr(self) -> str:
        """The same function in the dbarl2 expression grammar."""
        parts = []
        for c, exps in self.terms:
            factors = [f"({c!r})"]
            for col, k in enumerate(exps):
                if k:
                    var = f"{'xy'[col % 2]}({col // 2 + 1})"
                    factors.append(var if k == 1 else f"{var}^{k}")
            parts.append("*".join(factors))
        radial = "+".join(f"x({i})^2+y({i})^2" for i in range(1, self.n + 1))
        return f"({'+'.join(parts)})*bump(({radial})/{self.radius ** 2!r})"


def random_bump_poly(rng: np.random.Generator, n: int, radius: float,
                     degrees=(0, 1, 2)) -> BumpPoly:
    """Seeded polynomial with one monomial of each listed total degree.

    Only the coefficients and the variables are drawn, so every case of a
    kind builds an expression tree of about the same size.
    """
    terms = []
    for deg in degrees:
        exps = [0] * (2 * n)
        for _ in range(deg):
            exps[int(rng.integers(0, 2 * n))] += 1
        terms.append((round(float(rng.normal()), 3), tuple(exps)))
    return BumpPoly(tuple(terms), n, radius)


def dbar_fd(fn, pts: np.ndarray, i: int, h: float = 1e-5) -> np.ndarray:
    """Centered-difference (d/dx_i + i d/dy_i) / 2 of a numpy function."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[0], dtype=complex)
    for col, w in ((2 * (i - 1), 0.5), (2 * (i - 1) + 1, 0.5j)):
        pp, pm = pts.copy(), pts.copy()
        pp[:, col] += h
        pm[:, col] -= h
        out += w * (fn(pp) - fn(pm)) / (2.0 * h)
    return out


def tail_rule(sigmas, nodes: int):
    """Tensor Gauss-Hermite rule for independent N(0, sigma_c^2) columns.

    Returns points (T, len(sigmas)) and weights (T,) that sum to 1.
    """
    t, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*[s * t for s in sigmas], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for g in np.meshgrid(*([w] * len(sigmas)), indexing="ij"):
        wts = wts * g.reshape(-1)
    return pts, wts


def tail_moments(fn, head: np.ndarray, n: int, m: int, nodes: int):
    """E f and E f^2 over the columns of coordinates n+1..m, per head point (f real).

    Returns (mean, second moment) arrays of length len(head).
    """
    sig = [scale(i) for i in range(n + 1, m + 1) for _ in (0, 1)]
    tpts, tw = tail_rule(sig, nodes)
    mean = np.zeros(len(head))
    second = np.zeros(len(head))
    full = np.empty((len(tpts), 2 * m))
    for k, h in enumerate(head):
        full[:, :2 * n] = h[:2 * n]
        full[:, 2 * n:] = tpts
        v = fn(full)
        mean[k] = np.sum(tw * v)
        second[k] = np.sum(tw * v * v)
    return mean, second


def gaussian_even_moment(a: float, k: int) -> float:
    """E[x^k] for x ~ N(0, a^2): (k-1)!! a^k for even k, 0 for odd k."""
    if k % 2:
        return 0.0
    return float(np.prod(np.arange(k - 1, 0, -2), initial=1.0)) * a ** k
