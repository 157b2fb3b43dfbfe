"""Shared fixtures: random smooth expressions and compactly supported functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dbarl2 import symfun as sf
from dbarl2.forms import Form
from dbarl2.gaussmeasure import GaussianSpec, Quadrature, _mesh
from dbarl2.multiindex import constant_family
from dbarl2.reduction import GridFn


@pytest.fixture(scope="session")
def spec1():
    return GaussianSpec(trunc_dim=1)


@pytest.fixture(scope="session")
def spec2():
    return GaussianSpec(trunc_dim=2)


@pytest.fixture(scope="session")
def spec3():
    return GaussianSpec(trunc_dim=3)


@pytest.fixture(scope="session")
def fam():
    return constant_family(1.0)


def random_smooth_expr(rng: np.random.Generator, n_vars: int = 2,
                       depth: int = 4) -> sf.Expr:
    """Random smooth expression over polynomial / exp / sin / cos leaves."""
    def leaf():
        kind = rng.integers(0, 4)
        i = int(rng.integers(1, n_vars + 1))
        v = sf.x(i) if rng.random() < 0.5 else sf.y(i)
        if kind == 0:
            return sf.const(round(float(rng.normal()), 3))
        if kind == 1:
            return v
        if kind == 2:
            return sf.pw(v, int(rng.integers(2, 4)))
        return sf.mul(sf.const(round(float(rng.normal()), 3)), v)

    def node(d):
        if d == 0:
            return leaf()
        kind = rng.integers(0, 6)
        if kind == 0:
            return sf.add(node(d - 1), node(d - 1))
        if kind == 1:
            return sf.mul(node(d - 1), node(d - 1))
        if kind == 2:
            return sf.sin_(node(d - 1))
        if kind == 3:
            return sf.cos_(node(d - 1))
        if kind == 4:
            # keep exp arguments tame
            return sf.exp_(sf.mul(sf.const(0.3), sf.sin_(node(d - 1))))
        return sf.add(node(d - 1), leaf())

    return node(depth)


def radial_sq(n: int) -> str:
    return "+".join(f"(x({i})^2+y({i})^2)" for i in range(1, n + 1))


def bump_fn(n: int, radius: float, poly: str = "1") -> sf.CylinderFn:
    """(poly) * bump(||z||^2 / radius^2) supported in the radius ball."""
    return sf.CylinderFn(f"({poly})*bump(({radial_sq(n)})/{radius * radius})",
                         support_radius=radius)


def grid_of(f: sf.CylinderFn, n: int, extent: float, res: int) -> GridFn:
    """f sampled on the grid [-extent, extent]^(2n) of res points per axis.  Its
    radius is f's R plus a cell diagonal h sqrt(2n), as ``mollify`` declares: the
    multilinear interpolation is nonzero up to that far past R."""
    pts = _mesh(np.linspace(-extent, extent, res), 2 * n)
    R, h = f.support_radius, 2.0 * extent / (res - 1)
    return GridFn(f(pts).reshape([res] * (2 * n)), extent, n,
                  None if R is None else R + h * math.sqrt(2 * n))


def random_poly_str(rng: np.random.Generator, n: int) -> str:
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        c = round(float(rng.normal()), 2)
        i = int(rng.integers(1, n + 1))
        var = f"x({i})" if rng.random() < 0.5 else f"y({i})"
        p = int(rng.integers(1, 3))
        terms.append(f"({c})*{var}^{p}")
    terms.append(f"({round(float(rng.normal()), 2)})")
    return "+".join(terms)


def random_bump_fn(rng: np.random.Generator, n: int, radius: float) -> sf.CylinderFn:
    return bump_fn(n, radius, poly=random_poly_str(rng, n))


def random_form(rng: np.random.Generator, degree, n: int, radius: float,
                family) -> Form:
    from itertools import combinations

    s, t = degree
    coeffs = {}
    for I in combinations(range(1, n + 1), s):
        for J in combinations(range(1, n + 1), t):
            if rng.random() < 0.8:
                coeffs[(I, J)] = random_bump_fn(rng, n, radius)
    if not coeffs:
        I = tuple(range(1, s + 1))
        J = tuple(range(1, t + 1))
        coeffs[(I, J)] = random_bump_fn(rng, n, radius)
    return Form(degree, coeffs, family)


def as_leaf(payload) -> sf.CylinderFn:
    """A values-only payload (a fake below, a GridFn) as the one function type."""
    return sf.CylinderFn(sf.Leaf(payload))


class CountingFn:
    """Wraps a function and counts how often it is evaluated (a payload)."""

    def __init__(self, f):
        self.f, self.dim, self.support_radius = f, f.dim, f.support_radius
        self.calls = 0

    def __call__(self, pts):
        self.calls += 1
        return self.f(pts)


class RecordingFn(CountingFn):
    """Counts the evaluations and keeps every point set it is called on; its
    partials are those of the wrapped function, and are not recorded."""

    def __init__(self, f):
        super().__init__(f)
        self.seen = []

    def __call__(self, pts):
        self.seen.append(np.array(pts))
        return super().__call__(pts)

    def d_dx(self, i):
        return self.f.d_dx(i)

    def d_dy(self, i):
        return self.f.d_dy(i)


class ScalarTwo:
    """A constant whose evaluation returns a Python scalar, not an array (a payload)."""

    support_radius = None

    def __init__(self, dim: int):
        self.dim = dim

    def __call__(self, pts):
        return 2.0 + 0j


def compiles_and_runs(monkeypatch):
    """Record each compiled root set, and each point set a one-root tape is
    run on with its value."""
    compiled, runs = [], []
    init, run = sf.Tape.__init__, sf.Tape.run

    def counting_init(self, e):
        compiled.append(e)
        init(self, e)

    def recording_run(self, pts):
        outs = run(self, pts)
        if self.single:
            runs.append((np.array(pts), outs[0]))
        return outs

    monkeypatch.setattr(sf.Tape, "__init__", counting_init)
    monkeypatch.setattr(sf.Tape, "run", recording_run)
    return compiled, runs
