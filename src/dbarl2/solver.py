"""Galerkin minimal-norm solver for the d-bar equation and the L2 bound audits.

The trial space is the profile-0 dictionary, tensor Hermite polynomials times
the bump cut-off itself (so every trial function is smooth and compactly
supported); the image matrix D holds the symbolic d-bar of each trial
function, so the image of the trial space is represented exactly.  Matrices are assembled by
deterministic Gauss-Hermite quadrature, a weight evaluated only on the
support ball of the functions it multiplies.  After whitening the trial-space
metric, one thin SVD of the weighted image matrix gives the minimal-norm
least-squares solution (singular values at or below 1e-10 max(s_max, 1) are
cut), its numerical rank and condition number, and the kernel-orthogonality
diagnostic (Golub & Van Loan, Matrix Computations, sec. 5.5).

A solve has two halves.  The space half (``_galerkin_space``) builds all
that does not depend on f's values: the dictionary, the nodes, E, D, the
whitening and the thin SVD.  It is cached, keyed by the identities of w1 and
w2, the measure, f's family, n, degree, radius, quadrature, f's degree and
target slots, never by f's values; its arrays are read-only, so a solve gives
the same bits whether the cache is cold or warm.  The right-hand-side half
(``solve_min_norm``) checks closedness, stacks f with e^{-w2} on the support
ball derived from f's expression and applies the SVD.  Only a process that
solves several right-hand sides in one space (the same w1 and w2 objects)
gains: its later solves pay only for f.  ``dbarl2 solve``, demo 08 and
criterion 10 solve once per process, so every solve they make is cold and
builds the space as before the split.  A cached
entry, and the weights and family of its key, stay alive until it is evicted
(at most ``_SPACE_CACHE`` entries are kept).  An entry holds about 5 M k
complex numbers at n = 2 (E, then D and U with two target slots each) for M
nodes and k trial functions: 3.7 MB at 6 nodes per axis and degree 3, about
0.95 GB at 24 nodes per axis.

Bound checks follow the weighted estimates: the key inequality
||T* f||^2_{w1} + ||S f||^2_{w3} >= c0 ||f||^2_{w2} (gated on the coefficient
conditions and the curvature condition), the norm bound
sqrt(c0) ||u||_{w1} <= ||f||_{w2}, the Levi-weighted bound, and the
(1 + ||z||^2)^-2 variant with its bounded-domain form.

The Cauchy oracle, the one-variable reference solution, expands the kernel
in angular modes about the origin and splits it at |z|, so one rule over the
integrand's support disc is right at every point; beyond the disc it is the
far-field expansion, evaluated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

import numpy as np
from numpy.polynomial import hermite_e as herme

from .dbarops import OperatorContext, Tstar, dbar, max_abs
from .domains import Domain, levi_min_eigs
from .forms import Form, _ball_values, _weighted_sq_vals
from .gaussmeasure import (CheckOutcome, GaussianSpec, Quadrature, _leggauss, _mc_nodes_weights,
                           _mesh, integrals, json_number, verdict)
from .multiindex import check_conditions
from .symfun import (CylinderFn, Fun, add, const, delbar_op, eval_expr, mul,
                     norm_sq_coords, poly1, x, y)
from .weights import WeightTriple, check_cond4


# ---------------------------------------------------------------------------
# Dictionary
# ---------------------------------------------------------------------------

def _herme_poly1(var, p: int, a: float):
    """He_p(v / a) as a polynomial expression in the variable."""
    cs = herme.herme2poly([0.0] * p + [1.0])
    scaled = tuple(c / a ** k for k, c in enumerate(cs))
    return poly1(var, scaled)


def scalar_dictionary(n: int, degree: int, radius: float, spec: GaussianSpec) -> list:
    """Hermite-product polynomials of total degree <= degree times the bump
    cut-off bump(|z|^2 / radius^2)."""
    chi = Fun("bump", mul(const(1.0 / radius ** 2), norm_sq_coords(n)), 0)
    out = []
    for combo in _degree_combos(2 * n, degree):
        factors = []
        for i in range(1, n + 1):
            px, py = combo[2 * (i - 1)], combo[2 * (i - 1) + 1]
            a = spec.a(i)
            if px:
                factors.append(_herme_poly1(x(i), px, a))
            if py:
                factors.append(_herme_poly1(y(i), py, a))
        out.append(CylinderFn(mul(*factors, chi) if factors else mul(chi, const(1.0)), dim=n))
    return out


def _degree_combos(slots: int, degree: int):
    """All exponent tuples with total degree <= degree, first slot slowest."""
    return (c for c in product(range(degree + 1), repeat=slots) if sum(c) <= degree)


# ---------------------------------------------------------------------------
# Solve problem and assembly
# ---------------------------------------------------------------------------

@dataclass
class SolveProblem:
    ctx: OperatorContext
    domain: Domain  # nothing reads it; callers still pass it
    f: Form
    degree: int = 8
    n: int = 1
    radius: float = 0.8
    quad: Quadrature = field(default_factory=lambda: Quadrature("gauss_hermite",
                                                                nodes_per_axis=24))


class ClosednessError(ValueError):
    pass


@dataclass
class SolveReport:
    """Solve diagnostics; rank and cond describe the retained singular values,
    bound is the ``solve_norm_bound`` record sqrt(c0) ||u||_{w1} <= ||f||_{w2}."""

    residual: float
    norm_u_w1: float
    norm_f_w2: float
    c0: float
    bound: CheckOutcome
    rank: int
    cond: float
    basis_dim: int
    kernel_orth: float

    @property
    def bound_pass(self) -> bool:
        return self.bound.passed

    def as_dict(self) -> dict:
        """The report as strict JSON: a non-finite number is null."""
        return {"residual": json_number(self.residual),
                "norm_u_w1": json_number(self.norm_u_w1),
                "norm_f_w2": json_number(self.norm_f_w2), "c0": json_number(self.c0),
                "bound_pass": self.bound_pass, "rank": self.rank,
                "basis_dim": self.basis_dim}


# singular values at or below this fraction of max(smax, 1) span the kernel
_SV_CUT = 1e-10
# closedness gate on max |dbar f| at the audit points
_TOL_CLOSED = 1e-8
# relative tolerance of the norm bound, and of the weighted and Hormander bounds
_BOUND_TOL = 1e-6


def _stack_rows(forms_per_basis, slots, pts, wq, w_fn, family):
    """Rows (slot x node) by columns (basis): sqrt(c w e^{-w}) . coeff values,
    formed on the forms' support ball and zero elsewhere."""
    M = len(pts)
    cells = [(b, si, fb.coeffs[key]) for b, fb in enumerate(forms_per_basis)
             for si, key in enumerate(slots) if key in fb.coeffs]
    exprs = [fn.expr for *_, fn in cells]
    (on, _, vals, ew), = _ball_values([(exprs, w_fn, exprs)], pts)
    scale = [np.sqrt(family.coeff(*key) * wq[on] * ew) for key in slots]
    out = np.zeros((M * len(slots), len(forms_per_basis)), dtype=complex)
    for (b, si, _), v in zip(cells, vals):
        out[si * M:(si + 1) * M, b][on] = v * scale[si]
    return out


# Galerkin spaces kept for later solves: two, so that a caller alternating two
# spaces (the benchmark's solve workload: one at n = 1, one at n = 2) reuses both
_SPACE_CACHE = 2


@lru_cache(maxsize=_SPACE_CACHE)
def _galerkin_space(w1, w2, spec: GaussianSpec, family, n: int, degree: int, radius: float,
                    quad: Quadrature, s: int, tp1: int, slots_f: tuple) -> tuple:
    """The half of a solve that does not depend on f's values, built once per key.

    Returns the trial slots and dictionary, the nodes and weights, the trial
    metric E, the image matrix D, the whitening W and the thin SVD
    U, sv, Vh of D W; every array is read-only.
    """
    idx_range = range(1, n + 1)
    slots_u = tuple((I, L) for I in combinations(idx_range, s)
                    for L in combinations(idx_range, tp1 - 1))
    dict_u = tuple(scalar_dictionary(n, degree, radius, spec))
    basis_forms = [Form((s, tp1 - 1), {key: b}, family) for key in slots_u for b in dict_u]

    pts, wq = quad.nodes_weights(spec)
    E = _stack_rows(basis_forms, slots_u, pts, wq, w1, family)
    images = [dbar(b) for b in basis_forms]
    D = _stack_rows(images, slots_f, pts, wq, w2, family)

    # whiten the trial-space metric
    G = E.conj().T @ E
    w_eval, w_vec = np.linalg.eigh(G)
    keep = w_eval > max(w_eval[-1], 0.0) * 1e-13
    W = w_vec[:, keep] / np.sqrt(w_eval[keep])

    U, sv, Vh = np.linalg.svd(D @ W, full_matrices=False)
    arrays = (pts, wq, E, D, W, U, sv, Vh)
    for arr in arrays:
        arr.flags.writeable = False
    return (slots_u, dict_u) + arrays


def _norm_bound(c0: float, norm_u: float, norm_f: float) -> CheckOutcome:
    """The record of sqrt(c0) ||u||_{w1} <= ||f||_{w2}, at tolerance _BOUND_TOL ||f||."""
    lhs = math.sqrt(max(c0, 0.0)) * norm_u
    return CheckOutcome.judged("solve_norm_bound", lhs, norm_f, norm_f - lhs, 0.0,
                               _BOUND_TOL * norm_f)


def solve_min_norm(p: SolveProblem) -> tuple[Form, SolveReport]:
    """Minimal-norm least-squares solve of dbar u = f in the Galerkin space."""
    ctx, f = p.ctx, p.f
    spec = ctx.spec
    s, tp1 = f.degree
    if tp1 < 1:
        raise ValueError("the target must be a form of degree (s, t+1)")

    # closedness gate: dbar f must vanish at the audit points, drawn once per spec
    audit_pts, _ = _mc_nodes_weights(spec, 200, 20_202, spec.trunc_dim)
    worst = max_abs(eval_expr([fn.expr for fn in dbar(f).coeffs.values()], audit_pts))
    if not worst <= _TOL_CLOSED:
        raise ClosednessError(f"dbar(f) reaches {worst:.3e} at audit points "
                              f"(gate {_TOL_CLOSED:.1e}); f is not closed")

    if f.is_zero():
        u = Form((s, tp1 - 1), {}, f.family)
        return u, SolveReport(residual=0.0, norm_u_w1=0.0, norm_f_w2=0.0, c0=1.0,
                              bound=_norm_bound(1.0, 0.0, 0.0), rank=0, cond=0.0,
                              basis_dim=0, kernel_orth=0.0)

    idx_range = range(1, p.n + 1)
    slots_f = tuple(sorted(set([(I, J) for I in combinations(idx_range, s)
                                for J in combinations(idx_range, tp1)]) | set(f.coeffs)))
    slots_u, dict_u, pts, wq, E, D, W, U, sv, Vh = _galerkin_space(
        ctx.w1, ctx.w2, spec, f.family, p.n, p.degree, p.radius, p.quad, s, tp1, slots_f)
    yvec = _stack_rows([f], slots_f, pts, wq, ctx.w2, f.family)[:, 0]

    # minimal-norm least squares from the thin SVD; the cut directions are the kernel
    smax = sv[0] if len(sv) else 0.0
    keep = sv > _SV_CUT * max(smax, 1.0)
    rank = int(np.count_nonzero(keep))
    v = Vh[keep].conj().T @ ((U[:, keep].conj().T @ yvec) / sv[keep])
    a = W @ v
    cond = float(smax / sv[rank - 1]) if rank else 0.0
    kernel_orth = 0.0
    if rank < len(sv):
        proj = Vh[~keep] @ v
        kernel_orth = float(np.max(np.abs(proj)) / max(np.linalg.norm(v), 1e-300))

    res_vec = D @ a - yvec
    norm_f = float(np.linalg.norm(yvec))
    residual = float(np.linalg.norm(res_vec)) / max(norm_f, 1e-300)
    norm_u = float(np.linalg.norm(E @ a))

    coeffs: dict = {}
    for ki, key in enumerate(slots_u):
        block = a[ki * len(dict_u):(ki + 1) * len(dict_u)]
        terms = [mul(const(complex(cval)), bfn.expr)
                 for cval, bfn in zip(block, dict_u) if cval != 0]
        if terms:
            coeffs[key] = CylinderFn(add(*terms), dim=p.n)
    u = Form((s, tp1 - 1), coeffs, f.family)

    c0 = _conditions(f, p.n).c0_inf
    report = SolveReport(residual=residual, norm_u_w1=norm_u, norm_f_w2=norm_f,
                         c0=c0, bound=_norm_bound(c0, norm_u, norm_f), rank=rank, cond=cond,
                         basis_dim=E.shape[1], kernel_orth=kernel_orth)
    return u, report


# ---------------------------------------------------------------------------
# Key inequality and bound audits
# ---------------------------------------------------------------------------

def _conditions(f: Form, n: int):
    """The family's conditions for f of degree (s, t+1), over the one index range
    of every check: max(n, f.max_index(), s+t+1) + 2, n the check's dimension."""
    s, tp1 = f.degree
    return check_conditions(f.family, max(n, f.max_index(), s + tp1) + 2, s, tp1 - 1)


def _audit(check_id: str, sides, spec: GaussianSpec, quad: Quadrature, upper: bool,
           tol) -> CheckOutcome:
    """The record of lhs >= rhs from the pointwise sides (lhs, rhs) that
    sides(pts) gives; lhs <= rhs when upper, the margin negated exactly (0.0 - m
    keeps a zero +0.0).  The verdict is ``verdict`` at tolerance tol(lhs, rhs)."""
    (est, lhs, rhs), = integrals(quad, spec, lambda pts: [sides(pts)])
    margin = 0.0 - est.mean.real if upper else est.mean.real
    return CheckOutcome.judged(check_id, lhs.real, rhs.real, margin, est.stderr,
                               tol(lhs.real, rhs.real))


def key_inequality_check(f: Form, ctx: OperatorContext, quad: Quadrature,
                         triple: WeightTriple, domain: Domain,
                         cond4_points: np.ndarray) -> CheckOutcome:
    """||T* f||^2_{w1} + ||S f||^2_{w3} - c0 ||f||^2_{w2} with preconditions.

    Refuses (passed = None) when the coefficient conditions or the curvature
    condition fail; those are the estimate's hypotheses.  Nothing reads
    domain: the curvature condition is checked at cond4_points.
    """
    n = ctx.spec.trunc_dim
    rep = _conditions(f, n)
    if not rep.passed:
        return CheckOutcome.refused("key_inequality",
                                    f"coefficient conditions fail: c0={rep.c0_inf}, "
                                    f"c1={rep.c1_sup}, mult={rep.multiplicative_ok}")
    c4 = check_cond4(triple.phi, triple.psi, n, cond4_points)
    if not verdict(c4, 0.0, 0.0):
        return CheckOutcome.refused("key_inequality",
                                    f"curvature condition fails with margin {c4:.3e}")
    parts = [(Tstar(f, ctx), ctx.w1), (dbar(f), ctx.w3), (f, ctx.w2)]

    def sides(pts):
        sq_tsf, sq_sf, sq_f = _weighted_sq_vals(parts, pts)
        return sq_tsf + sq_sf, rep.c0_inf * sq_f
    return _audit("key_inequality", sides, ctx.spec, quad, False,
                  lambda lhs, rhs: 1e-9 * max(abs(lhs), abs(rhs), 1.0))


def _bound_c0(f: Form, ctx: OperatorContext, levi_points: np.ndarray,
              floor) -> Optional[float]:
    """The bound audits' hypotheses: None when the Levi form of phi = w3 falls more
    than 1e-9 below floor (or is NaN) at an audit point, else the family's c0."""
    gap = float(np.min(levi_min_eigs(ctx.w3, levi_points, ctx.spec.trunc_dim) - floor))
    if not verdict(gap, 0.0, 1e-9):
        return None
    return _conditions(f, ctx.spec.trunc_dim).c0_inf


def weighted_bound_check(u: Form, f: Form, ctx: OperatorContext, c_fn: CylinderFn,
                         quad: Quadrature, levi_points: np.ndarray) -> CheckOutcome:
    """Levi-weighted estimate: ||u||^2_phi <= 2 ||f/sqrt(c)||^2_phi / (c0 (t+1))."""
    c0 = _bound_c0(f, ctx, levi_points, np.real(c_fn(levi_points)))
    if c0 is None:
        return CheckOutcome.refused("weighted_bound",
                                    "Levi form does not dominate c at the audit points")

    def sides(pts):
        u_sq, f_sq = _weighted_sq_vals([(u, ctx.w3), (f, ctx.w3)], pts)
        return u_sq, 2.0 * (f_sq / np.real(c_fn(pts))) / (c0 * f.degree[1])  # degree[1] = t + 1
    return _audit("weighted_bound", sides, ctx.spec, quad, True,
                  lambda lhs, rhs: _BOUND_TOL * rhs)


def hormander_bound_check(u: Form, f: Form, ctx: OperatorContext, quad: Quadrature,
                          levi_points: np.ndarray,
                          sup_norm_sq: Optional[float] = None) -> CheckOutcome:
    """The (1 + ||z||^2)^-2 weighted bound; on a bounded domain, where
    ||z||^2 <= sup_norm_sq, the constant factor (1 + sup_norm_sq)^2 instead."""
    c0 = _bound_c0(f, ctx, levi_points, 0.0)
    if c0 is None:
        return CheckOutcome.refused("hormander_bound",
                                    "phi is not plurisubharmonic at the audit points")

    def sides(pts):
        u_sq, f_sq = _weighted_sq_vals([(u, ctx.w3), (f, ctx.w3)], pts)
        rhs_vals = f_sq / (c0 * f.degree[1])  # degree[1] = t + 1
        if sup_norm_sq is not None:
            return u_sq, (1.0 + sup_norm_sq) ** 2 * rhs_vals
        return u_sq / (1.0 + np.sum(pts ** 2, axis=1)) ** 2, rhs_vals
    return _audit("hormander_bound", sides, ctx.spec, quad, True,
                  lambda lhs, rhs: _BOUND_TOL * rhs)


# ---------------------------------------------------------------------------
# Cauchy transform oracle (one complex variable)
# ---------------------------------------------------------------------------

_ORACLE_NR = 96  # Gauss-Legendre radii per segment
_ORACLE_NT = 64  # uniform angles; the rule keeps the angular modes |m| <= _ORACLE_NT // 2
_ORACLE_GROUP = 8  # points inside the disc per call of the integrand: 2 * 8 rows of radii


def _disc(g) -> float:
    """The radius R of the disc in C^1 outside which g is 0, from ``support``."""
    R = g.support_radius if g.dim <= 1 else None
    if R is None:
        raise ValueError(f"the Cauchy oracle needs an integrand that is 0 outside a disc "
                         f"in C^1; none is derived for {g.expr!r:.200}")
    return R


def _power_sum(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum over k of q^(k+1) c[..., k], the powers as running products."""
    return np.sum(np.cumprod(np.broadcast_to(q[..., None], c.shape), axis=-1) * c, axis=-1)


def _cauchy(g, R: float, z: np.ndarray) -> np.ndarray:
    """The transform of g, 0 beyond the disc |zeta| <= R, at the finite points
    z, from one call of g on every row of radii they need."""
    t, w = _leggauss(_ORACLE_NR)
    unit, half = 0.5 * (t + 1.0), 0.5 * w  # the rule on [0, 1]
    s = np.minimum(np.abs(z), R)
    near = s < R
    sn = s[near, None]
    # radius rows: [0, R] once for all points beyond R, [0, r] and [r, R] per point inside
    first = [] if near.all() else [R * unit[None]]
    rows = np.concatenate(first + [sn * unit, sn + (R - sn) * unit])
    nodes = rows[..., None] * np.exp(2j * math.pi / _ORACLE_NT * np.arange(_ORACLE_NT))
    modes = np.fft.fft(g(nodes.view(float).reshape(-1, 2)).reshape(nodes.shape)) / _ORACLE_NT
    K = _ORACLE_NT // 2
    seg = np.where(near, np.cumsum(near) - 1 + len(first), 0)  # each point's [0, s]
    q = unit * np.divide(s, z, out=np.zeros_like(z), where=s > 0)[:, None]
    total = (s[:, None] * half * _power_sum(q, modes[seg][..., -np.arange(K)])).sum(axis=1)
    seg = len(first) + len(sn) + np.arange(len(sn))  # each near point's [s, R]
    outer = modes[seg][..., 1:K + 1]
    sums = outer[..., 0] + _power_sum(z[near, None] / rows[seg], outer[..., 1:])
    total[near] -= ((R - sn) * half * sums).sum(axis=1)
    return 2.0 * total


@dataclass
class CauchyOracle:
    """u(z) = -(1/pi) integral of f(zeta)/(zeta - z) over the disc |zeta| <= R
    outside which ``symfun.support`` derives that f is 0.

    The kernel is expanded in angular modes about the origin and split at
    r = |z| (the multipole expansion; Greengard & Rokhlin 1987, Daripa 1992).
    With s = min(r, R) and K = ``_ORACLE_NT`` // 2,
        u(z) = 2 sum_{k<K} [ int_0^s (rho/z)^(k+1) g_{-k}(rho) drho
                             - int_s^R (z/rho)^k g_{k+1}(rho) drho ],
    g_m(rho) the m-th Fourier coefficient of f on the circle of radius rho
    (an FFT over ``_ORACLE_NT`` angles), each segment on ``_ORACLE_NR``
    Gauss-Legendre radii.  Both integrands are smooth, so the rule holds at
    every point.  For r >= R the second segment is empty and the first one's
    radii do not depend on z (the far-field expansion): a call evaluates f
    there once for all its points beyond R.  f sees only points inside its
    disc, 12,288 per point inside it, taken ``_ORACLE_GROUP`` points at a
    time (the far-field row with the first group), so a call's memory does
    not grow with its points; a batch gives its points' values taken one at
    a time, bit for bit.  The counts come from a nested pair: on
    criterion 10's problems 96 x 64 is within 5e-13 of sup|u0| of the exact
    transform and of 192 x 128 (64 radii: 4e-10).  An integrand with no
    derived disc raises ``ValueError``; a non-finite point gives NaN.
    ``reach`` is a claim kept for old callers, checked (finite, > 0) and unread.
    """

    f1: CylinderFn
    reach: Optional[float] = None

    def __post_init__(self):
        if self.reach is not None and not 0 < self.reach < math.inf:
            raise ValueError(f"the oracle's reach must be finite and > 0, not {self.reach!r}")
        _disc(self.f1)

    def _apply(self, g, pts: np.ndarray) -> np.ndarray:
        R = _disc(g)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(len(pts), complex(np.nan))
        live = np.flatnonzero(np.isfinite(pts[:, :2]).all(axis=1))
        z = pts[live, 0] + 1j * pts[live, 1]
        inside = np.abs(z) < R
        near = np.flatnonzero(inside)
        # the points beyond R go with the first group, so their shared row [0, R] is made once
        groups = [np.concatenate([np.flatnonzero(~inside), near[:_ORACLE_GROUP]])]
        groups += [near[j:j + _ORACLE_GROUP] for j in range(_ORACLE_GROUP, len(near), _ORACLE_GROUP)]
        for at in groups:
            out[live[at]] = _cauchy(g, R, z[at])
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self._apply(self.f1, pts)

    def dbar_residual_on_grid(self, extent: float = 1.0, res: int = 21) -> float:
        """Max |dbar u_c - f| on a grid, as max |T[dbar f] - f| for the oracle's T:
        for compactly supported f, Cauchy-Pompeiu gives T[dbar f] = f, so the
        rule on the symbolic dbar of f must give f back; no finite differences."""
        base = _mesh(np.linspace(-extent, extent, res), 2)
        return float(np.max(np.abs(self._apply(delbar_op(self.f1, 1), base) - self.f1(base))))
