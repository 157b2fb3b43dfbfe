"""Cut-off families, majorants, and the weight-construction pipeline.

The estimates need three ingredients built from the exhaustion function eta:

  * cut-offs X_k = h_k(eta) with the C^1 cubic step h_k (plateau 1 below k,
    0 above k+1, slope bounded by 3/2), plus the C-infinity germ variant;
  * a majorant psi with sum_i |dbar_i X_k|^2 <= e^psi, built as a smooth
    monotone staircase in eta through sampled sup-estimates of
    ln(1 + (9/4) sum_i |dbar_i eta|^2);
  * a convex real-analytic series majorant g with g'' >= g' >= g >= g0,
    from which the weight is phi = g(eta) and the triple is
    (w1, w2, w3) = (phi - 2 psi, phi - psi, phi).

Sup-estimates over sub-level sets are sampled and inflated by the safety
factor 1 + ``_SAFETY``; every inequality they feed is monotone in the
estimate, so over-estimation is the safe direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import Domain, levi_min_eigs, normalize_eta, whole_space
from .forms import Form, _weighted_sq_vals
from .gaussmeasure import GaussianSpec
from .symfun import (CylinderFn, add, conj_, const, cubic_step, del_op,
                     delbar_op, diff, eval_expr, germ_step, log_, mul, poly1, x)

_SAFETY = 0.5  # a sampled sup-estimate is inflated by the factor 1 + _SAFETY


# ---------------------------------------------------------------------------
# Cut-offs
# ---------------------------------------------------------------------------

@dataclass
class CutoffFamily:
    """The level-k cubic cut-off and, when eta is supplied, X_k = h_k(eta)."""

    k: int
    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]
    X_k: Optional[CylinderFn] = None


def _on_line(expr) -> Callable[[np.ndarray], np.ndarray]:
    """t -> Re expr at the points (t, 0) of C^1."""
    def h(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pts = np.zeros((len(t), 2))
        pts[:, 0] = t
        return np.real(eval_expr(expr, pts))

    return h


def cutoff(k: int, eta: Optional[CylinderFn] = None) -> CutoffFamily:
    if k < 1:
        raise ValueError("cut-off level k must be >= 1")
    h_expr = cubic_step(x(1), k)
    X_k = None
    if eta is not None:
        X_k = CylinderFn(cubic_step(eta.expr, k), dim=eta.dim)
    return CutoffFamily(k=k, h=_on_line(h_expr), h_prime=_on_line(diff(h_expr, "x", 1)),
                        X_k=X_k)


def smooth_step(rho: float, eta: CylinderFn) -> CylinderFn:
    """eta_rho = h_rho(eta), with the C-infinity cut-off h_rho(x) = germ(x - rho):
    1 below rho, 0 above rho+1."""
    return CylinderFn(germ_step(add(eta.expr, const(-rho))), dim=eta.dim)


# ---------------------------------------------------------------------------
# The psi majorant
# ---------------------------------------------------------------------------

def dbar_eta_sq_sum(eta: CylinderFn, n: int) -> CylinderFn:
    """sum over i <= n of |dbar_i eta|^2 as a symbolic function."""
    terms = []
    for i in range(1, n + 1):
        d = delbar_op(eta, i)
        terms.append(mul(d.expr, conj_(d.expr)))
    return CylinderFn(add(*terms), dim=n)


@dataclass
class PsiReport:
    psi: CylinderFn
    levels: np.ndarray
    target: Callable[[np.ndarray], np.ndarray]  # ln(1 + (9/4) sum_i |dbar_i eta|^2)


def staircase_fn(levels: Sequence[float], eta: CylinderFn) -> CylinderFn:
    """Smooth monotone staircase H(eta): H >= levels[j] on {j < eta <= j+1}.

    levels[j] is the plateau reached at eta = j; the rise from levels[j-1] to
    levels[j] happens on (j-1, j) through the C-infinity germ, so the value on
    (j, j+1] is at least levels[j].  Requires nondecreasing levels.
    """
    lv = np.maximum.accumulate(np.asarray(levels, dtype=float))
    pieces = [const(lv[0])]
    for j in range(1, len(lv)):
        inc = lv[j] - lv[j - 1]
        if inc <= 0:
            continue
        rise = add(const(1.0), mul(const(-1), germ_step(add(eta.expr, const(-(j - 1))))))
        pieces.append(mul(const(inc), rise))
    return CylinderFn(add(*pieces), dim=eta.dim)


def psi_majorant(domain: Domain, trunc_dim: int, levels: int,
                 samples: int = 10_000, seed: int = 314) -> PsiReport:
    """psi = H(eta) with ln(1 + (9/4) sum_i |dbar_i eta|^2) <= psi on V_levels.

    The per-level sups of the target are sampled on V_{j+1} and inflated by
    the safety factor before the staircase interpolation.
    """
    eta = domain.eta(trunc_dim)
    grad_sq = dbar_eta_sq_sum(eta, trunc_dim)
    target_vals = lambda pts: np.log1p(2.25 * np.real(grad_sq(pts)))
    lv = np.empty(levels + 1)
    for j in range(levels + 1):
        pts = domain.sample_sublevel(trunc_dim, float(j + 1), samples, seed + j)
        lv[j] = (1.0 + _SAFETY) * float(np.max(target_vals(pts)))
    psi = staircase_fn(lv, eta)
    return PsiReport(psi=psi, levels=lv, target=target_vals)


# ---------------------------------------------------------------------------
# Convex real-analytic majorant (series construction)
# ---------------------------------------------------------------------------

class TruncationError(ValueError):
    pass


@dataclass
class ConvexMajorant:
    """Truncated power series g(x) = sum p_n x^n with g'' >= g' >= g >= g0."""

    p: np.ndarray            # ascending series coefficients p_n = prod_{i<=n} a_i
    a_seq: np.ndarray        # the factor sequence a_0, a_1, ...

    def __call__(self, t):
        return self.deriv(t, 0)

    def deriv(self, t, order: int = 1):
        c = self.p
        for _ in range(order):
            c = np.polynomial.polynomial.polyder(c)
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c)

    def chain_margin(self, g0: Callable[[float], float], grid: np.ndarray) -> float:
        """The least gap of the chain g'' >= g' >= g >= g0 over the grid."""
        g, d1, d2 = self(grid), self.deriv(grid, 1), self.deriv(grid, 2)
        return min(float(np.min(d2 - d1)), float(np.min(d1 - g)),
                   float(np.min(g - np.array([g0(v) for v in grid]))))

    def as_expr(self, child_expr):
        return poly1(child_expr, tuple(self.p))

    def compose(self, eta: CylinderFn) -> CylinderFn:
        return CylinderFn(self.as_expr(eta.expr), dim=eta.dim)


def convex_majorant(g0: Callable[[float], float], K_max: float,
                    trunc_order: int = 120) -> ConvexMajorant:
    """Series majorant of a nondecreasing g0 (internally clamped to >= 1).

    The factor sequence follows the threshold recursion
      N_k > max(ln(g0(k+1)) / ln(k/(k-1)), N_{k-1}),      N_1 = 1,
      a_0 = g0(2) e,  a_l = (1/k) g0(k+1)^(1/N_k) e^(1/sqrt(l))
    for l in [N_k, N_{k+1}); the partial products are the series coefficients.
    Raises TruncationError when the series tail at K_max exceeds 1e-9.
    """
    g0c = lambda v: max(1.0, float(g0(v)))
    N = [1]
    k = 2
    while N[-1] <= trunc_order:
        bound = max(math.log(g0c(k + 1)) / math.log(k / (k - 1.0)), float(N[-1]))
        N.append(int(math.floor(bound)) + 1)
        k += 1
    N_k = np.asarray(N, dtype=int)

    a = np.empty(trunc_order + 1)
    a[0] = g0c(2.0) * math.e
    for l in range(1, trunc_order + 1):
        kk = int(np.searchsorted(N_k, l, side="right"))  # N_kk <= l < N_{kk+1}
        a[l] = (1.0 / kk) * g0c(kk + 1.0) ** (1.0 / N_k[kk - 1]) * math.exp(1.0 / math.sqrt(l))

    log_p = np.cumsum(np.log(a))
    with np.errstate(under="ignore"):
        p = np.exp(log_p)
    # geometric tail bound at the widest evaluation point, in log space
    q = a[trunc_order] * K_max
    if q >= 1.0:
        raise TruncationError(
            f"series terms still grow at x = {K_max} (ratio {q:.3g}); raise trunc_order")
    log_tail = log_p[-1] + trunc_order * math.log(max(K_max, 1e-300)) \
        + math.log(q / (1.0 - q))
    tail = math.exp(log_tail) if log_tail < 700 else math.inf
    if not tail <= 1e-9:
        raise TruncationError(
            f"series tail {tail} at x = {K_max} exceeds 1e-9; raise trunc_order")
    return ConvexMajorant(p=p, a_seq=a)


# ---------------------------------------------------------------------------
# The C^2 majorant vanishing below x1 (piecewise-quintic steps)
# ---------------------------------------------------------------------------

class _SmoothStairs:
    """Monotone C^2 staircase: base plus quintic smoothsteps between knots.

    The rise carrying increment inc[j-1] lives on [r_{j-1}, r_j]; callers that
    need pointwise domination feed the increment one knot ahead so each
    plateau is already reached when its interval starts.
    """

    def __init__(self, knots: np.ndarray, increments: np.ndarray, base: float = 0.0):
        self.knots = np.asarray(knots, dtype=float)      # rises on [r_{j-1}, r_j]
        self.inc = np.asarray(increments, dtype=float)
        self.base = float(base)

    @staticmethod
    def _s(u, order):
        u = np.clip(u, 0.0, 1.0)
        if order == 0:
            return ((6.0 * u - 15.0) * u + 10.0) * u ** 3
        if order == 1:
            return ((30.0 * u - 60.0) * u + 30.0) * u ** 2
        raise ValueError(order)

    @staticmethod
    def _s_int(u):
        """Antiderivative of the quintic smoothstep with value 0 at u = 0."""
        u = np.asarray(u, dtype=float)
        below = np.clip(u, 0.0, 1.0)
        # for u in (0,1): u^6 - 3 u^5 + 2.5 u^4; at 1: 0.5
        mid = below ** 6 - 3.0 * below ** 5 + 2.5 * below ** 4
        return np.where(u >= 1.0, 0.5 + (u - 1.0), np.where(u <= 0.0, 0.0, mid))

    def val(self, t, order=0):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        if order == 0:
            out = out + self.base
        for j in range(1, min(len(self.knots), len(self.inc) + 1)):
            a, b = self.knots[j - 1], self.knots[j]
            width = b - a
            u = (t - a) / width
            out = out + self.inc[j - 1] * self._s(u, order) / width ** order
        return out

    def antideriv(self, t):
        t = np.asarray(t, dtype=float)
        out = self.base * np.maximum(t - self.knots[0], 0.0)
        for j in range(1, min(len(self.knots), len(self.inc) + 1)):
            a, b = self.knots[j - 1], self.knots[j]
            width = b - a
            out = out + self.inc[j - 1] * width * self._s_int((t - a) / width)
        return out


@dataclass
class CalculusG:
    """C^2 function with G = 0 below x1, G'' >= 0, G >= g, G' >= g."""

    stairs_h: _SmoothStairs

    def __call__(self, t):
        return self.stairs_h.antideriv(t)

    def deriv(self, t):
        return self.stairs_h.val(t, order=0)

    def second(self, t):
        return self.stairs_h.val(t, order=1)


def calculus_G(g: Callable[[float], float], x1: float, x2: float,
               K_max: float = 20.0) -> CalculusG:
    """The double-majorization construction for a nondecreasing g vanishing on [0, x2].

    Knot ladder r_0 = 0 < x1 < (x1+x2)/2 < x2 < x2+1 < ...; plateau levels are
    running sups of g, then of max(Phi', g); the result integrates the second
    staircase so that G' matches it exactly and G'' is its exact derivative.
    """
    if not (0.0 < x1 < x2):
        raise ValueError("need 0 < x1 < x2")
    probe = np.linspace(0.0, x2, 257)
    if max(float(g(t)) for t in probe) > 0.0:
        raise ValueError("g must vanish on the closed interval [0, x2]")
    knots = [0.0, x1, 0.5 * (x1 + x2), x2]
    step = max(1.0, (K_max - x2) / 20)  # about 20 steps from x2 to K_max, none below 1
    v = x2
    while v < K_max + 2.0:
        v += step
        knots.append(v)
    knots = np.asarray(knots)

    def sup_on(fn, hi):
        """The sup of fn on a grid of [0, hi] as dense as 200 points on the whole
        ladder, plus 8."""
        grid = np.linspace(0.0, hi, max(8, int(200 * hi / max(knots[-1], 1.0)) + 8))
        return float(np.max([fn(t) for t in grid]))

    def one_ahead(levels):
        """Stairs whose value on [r_j, r_{j+1}] is already levels[j+1]."""
        lv = np.maximum.accumulate(np.asarray(levels, dtype=float))
        return _SmoothStairs(knots[:-1], lv[2:] - lv[1:-1], base=lv[1])

    lam = [sup_on(g, r) for r in knots]
    phi_stairs = one_ahead(lam)

    def phi_prime(t):
        return float(phi_stairs.val(np.asarray([t]), order=1)[0])

    d = [sup_on(lambda t: max(phi_prime(t), float(g(t))), r) for r in knots]
    h_stairs = one_ahead(d)
    if h_stairs.base != 0.0:
        raise ValueError("g must vanish on [0, x2] for the vanishing-tail construction")
    return CalculusG(stairs_h=h_stairs)


# ---------------------------------------------------------------------------
# Weight triples and the Condition-4 checker
# ---------------------------------------------------------------------------

@dataclass
class WeightTriple:
    w1: CylinderFn
    w2: CylinderFn
    w3: CylinderFn
    phi: CylinderFn
    psi: CylinderFn


def weight_triple(phi: CylinderFn, psi: CylinderFn) -> WeightTriple:
    """(w1, w2, w3) = (phi - 2 psi, phi - psi, phi)."""
    return WeightTriple(
        w1=phi + (-2.0) * psi,
        w2=phi + (-1.0) * psi,
        w3=phi,
        phi=phi,
        psi=psi,
    )


def _grad_sq(psi: CylinderFn, n: int, pts: np.ndarray) -> np.ndarray:
    """sum over i <= n of |d_i psi|^2 at the points."""
    out = np.zeros(pts.shape[0])
    for v in eval_expr([del_op(psi, i).expr for i in range(1, n + 1)], pts):
        out += np.abs(v) ** 2
    return out


def check_cond4(phi: CylinderFn, psi: CylinderFn, n: int, points: np.ndarray) -> float:
    """Least gap of Levi(phi) >= (2 sum_i |d_i psi|^2 + 2 e^psi - 1/2) I over the points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eigmin = levi_min_eigs(phi, points, n)
    bound = 2.0 * _grad_sq(psi, n, points) + 2.0 * np.exp(np.real(psi(points))) - 0.5
    return float(np.min(eigmin - bound))


# ---------------------------------------------------------------------------
# Weight-for-target construction
# ---------------------------------------------------------------------------

def recipe_weights_whole_space(spec: GaussianSpec):
    """Numerically tame instance of the weight recipe on the whole space.

    eta = ||z||^2 makes ln(1 + (9/4) sum_i |dbar_i eta|^2) = ln(1 + 9/4 eta)
    an exact closed-form majorant, so psi needs no staircase; phi = kappa eta
    with kappa calibrated 25% above the curvature bound of the certified
    sub-level set {eta <= 2}, which makes check_cond4 pass with real margin
    while the weights stay inside double-precision range.

    Returns (triple, domain, kappa).
    """
    n = spec.trunc_dim
    dom = whole_space()
    eta = dom.eta(n)
    psi = CylinderFn(log_(add(const(1.0), mul(const(2.25), eta.expr))), dim=n)
    # curvature bound 2 sum|d_i psi|^2 + 2 e^psi - 1/2 along eta = r^2
    r2 = np.linspace(0.0, 2.0, 512)
    bound = 2.0 * (2.25 / (1.0 + 2.25 * r2)) ** 2 * r2 + 2.0 * (1.0 + 2.25 * r2) - 0.5
    kappa = 1.25 * float(np.max(bound))
    phi = CylinderFn(mul(const(kappa), eta.expr), dim=n)
    return weight_triple(phi, psi), dom, kappa


@dataclass
class WeightRecipe:
    triple: WeightTriple
    domain: Domain
    b: np.ndarray
    m: np.ndarray
    g0_table: np.ndarray
    norm_w2_est: float


def weight_for_target(f: Form, domain: Domain, J_max: int, spec: GaussianSpec,
                      samples: int = 10_000, trunc_order: int = 120) -> WeightRecipe:
    """Build (phi, psi) for a given closed target form following the solvability recipe.

    The domain's eta is normalized first.  Annulus masses m_j of the target
    give the summable sequence b_j = 2^-j / (1 + m_j); the staircase h
    accumulates |ln(1/b_j) + sup psi|; g0 = 1 + h + sup-estimate of
    (2 sum |d_i psi|^2 + 2 e^psi); the convex series majorant of g0 composes
    with eta into phi.
    """
    n = spec.trunc_dim
    seed = 2718  # every draw below is seeded from it
    dom = normalize_eta(domain, n_probe=n, seed=seed)
    psi = psi_majorant(dom, n, levels=J_max + 1, samples=samples, seed=seed + 1).psi
    eta = dom.eta(n)

    pts = dom.sample_interior(n, samples, seed + 2)
    eta_vals = np.real(eta(pts))
    total, = _weighted_sq_vals([(f, None)], pts)

    m = np.empty(J_max + 1)
    for j in range(1, J_max + 2):
        mask = (eta_vals > j) & (eta_vals <= j + 1)
        m[j - 1] = float(np.mean(total * mask))
    b = np.array([2.0 ** (-(j + 1)) / (1.0 + m[j]) for j in range(J_max + 1)])

    psi_vals = np.real(psi(pts))
    cond_target = 2.0 * _grad_sq(psi, n, pts) + 2.0 * np.exp(psi_vals)

    def sup_on(vals, mask):
        """The inflated sup of vals over the masked samples; 0.0 when none is."""
        return (1.0 + _SAFETY) * float(np.max(vals[mask])) if np.any(mask) else 0.0

    h_steps = np.cumsum([abs(math.log(1.0 / b[j])
                             + sup_on(psi_vals, (eta_vals > j + 1) & (eta_vals <= j + 2)))
                         for j in range(J_max + 1)])

    # certified range: the staircase psi plateaus above level J_max+1 and all
    # audits run on sub-level sets, so the series only needs [0, J_max + 2]
    K_max = J_max + 2.0

    def g0(xv: float) -> float:
        h_val = 0.0 if xv <= 1.0 else h_steps[min(int(math.floor(xv)) - 1, J_max)]
        return 1.0 + h_val + sup_on(cond_target, eta_vals <= math.ceil(max(xv, 1.0)))

    g0_table = np.array([g0(float(v)) for v in range(0, int(K_max) + 2)])
    for attempt in range(5):  # doubling the order; the last failure propagates
        try:
            maj = convex_majorant(g0, K_max=K_max, trunc_order=trunc_order << attempt)
            break
        except TruncationError:
            if attempt == 4:
                raise
    phi = maj.compose(eta)
    triple = weight_triple(phi, psi)

    weighted, = _weighted_sq_vals([(f, triple.w2)], pts)
    norm_w2 = float(np.mean(weighted * (eta_vals <= (J_max + 1))))

    return WeightRecipe(triple=triple, domain=dom, b=b, m=m, g0_table=g0_table,
                        norm_w2_est=norm_w2)
