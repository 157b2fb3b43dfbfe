"""Sparse (s,t)-forms with weighted L2 norms.

A form is a finite sum of coefficients f[I, J] dz_I wedge dzb_J over strictly
increasing multi-indices with |I| = s and |J| = t.  Coefficients are cylinder
functions (``CylinderFn``; a values-only payload enters one as a ``Leaf``);
absent keys are zero.  The squared norm is

    sum' c[I, J] * integral of |f[I, J]|^2 e^(-w) dP,

computed by ``gaussmeasure.integrals``, the one integral function, on one point
set shared by all coefficients, so that residual checks can pair their estimates.
Every integrand is computed by ``_ball_values``, which keeps the values of each
root it evaluated on the last read-only point set it was given, so the checks
that share one Monte Carlo set (the adjoint pairing, integration by parts,
weak d-bar) compute a coefficient or a weight there once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from .gaussmeasure import GaussianSpec, MCEstimate, Quadrature, integrals, support_mask
from .multiindex import MultiIndex, WeightFamily, as_multiindex
from .symfun import Const, CylinderFn, ZERO_FN, conj_, eval_expr, max_index, mul, support


Key = Tuple[MultiIndex, MultiIndex]


class DegreeError(ValueError):
    pass


def add_term(coeffs: dict, key: Key, term: CylinderFn) -> None:
    """coeffs[key] += term; a new key starts at term."""
    coeffs[key] = coeffs[key] + term if key in coeffs else term


@dataclass
class Form:
    degree: Tuple[int, int]
    coeffs: Dict[Key, CylinderFn]
    family: WeightFamily

    def __post_init__(self):
        s, t = self.degree
        if s < 0 or t < 0:
            raise DegreeError("degrees must be nonnegative")
        clean = {}
        for (I, J), fn in self.coeffs.items():
            I, J = as_multiindex(I), as_multiindex(J)
            if len(I) != s or len(J) != t:
                raise DegreeError(f"key ({I},{J}) has wrong cardinalities for degree {self.degree}")
            if not fn.is_zero():
                clean[(I, J)] = fn
        self.coeffs = clean

    def coeff(self, I, J) -> CylinderFn:
        return self.coeffs.get((tuple(I), tuple(J)), ZERO_FN)

    def max_index(self) -> int:
        out = 0
        for (I, J) in self.coeffs:
            out = max(out, max(I, default=0), max(J, default=0))
        return out

    def max_dim(self) -> int:
        return max((fn.dim for fn in self.coeffs.values()), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def map_coeffs(self, op) -> "Form":
        return Form(self.degree, {k: op(v) for k, v in self.coeffs.items()}, self.family)

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for k, fn in other.coeffs.items():
            add_term(out, k, fn)
        return Form(self.degree, out, self.family)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "Form":
        if c == 0:
            return Form(self.degree, {}, self.family)
        return self.map_coeffs(lambda fn: c * fn)

    def mul_fn(self, m: CylinderFn) -> "Form":
        """Multiply every coefficient by a scalar function (m . f)."""
        return self.map_coeffs(lambda fn: m * fn)


# The value memo of ``_ball_values``: the last point set it was given, when
# that array is read-only and owns its data, and for each support ball on it
# (the selection, the points on it, a weak table from each non-constant root
# to its read-only values there).  Any other point set empties it.
_memo = SimpleNamespace(pts=None, balls={})


def _ball_values(groups, pts: np.ndarray) -> list:
    """(on, m, vals, ew) for each group (exprs, w_fn, integrand): the values of
    exprs and the factor e^{-Re w_fn} (None without a weight) at the m points
    pts[on].  One rule, weighted or not: pts[on] are the points ``support_mask``
    keeps for the ball (r, k) that ``symfun.support`` derives for the integrand
    (an expression, or a sequence read as a sum), which is 0 off it; every point
    when it derives none.  Groups that select the same points share one
    evaluation; a group without exprs, as the zero function, selects no point
    and evaluates no weight; an expression past the points' dimension raises
    ``ValueError``, even on an empty ball.  The one place that forms e^{-Re w}.

    On a read-only point set that owns its data (the cached Monte Carlo sets,
    the Galerkin nodes) the values of every non-constant root are kept per
    ball while its node lives and pts is the last point set given, so a later
    call computes only the roots it lacks, and nothing below one it has.  The
    values are read-only; they are those of a cold call, bit for bit."""
    balls: dict = {}
    for k, (exprs, _, integrand) in enumerate(groups):
        balls.setdefault(support(integrand) if exprs else (0.0, 0), []).append(k)
    if _memo.pts is not pts:
        _memo.pts = pts if not pts.flags.writeable and pts.flags.owndata else None
        _memo.balls = {}
    slot = _memo.balls if _memo.pts is pts else {}
    out = [None] * len(groups)
    for ball, ks in balls.items():
        roots = []
        for k in ks:
            exprs, w_fn = groups[k][:2]
            roots += list(exprs) if w_fn is None else [*exprs, w_fn.expr]
        if 2 * max(map(max_index, roots), default=0) > pts.shape[1]:
            raise ValueError(f"an integrand exceeds the points' C^{pts.shape[1] // 2}")
        if ball not in slot:
            on = slice(None) if ball is None else \
                support_mask(pts, *ball) if ball[0] else np.zeros(len(pts), dtype=bool)
            sub = pts if ball is None else np.compress(on, pts, axis=0)  # pts[on], but faster
            slot[ball] = (on, sub, weakref.WeakKeyDictionary())
        on, sub, known = slot[ball]
        vals = iter(_root_values(roots, sub, known))
        for k in ks:
            exprs, w_fn = groups[k][:2]
            coeff_vals = [next(vals) for _ in exprs]
            ew = None if w_fn is None else np.exp(-np.real(next(vals)))
            out[k] = (on, len(sub), coeff_vals, ew)
    return out


def _root_values(roots, pts: np.ndarray, known) -> list:
    """The values of roots at pts: those the weak table known keeps, and the
    others from one evaluation that reads them; each new non-constant value
    is kept in known, read-only."""
    if not len(pts):
        return [np.zeros(0, dtype=complex)] * len(roots)
    have = dict(known.items())
    lacking = [r for r in dict.fromkeys(roots) if r not in have]
    if lacking:
        for r, v in zip(lacking, eval_expr(lacking, pts, known=have)):
            v = have[r] = v.view()  # a view: a leaf may return its payload's own array
            v.flags.writeable = False
            if not isinstance(r, Const):
                known[r] = v
    return [have[r] for r in roots]


def _weighted_sq_vals(parts, pts: np.ndarray) -> list:
    """Pointwise Sum' c[I,J] |f[I,J]|^2 e^{-w} (no factor without a weight) for
    each (form, w_fn) in parts, zero off the form's support ball."""
    groups = []
    for form, w_fn in parts:
        exprs = [fn.expr for fn in form.coeffs.values()]
        groups.append((exprs, w_fn, exprs))
    totals = []
    for (form, _), (on, m, vals, ew) in zip(parts, _ball_values(groups, pts)):
        total = np.zeros(m)
        for (I, J), v in zip(form.coeffs, vals):
            total += form.family.coeff(I, J) * np.abs(v) ** 2
        totals.append(_spread(total, on, ew, pts.shape[0]))
    return totals


def _spread(total: np.ndarray, on, ew, size: int) -> np.ndarray:
    """total * ew (total without a weight) at the selected points, zero elsewhere."""
    out = np.zeros(size, dtype=total.dtype)
    out[on] = total if ew is None else total * ew
    return out


def norm_sq(form: Form, w_fn, spec: GaussianSpec, quad: Quadrature) -> MCEstimate:
    """Weighted squared norm with a shared point set across coefficients."""
    (est, _, _), = integrals(quad, spec,
                             lambda pts: [(_weighted_sq_vals([(form, w_fn)], pts)[0], 0)])
    return est


def inner(fa: Form, fb: Form, w_fn, spec: GaussianSpec, quad: Quadrature) -> MCEstimate:
    """Weighted inner product sum' c[I,J] integral f_a conj(f_b) e^{-w} dP."""
    if fa.degree != fb.degree:
        raise DegreeError("inner product needs equal degrees")
    (est, _, _), = integrals(quad, spec, lambda pts: [(inner_vals(fa, fb, w_fn, pts), 0)])
    return est


def inner_vals(fa: Form, fb: Form, w_fn, pts: np.ndarray) -> np.ndarray:
    """Pointwise integrand of the weighted inner product (for paired residuals)."""
    keys = list(set(fa.coeffs) & set(fb.coeffs))
    exprs = [g.coeffs[k].expr for k in keys for g in (fa, fb)]
    integrand = [mul(a, conj_(b)) for a, b in zip(exprs[0::2], exprs[1::2])]
    (on, m, vals, ew), = _ball_values([(exprs, w_fn, integrand)], pts)
    total = np.zeros(m, dtype=complex)
    for k, va, vb in zip(keys, vals[0::2], vals[1::2]):
        total += fa.family.coeff(*k) * va * np.conjugate(vb)
    return _spread(total, on, ew, pts.shape[0])


def parse_form_literal(entries, degree, family: WeightFamily,
                       support_radius: Optional[float] = None) -> Form:
    """Build a form from config-file literals: [{"I": [...], "J": [...], "coeff": "expr"}].

    A ``support_radius`` is a claim about every coefficient, checked as
    ``CylinderFn`` checks it and never used."""
    coeffs = {}
    for ent in entries:
        I = as_multiindex(ent.get("I", ()))
        J = as_multiindex(ent.get("J", ()))
        add_term(coeffs, (I, J), CylinderFn(ent["coeff"], support_radius=support_radius))
    return Form(tuple(degree), coeffs, family)
