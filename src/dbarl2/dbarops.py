"""The d-bar operator on forms, the explicit adjoint, and identity verifiers.

On a form of degree (s,t) the operator acts coefficient-wise through the
antiholomorphic Wirtinger derivatives:

    dbar f = (-1)^s sum over I, K, i, J of eps^K_{iJ} dbar_i f[I,J] dz_I dzb_K.

The adjoint is evaluated through its closed form (weights w1, w2 and the
contraction coefficients of the family):

    T* f = (-1)^(s+1) e^(w1-w2) sum' (c[I,iL]/c[I,L])
           (delta_i f[I,iL] - f[I,iL] d_i w2) dz_I dzb_L.

Every named identity (integration by parts, the adjoint pairing, the
commutator, weak d-bar, and the multiplier rule) has a residual function; an
integral one pairs its two sides in ``gaussmeasure.integrals``, so noise cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import Form, _ball_values, _spread, add_term, inner_vals
from .gaussmeasure import GaussianSpec, MCEstimate, Quadrature, integrals
from .multiindex import WeightFamily, as_multiindex, contractions, insertions
from .symfun import (CylinderFn, add, const, del_op, delbar_op, delta_op, eval_expr,
                     exp_, mul, sigma_op)


@dataclass
class OperatorContext:
    """Measure, weight family, weight triple (w1, w2, w3), and the fixed varphi."""

    spec: GaussianSpec
    family: WeightFamily
    w1: CylinderFn
    w2: CylinderFn
    w3: CylinderFn
    varphi: CylinderFn


def _wedge(f: Form, r: int, term) -> Form:
    """(-1)^s sum over I, K, i <= r, J of eps^K_{iJ} term(f[I,J], i) dz_I dzb_K,
    a zero term skipped: degree (s,t) -> (s,t+1)."""
    s, t = f.degree
    sgn_s = -1.0 if s % 2 else 1.0
    out: dict = {}
    for (I, J), fn in f.coeffs.items():
        for i, sign, K in insertions(J, r):
            g = term(fn, i)
            if not g.is_zero():
                add_term(out, (I, K), (sgn_s * sign) * g)
    return Form((s, t + 1), out, f.family)


def dbar(f: Form) -> Form:
    """(s,t) -> (s,t+1); the finite i-range is forced by the coefficient dims."""
    return _wedge(f, max(f.max_dim(), f.max_index()), delbar_op)


def Tstar(f: Form, ctx: OperatorContext) -> Form:
    """Closed-form adjoint of dbar between the (w1, w2) weighted spaces."""
    s, tp1 = f.degree
    if tp1 < 1:
        raise ValueError("Tstar needs a form of degree (s, t+1) with t+1 >= 1")
    t = tp1 - 1
    sgn = -1.0 if (s + 1) % 2 else 1.0
    gauge = CylinderFn(exp_(add(ctx.w1.expr, mul(const(-1), ctx.w2.expr))),
                       dim=max(ctx.w1.dim, ctx.w2.dim))
    out: dict = {}
    for (I, J), fn in f.coeffs.items():
        cIJ = ctx.family.coeff(I, J)  # c[I, iL]: i is contracted out of J, so iL = J
        for i, L, sign in contractions(J):
            cIL = ctx.family.coeff(I, L)
            contracted = sign * fn if sign != 1 else fn
            inner_term = delta_op(contracted, i, ctx.spec.a(i)) \
                - contracted * del_op(ctx.w2, i)
            add_term(out, (I, L), (sgn * cIJ / cIL) * (gauge * inner_term))
    return Form((s, t), out, f.family)


def adjoint_residual(u: Form, f: Form, ctx: OperatorContext,
                     quad: Quadrature) -> MCEstimate:
    """| <Tu, f>_{w2} - <u, T*f>_{w1} | with shared quadrature points."""
    Tu = dbar(u)
    Tsf = Tstar(f, ctx)
    (est, _, _), = integrals(quad, ctx.spec, lambda pts: [
        (inner_vals(Tu, f, ctx.w2, pts), inner_vals(u, Tsf, ctx.w1, pts))])
    return est


def ibp_residual(f: CylinderFn, g: CylinderFn, i: int, spec: GaussianSpec,
                 quad: Quadrature, weighted: bool = False,
                 varphi: Optional[CylinderFn] = None) -> MCEstimate:
    """Residual of the integration-by-parts identity.

    Unweighted: integral(dbar_i f * conj(g)) + integral(f * conj(delta_i g)).
    Weighted:   the same with sigma_i in place of delta_i and an e^{-varphi}
    factor under both integrals.
    """
    if weighted and varphi is None:
        raise ValueError("weighted variant needs varphi")
    adj = sigma_op(g, i, spec.a(i), varphi) if weighted else delta_op(g, i, spec.a(i))

    def sides(pts):  # both integrands vanish off the supports of f and g
        (on, _, (dbf, vg, vf, vadj), ew), = _ball_values(
            [([delbar_op(f, i).expr, g.expr, f.expr, adj.expr], varphi if weighted else None,
              mul(f.expr, g.expr))], pts)
        return [(_spread(dbf * np.conjugate(vg), on, ew, len(pts)),
                 _spread(-vf * np.conjugate(vadj), on, ew, len(pts)))]
    (est, _, _), = integrals(quad, spec, sides)
    return est


def commutator_residual(h: CylinderFn, i: int, j: int, ctx: OperatorContext,
                        points: np.ndarray) -> float:
    """Max pointwise residual of the sigma/dbar commutator identity.

    (dbar_i sigma_j - sigma_j dbar_i) h = -h (dbar_i d_j varphi)
                                          - (kron(i,j)/(2 a_j^2)) h.
    """
    varphi = ctx.varphi
    a_j = ctx.spec.a(j)
    left = delbar_op(sigma_op(h, j, a_j, varphi), i) \
        - sigma_op(delbar_op(h, i), j, a_j, varphi)
    cross = h * delbar_op(del_op(varphi, j), i)
    kron = 1.0 if i == j else 0.0
    vl, vc, vh = eval_expr([left.expr, cross.expr, h.expr], points)
    return max_abs([vl + vc + (kron / (2.0 * a_j ** 2)) * vh])


def weak_dbar_residual(f: Form, g: Form, testfn: CylinderFn, I, K,
                       spec: GaussianSpec, quad: Quadrature) -> MCEstimate:
    """Residual of the weak d-bar identity for the (I, K) component.

    (-1)^(s+1) integral sum_i sum'_J eps^K_{iJ} f[I,J] conj(delta_i testfn)
    minus integral g[I,K] conj(testfn); both sides on shared points.
    """
    I, K = as_multiindex(I), as_multiindex(K)
    s, t = f.degree
    if len(I) != s or len(K) != t + 1:
        raise ValueError("index cardinalities do not match the degrees")
    sgn = -1.0 if (s + 1) % 2 else 1.0
    terms = [(sgn * sign, f.coeffs[(I, J)].expr, delta_op(testfn, i, spec.a(i)).expr)
             for i, J, sign in contractions(K) if (I, J) in f.coeffs]
    pairs = [(fe, de) for _, fe, de in terms] + [(g.coeff(I, K).expr, testfn.expr)]

    def sides(pts):  # both integrands vanish off the supports of their products
        (on, m, vals, _), = _ball_values(
            [([e for pair in pairs for e in pair], None, [mul(a, b) for a, b in pairs])], pts)
        lhs = np.zeros(m, dtype=complex)
        for (c, _, _), vf, vd in zip(terms, vals[0::2], vals[1::2]):
            lhs += c * vf * np.conjugate(vd)
        return [(_spread(lhs, on, None, len(pts)),
                 _spread(vals[-2] * np.conjugate(vals[-1]), on, None, len(pts)))]
    (est, _, _), = integrals(quad, spec, sides)
    return est


def wedge_dbar_fn(m: CylinderFn, f: Form) -> Form:
    """(T m) wedge f = (-1)^s sum eps^K_{iJ} f[I,J] dbar_i(m) dz_I dzb_K."""
    return _wedge(f, max(f.max_index(), m.dim, f.max_dim()),
                  lambda fn, i: fn * delbar_op(m, i))


def multiplier_residual(m: CylinderFn, f: Form, ctx: OperatorContext,
                        points: np.ndarray) -> float:
    """Max pointwise coefficient residual of T(m f) = m (T f) + (T m) wedge f."""
    lhs = dbar(f.mul_fn(m))
    rhs = dbar(f).mul_fn(m) + wedge_dbar_fn(m, f)
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    vals = eval_expr([g.coeff(*k).expr for k in keys for g in (lhs, rhs)], points)
    return max_abs(va - vb for va, vb in zip(vals[0::2], vals[1::2]))


def st_complex_residual(u: Form, points: np.ndarray) -> float:
    """Max pointwise coefficient of dbar(dbar u): the complex property S T = 0."""
    return max_abs(eval_expr([fn.expr for fn in dbar(dbar(u)).coeffs.values()], points))


def max_abs(values) -> float:
    """Largest |v| over a sequence of arrays; 0.0 when there is none.  A NaN
    entry makes it NaN, so no comparison against a tolerance passes it."""
    maxima = [np.max(np.abs(v)) for v in values if len(v)]
    return float(np.max(maxima)) if maxima else 0.0
