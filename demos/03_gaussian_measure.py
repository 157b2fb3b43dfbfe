"""The Gaussian product measure: sampling, quadrature, reduction, Gauss-Green.

The measure multiplies centered complex Gaussians with scales a_i = 2^-(i+1),
so the scale sum stays below 1.  Reduction integrates out the coordinates
beyond a target dimension with a tensor Gauss-Hermite tail rule whose node
counts follow the scales (8 on the first tail axis, 4 on an axis half as
wide, at least 2); an axis of m nodes is exact for polynomial dependence of
degree below 2m.  The Gauss-Green identity trades the
x-derivative against multiplication by x/a^2 under the measure.
"""

import numpy as np

from dbarl2.gaussmeasure import (GaussianSpec, Quadrature, gauss_green_residual,
                                 integrate, reduce_fn, sample, verdict)
from dbarl2.symfun import CylinderFn

spec = GaussianSpec(trunc_dim=3)
print("scales a_i:", [spec.a(i) for i in (1, 2, 3)])

mc = Quadrature("monte_carlo", N=200_000, seed=42)
gh = Quadrature("gauss_hermite", nodes_per_axis=8)

print("\nMoments against both quadratures")
est = integrate(CylinderFn("x(1)^2"), spec, mc)
print(f"  MC  E[x1^2] = {est.mean.real:.6f} +- {est.stderr:.1e}   (exact {spec.a(1) ** 2})")
est = integrate(CylinderFn("x(1)^2+y(1)^2"), spec, gh)
print(f"  GH  E[|z1|^2] = {est.mean.real:.12f}              (exact {2 * spec.a(1) ** 2})")
print(f"  GH  total mass = {integrate(CylinderFn('1'), spec, gh).mean.real:.12f}")

print("\nReduction: integrate out the tail coordinates")
r = reduce_fn(CylinderFn("x(3)^2"), 2, spec)
pts = sample(spec, 3, 1, n=2)
print(f"  (x3^2) reduced to dim 2 is the constant {r(pts)[0].real:.8f}"
      f" = a_3^2 = {spec.a(3) ** 2}")
r0 = reduce_fn(CylinderFn("x(1)*x(3)"), 2, spec)
print(f"  (x1 x3) reduced: max |value| = {np.max(np.abs(r0(pts))):.1e} (odd moment)")

print("\nGauss-Green identity, paired Monte Carlo")
f = CylinderFn("(1+x(1))*bump((x(1)^2+y(1)^2)/0.81)")
rep = gauss_green_residual(f, 1, spec, mc)
print(f"  residual {rep.residual:.2e} vs 3 sigma = {3 * rep.stderr:.2e}  -> "
      f"{'consistent' if verdict(-rep.residual, rep.stderr, 1e-8) else 'violated'}")
rep = gauss_green_residual(CylinderFn("x(1)"), 1, spec, mc)
print(f"  Stein extension f = x1: lhs = {rep.lhs.real:.4f}, rhs = {rep.rhs.real:.4f}")
