"""The symbolic layer: expressions, Wirtinger calculus, and the adjoint germ.

Everything downstream rides on exact symbolic partial derivatives of cylinder
functions.  This script differentiates a few expressions, shows the
holomorphic/antiholomorphic split, and cross-checks against the centered
finite-difference oracle.
"""

import numpy as np

from dbarl2.symfun import (CylinderFn, del_op, delbar_op, delta_op, fd_check,
                           parse, sigma_op)

pt = np.array([[0.3, -0.2, 0.1, 0.4]])

print("Wirtinger split: z is holomorphic, zb is antiholomorphic")
print("  dbar_1 z(1)  =", delbar_op(CylinderFn("z(1)"), 1)(pt)[0])
print("  dbar_1 zb(1) =", delbar_op(CylinderFn("zb(1)"), 1)(pt)[0])
print("  del_1  zb(1) =", del_op(CylinderFn("zb(1)"), 1)(pt)[0])

print("\nThe Gaussian-adjoint germ: delta_i f = del_i f - zb_i/(2 a_i^2) f")
a1 = 0.25
d = delta_op(CylinderFn("1"), 1, a1)
print("  delta_1 1 at (0.3, -0.2):", d(pt)[0], " (pure multiplication term)")

print("\nsigma twists delta by a weight gradient")
varphi = CylinderFn("x(1)^2")
s = sigma_op(CylinderFn("x(1)"), 1, a1, varphi)
print("  sigma_1 x(1) with varphi = x(1)^2:", s(pt)[0])

print("\nFinite-difference oracle on a compactly supported expression")
e = parse("bump((x(1)^2+y(1)^2)/0.64)*sin(x(2))")
dev = fd_check(e, np.array([0.2, 0.1, 0.5, -0.3]), 1e-5)
print(f"  max |symbolic - FD| = {dev:.2e}")

print("\nCompact support is honored exactly")
f = CylinderFn("bump((x(1)^2+y(1)^2)/0.25)")
outside = np.array([[0.6, 0.0], [0.0, -0.9], [2.0, 2.0]])
print("  values outside the radius:", np.abs(f(outside)))
