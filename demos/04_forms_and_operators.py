"""Forms, the d-bar complex, the explicit adjoint, and the identity checks.

A form is a sparse map from index pairs to cylinder coefficients.  The
operator layer gives dbar (one degree up), the closed-form adjoint T*
(one degree down, weights built in), and residual checks for every identity:
the adjoint pairing, integration by parts, the commutator, the weak
formulation, and the multiplier rule.
"""

from dbarl2 import dbarops as do
from dbarl2.forms import Form
from dbarl2.gaussmeasure import GaussianSpec, Quadrature, sample
from dbarl2.multiindex import constant_family
from dbarl2.symfun import CylinderFn

spec = GaussianSpec(2)
fam = constant_family(1.0)
bmp = "bump(((x(1)^2+y(1)^2)+(x(2)^2+y(2)^2))/0.64)"

u = Form((0, 0), {((), ()): CylinderFn(f"x(1)*{bmp}")}, fam)
f = Form((0, 1), {((), (1,)): CylinderFn(f"y(2)*{bmp}")}, fam)

print("dbar raises the degree; S after T vanishes identically")
Tu = do.dbar(u)
print("  dbar u has coefficients at:", sorted(Tu.coeffs))
pts = sample(spec, 100, 5)
print(f"  max |(dbar dbar u)| over 100 points: {do.st_complex_residual(u, pts):.1e}")

ctx = do.OperatorContext(spec, fam, CylinderFn("x(1)^2"),
                         CylinderFn("0.5*(x(1)^2+y(2)^2)"),
                         CylinderFn("0"), CylinderFn("x(1)^2"))

print("\nAdjoint pairing <Tu, f>_w2 = <u, T*f>_w1 (paired Monte Carlo)")
mc = Quadrature("monte_carlo", N=50_000, seed=9)
est = do.adjoint_residual(u, f, ctx, mc)
print(f"  residual {abs(est.mean):.2e} vs 3 sigma = {3 * est.stderr:.2e}")

print("\nIntegration by parts, plain and weighted")
g1, g2 = u.coeff((), ()), f.coeff((), (1,))
for weighted in (False, True):
    est = do.ibp_residual(g1, g2, 1, spec, mc, weighted=weighted, varphi=ctx.varphi)
    kind = "sigma (weighted)" if weighted else "delta (plain)   "
    print(f"  {kind}: {abs(est.mean):.2e} vs 3 sigma = {3 * est.stderr:.2e}")

print("\nCommutator of dbar_i with sigma_j is multiplication, exactly")
res = do.commutator_residual(CylinderFn("z(1)*zb(2)"), 1, 1, ctx, pts)
print(f"  max pointwise residual: {res:.1e}")

print("\nWeak formulation distinguishes the true image from a corrupted one")
g = do.dbar(u)
test = CylinderFn(f"y(1)*{bmp}")
good = do.weak_dbar_residual(u, g, test, (), (1,), spec, mc)
bad_g = g + Form((0, 1), {((), (1,)): CylinderFn(bmp)}, fam)
bad = do.weak_dbar_residual(u, bad_g, test, (), (1,), spec, mc)
print(f"  true image:      {abs(good.mean):.2e}  ({abs(good.mean) / max(good.stderr, 1e-300):.1f} sigma)")
print(f"  corrupted image: {abs(bad.mean):.2e}  ({abs(bad.mean) / max(bad.stderr, 1e-300):.1f} sigma)")

print("\nMultiplier rule T(m f) = m Tf + (Tm) wedge f, pointwise")
print(f"  residual for m = x(1): {do.multiplier_residual(CylinderFn('x(1)'), f, ctx, pts):.1e}")
