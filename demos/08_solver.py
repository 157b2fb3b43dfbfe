"""Minimal-norm solves and the weighted bounds.

A manufactured problem (pick u0, set f = dbar u0) has a known answer; the
Galerkin solve recovers it to high accuracy, its solution norm obeys the
a-priori bound, and the classical planar transform gives an independent
second solution whose norm can only be larger.
"""

import numpy as np

from dbarl2 import dbarops as do
from dbarl2 import domains as dm
from dbarl2 import solver as sv
from dbarl2 import weights as wt
from dbarl2.forms import Form
from dbarl2.gaussmeasure import GaussianSpec, Quadrature
from dbarl2.multiindex import constant_family
from dbarl2.symfun import CylinderFn

spec = GaussianSpec(1)
fam = constant_family(1.0)
phi = CylinderFn("3*(x(1)^2+y(1)^2)")
ctx = do.OperatorContext(spec, fam, phi, phi, phi, CylinderFn("0"))

R = 0.8
u0 = Form((0, 0), {((), ()): CylinderFn(f"x(1)*bump((x(1)^2+y(1)^2)/{R * R})")}, fam)
f = do.dbar(u0)

print("Minimal-norm Galerkin solve of dbar u = f (manufactured problem)")
prob = sv.SolveProblem(ctx=ctx, domain=dm.ball(r=1.0), f=f, degree=8, n=1,
                       radius=R, quad=Quadrature("gauss_hermite", nodes_per_axis=24))
u, rep = sv.solve_min_norm(prob)
print(f"  relative residual   {rep.residual:.2e}")
print(f"  ||u||_w1 = {rep.norm_u_w1:.6f}  vs bound ||f||_w2 = {rep.norm_f_w2:.6f}")
print(f"  bound sqrt(c0)||u|| <= ||f||: {rep.bound_pass}   (c0 = {rep.c0})")
print(f"  numerical rank {rep.rank} of basis size {rep.basis_dim}, "
      f"condition number {rep.cond:.2e}")

print("\nIndependent oracle: the planar transform u_c(z) = -(1/pi) int f/(zeta - z)")
oracle = sv.CauchyOracle(f1=f.coeff((), (1,)))
val = oracle.dbar_residual_on_grid(extent=0.7, res=7)
print(f"  oracle validation: max |dbar u_c - f| on a grid = {val:.1e}")
pts, w = prob.quad.nodes_weights(spec)
norm_uc = float(np.sqrt(np.sum(w * np.abs(oracle(pts)) ** 2
                               * np.exp(-np.real(ctx.w1(pts))))))
print(f"  ||u_c||_w1 = {norm_uc:.6f} >= solver norm {rep.norm_u_w1:.6f} (minimality)")

print("\nKey inequality with recipe-built weights on the whole space")
spec2 = GaussianSpec(2)
tri, dom, kappa = wt.recipe_weights_whole_space(spec2)
ctx2 = do.OperatorContext(spec2, fam, tri.w1, tri.w2, tri.w3, tri.phi)
cond4_pts = dom.sample_sublevel(2, 2.0, 200, 55)
bmp = "bump(((x(1)^2+y(1)^2)+(x(2)^2+y(2)^2))/0.36)"
f2 = Form((0, 1), {((), (1,)): CylinderFn(f"x(2)*{bmp}"),
                   ((), (2,)): CylinderFn(f"(x(1)+y(1))*{bmp}")}, fam)
out = sv.key_inequality_check(f2, ctx2, Quadrature("monte_carlo", N=20_000, seed=17),
                              tri, dom, cond4_pts)
print(f"  ||T* f||^2_w1 + ||S f||^2_w3 = {out.lhs:.4f} >= c0 ||f||^2_w2 = {out.rhs:.4f}"
      f"  (margin {out.margin:.4f} +- {out.stderr:.4f})")

print("\nWeighted bound audit for the solved problem")
levi_pts = np.random.default_rng(9).normal(size=(50, 2)) * 0.3
chk = sv.weighted_bound_check(u, f, ctx, CylinderFn("3"), prob.quad, levi_pts)
print(f"  ||u||^2_phi = {chk.lhs:.5f} <= {chk.rhs:.5f} = 2||f/sqrt(c)||^2_phi/(c0(t+1))"
      f" : {chk.passed}")
