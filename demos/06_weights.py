"""Cut-offs, majorants, and the weight triple.

The estimate machinery needs: cubic cut-offs X_k = h_k(eta) with slope at
most 3/2; a majorant psi controlling the cut-off gradients; a convex
real-analytic series majorant g (for phi = g(eta)); and the curvature
condition tying the Levi form of phi to psi.
"""

import numpy as np

from dbarl2 import domains as dm
from dbarl2 import weights as wt
from dbarl2.gaussmeasure import GaussianSpec
from dbarl2.symfun import CylinderFn, delbar_op

print("Cubic cut-off h_2: plateau, midpoint, slope extremum")
cf = wt.cutoff(2)
print("  h(2) =", cf.h([2.0])[0], " h(2.5) =", cf.h([2.5])[0], " h(3) =", cf.h([3.0])[0])
ts = np.linspace(2, 3, 100001)
print("  max |h'| =", float(np.max(np.abs(cf.h_prime(ts)))), "(the 3/2 bound is tight)")

print("\npsi majorant on the normalized ball: controls all cut-off gradients")
dom = dm.normalize_eta(dm.ball(r=1.0))
rep = wt.psi_majorant(dom, 2, levels=3, samples=4000, seed=11)
pts = dom.sample_sublevel(2, 4.0, 1000, 12)
worst = -np.inf
for k in (1, 2, 3):
    Xk = wt.cutoff(k, dom.eta(2)).X_k
    total = sum(np.abs(delbar_op(Xk, i)(pts)) ** 2 for i in (1, 2))
    worst = max(worst, float(np.max(total - np.exp(np.real(rep.psi(pts))))))
print(f"  max over k of (sum |dbar X_k|^2 - e^psi) = {worst:.3f}  (<= 0 required)")

print("\nConvex series majorant: g'' >= g' >= g >= g0 on [0, 10]")
g0 = lambda v: 1000.0 if v >= 5 else 1.0
maj = wt.convex_majorant(g0, K_max=10.0, trunc_order=300)
grid = np.linspace(0, 10, 2001)
print("  min g''-g' =", float(np.min(maj.deriv(grid, 2) - maj.deriv(grid, 1))))
print("  min g'-g   =", float(np.min(maj.deriv(grid, 1) - maj(grid))))
print("  min g-g0   =", float(np.min(maj(grid) - [g0(v) for v in grid])))
print("  factor bound a_l >= 1/l holds:",
      all(maj.a_seq[l] >= 1 / l for l in range(1, len(maj.a_seq))))

print("\nC2 majorant vanishing below x1 = 1")
g = lambda t: 0.0 if t <= 3.0 else 1.0
G = wt.calculus_G(g, x1=1.0, x2=3.0, K_max=8.0)
grid = np.linspace(0, 8, 1601)
gv = np.array([g(t) for t in grid])
print("  G = 0 below x1:", float(np.max(np.abs(G(grid[grid <= 1.0])))) == 0.0)
print("  min G - g =", float(np.min(G(grid) - gv)),
      " min G' - g =", float(np.min(G.deriv(grid) - gv)),
      " min G'' =", float(np.min(G.second(grid))))

print("\nCurvature condition for the weight triple")
spec = GaussianSpec(2)
phi = CylinderFn("3*(x(1)^2+y(1)^2+x(2)^2+y(2)^2)")
margin4 = wt.check_cond4(phi, CylinderFn("0"), 2,
                         np.random.default_rng(0).normal(size=(50, 4)) * 0.2)
print(f"  phi = 3||z||^2, psi = 0: margin = {margin4:.3f} (Hessian 3I vs bound 3/2)")
margin4 = wt.check_cond4(CylinderFn("0"), CylinderFn("0"), 2, np.zeros((1, 4)))
print(f"  phi = 0 fails as it must: margin = {margin4:.3f}")
tri, dom2, kappa = wt.recipe_weights_whole_space(spec)
print(f"  recipe weights on the whole space use kappa = {kappa:.2f}")
