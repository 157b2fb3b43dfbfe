"""The pseudo-convex catalog: exhaustions, Levi forms, and boundary geometry.

The catalog is the ball (any center and radius), the polydisc and the whole
space; each domain carries its truncated exhaustion function, its boundary
distance and its interior sampler.  The exhaustion's complex Hessian (the Levi
form) must be positive semidefinite.  Normalization shifts the exhaustion so
it is nonnegative and its Levi form dominates the identity.  d_V(domain, pts)
is the boundary-distance rule at each point, and a sub-level set is uniformly
included when the infimum of d_V over it is positive.
"""

import numpy as np

from dbarl2 import domains as dm
from dbarl2.gaussmeasure import STRICT, verdict

ball = dm.ball(r=1.0)
print("Unit ball, eta = -ln(1 - ||z||^2)")
print("  eta(0) =", ball.eta(2)(np.zeros(4))[0].real)
v = np.zeros(4)
v[0] = np.sqrt(1 - np.exp(-1.0))
print("  eta at ||z||^2 = 1 - 1/e:", ball.eta(2)(v)[0].real)
print("  Levi min eigenvalue at 0:", float(dm.levi_min_eigs(ball.eta(2), np.zeros(4), 2)[0]))

print("\nLevi scans over 50 interior points")
for dom, name in ((ball, "ball"), (dm.polydisc(), "polydisc"),
                  (dm.ball(center=(0.2,), r=1.5), "translated/scaled"),
                  (dm.whole_space(), "whole space")):
    pts = dom.sample_interior(2, 50, 7)
    print(f"  {name:18s} min eig = {float(np.min(dm.levi_min_eigs(dom.eta(2), pts, 2))):+.4f}")

print("\nNormalization: eta + ||z||^2 - inf, Levi form gains the identity")
nb = dm.normalize_eta(ball)
pts = nb.sample_interior(2, 500, 8)
print("  min eta after normalization:", float(np.min(np.real(nb.eta(2)(pts)))))
print("  min Levi eigenvalue:", float(np.min(dm.levi_min_eigs(nb.eta(2), pts[:50], 2))))

print("\nBoundary geometry")
print("  d_V at ||z|| = 0.5:", dm.d_V(ball, np.array([[0.5, 0, 0, 0]]))[0])
print("  d_V at the center (1/0 = infinity convention):", dm.d_V(ball, np.zeros((1, 4)))[0])
margin = dm.uniformly_included(ball, 1.0, n=2)
print(f"  sub-level tau = 1 uniformly included: {verdict(margin, 0.0, STRICT)} "
      f"(margin {margin:.3f})")
