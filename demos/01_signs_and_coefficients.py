"""Multi-index signs and coefficient families.

Wedging a coordinate differential onto a strictly increasing multi-index
picks up the sign of the sorting permutation; the weighted norms attach a
positive number c[I, J] to every index pair.  This walk-through computes a
few signs by hand, then runs the three structural condition checkers on the
families the estimates care about.
"""

from dbarl2.multiindex import (check_conditions, constant_family, epsilon,
                               insert, multiplicative_family, prior_work_family)

print("Insertion signs")
print("  eps(2, (1,3) -> (1,2,3)) =", epsilon(2, (1, 3), (1, 2, 3)), " (one swap)")
print("  eps(4, (1,3) -> (1,3,4)) =", epsilon(4, (1, 3), (1, 3, 4)), " (already sorted)")
print("  eps(1, (1,3) -> (1,2,3)) =", epsilon(1, (1, 3), (1, 2, 3)), " (duplicate index)")
print("  insert(2, (1,3)) ->", insert(2, (1, 3)))

print("\nConstant family: every ratio c[I,iJ]/c[I,J] is 1")
rep = check_conditions(constant_family(1.0), max_index=6, s=0, t=0)
print(f"  c1 = {rep.c1_sup}, c0 = {rep.c0_inf}, multiplicative: {rep.multiplicative_ok}")

print("\nMultiplicative family mu(j) = 1 + 1/j: ratios are mu(i)")
rep = check_conditions(multiplicative_family(mu=lambda j: 1 + 1 / j),
                       max_index=6, s=0, t=0)
print(f"  c1 = {rep.c1_sup}  (mu(1) = 2),  c0 = {rep.c0_inf}  (mu(6) = 7/6)")

print("\nThe earlier working-space family decays: c0 -> 0 as the index range grows")
a = lambda i: 2.0 ** (-(i + 1))
for N in (4, 6, 8):
    rep = check_conditions(prior_work_family(a), max_index=N, s=0, t=0)
    print(f"  entries <= {N}: c0 = {rep.c0_inf:.3e}  (= 2 a_{N}^2 = {2 * a(N) ** 2:.3e})")
print("  so the lower bound in the estimate degenerates for that family.")
