"""Real-form polytopes computed two independent ways.

For a conjugation-fixed base point, the polytope of the real orbit closure
can be computed (a) by cutting the complex orbit polytope with the negated
eigenspace of the torus involution, or (b) by evaluating the invariant
vectors at the point and hulling the achieved weights before the same cut.
The headline fact is that the two routes always agree, exactly.
"""

from mplab import (
    RealFormCase,
    enumerate_polytope_catalog,
    gamma_highest_weight_polytope,
    identity_involution,
    involution_eigenspaces,
    negation_involution,
    orbit_representatives,
    real_moment_polytope,
)

neg = negation_involution()
fixed, negated = involution_eigenspaces(neg)
print(f"== involution 'negation' on the rank-1 torus dual ==")
print(f"fixed eigenspace dim {len(fixed)}, negated eigenspace dim "
      f"{len(negated)} (the whole axis)")

print("\n== two routes, weights (2,1) ==")
for cls, x in orbit_representatives().items():
    case = RealFormCase(x, neg)
    membership_route = gamma_highest_weight_polytope(case, 2, 1)
    intersection_route = real_moment_polytope(case, 2, 1)  # asserts agreement itself
    print(f"  {cls.value:>14s}: membership route {str(membership_route):>8s}   "
          f"intersection route {str(intersection_route):>8s}")

print("\n== weights (3,1): exactly one factor class survives ==")
for cls, x in list(orbit_representatives().items())[2:4]:
    case = RealFormCase(x, neg)
    print(f"  {cls.value:>14s}: {real_moment_polytope(case, 3, 1)}")

print("\n== finite catalogs of real-form polytopes ==")
for l1, l2, gamma, tag in ((2, 1, neg, "negation"), (1, 1, neg, "negation"),
                           (1, 1, identity_involution(), "identity")):
    cat = enumerate_polytope_catalog(l1, l2, gamma)
    print(f"  weights ({l1},{l2}), {tag}: {[str(p) for p in cat]}")
