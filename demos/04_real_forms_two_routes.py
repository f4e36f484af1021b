"""Real-form polytopes computed two independent ways.

For a conjugation-fixed base point, the polytope of the real orbit closure
can be computed (a) by cutting the complex orbit polytope with the negated
eigenspace of the torus involution, or (b) by evaluating the invariant
vectors at the point and hulling the achieved weights before the same cut.
The torus dual is a line, so the involution is a sign and the cut
(``InvolutionSpec.negated_cut``) keeps the whole polytope (negation) or at
most the origin (identity).  The headline fact is that the two routes always
agree, exactly.
"""

from mplab import (
    RealFormCase,
    enumerate_polytope_catalog,
    gamma_highest_weight_polytope,
    hull,
    identity_involution,
    negation_involution,
    orbit_representatives,
    real_moment_polytope,
)

neg, ident = negation_involution(), identity_involution()
print("== involutions of the rank-1 torus dual are signs ==")
seg = hull([0, 2])
for gamma in (neg, ident):
    print(f"  {gamma.label:>8s}: w -> {gamma.sign:+d} w, cut of {seg} by the "
          f"negated eigenspace: {gamma.negated_cut(seg)}")

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
for l1, l2, gamma in ((2, 1, neg), (1, 1, neg), (1, 1, ident)):
    cat = enumerate_polytope_catalog(l1, l2, gamma)
    print(f"  weights ({l1},{l2}), {gamma.label}: {[str(p) for p in cat]}")
