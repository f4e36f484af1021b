"""Exact polytopes on the weight axis: hulls, membership, and involution cuts.

Every polytope of the worked model lives on the rank-1 torus dual, a line,
so it is an exact closed interval over Q: empty, a point or a segment.
Equality of polytopes is literal equality of their canonical endpoints.
"""

from fractions import Fraction

from mplab import (
    RationalPolytope,
    contains,
    hull,
    identity_involution,
    negation_involution,
)

F = Fraction

print("== convex hulls are [min, max] ==")
segment = hull([0, 1, F(1, 2)])
print(f"hull of {{0, 1/2, 1}}: {segment}")
print(f"hull of {{5/2}}: {hull([F(5, 2)])}")

print("\n== exact membership ==")
seg13 = hull([1, 3])
for x in (F(2), F(0), F(3), F(7, 2)):
    print(f"  {x} in [1, 3]?  {contains(seg13, x)}")

print("\n== cutting by the -1 eigenspace of an involution of the line ==")
# an involution of the weight axis is a sign: w -> -w negates the whole
# axis, w -> w negates only the origin
neg, ident = negation_involution(), identity_involution()
through = hull([-1, 3])
print(f"signs: negation {neg.sign:+d}, identity {ident.sign:+d}")
print(f"[-1, 3] cut by negation (the whole axis): {neg.negated_cut(through)}")
print(f"[-1, 3] cut by the identity (the origin): {ident.negated_cut(through)}")
print(f"[1, 3] cut by the identity (the origin): {ident.negated_cut(seg13)}")

print("\n== the empty polytope is a value, not an error ==")
nothing = RationalPolytope.empty()
print(f"empty cut by either involution stays empty: {neg.negated_cut(nothing)}, "
      f"{ident.negated_cut(nothing)}")
print(f"hull{{0,1}} equals hull{{0,1/2,1}}? {segment == hull([0, 1])}")
