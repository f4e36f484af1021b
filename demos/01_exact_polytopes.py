"""Exact polytopes on the weight axis: hulls, membership, and subspace cuts.

Every polytope of the worked model lives on the rank-1 torus dual, a line,
so it is an exact closed interval over Q: empty, a point or a segment.
Equality of polytopes is literal equality of their canonical endpoints.
"""

from fractions import Fraction

from mplab import RationalPolytope, contains, equals, hull, intersect_subspace

F = Fraction

print("== convex hulls are [min, max] ==")
segment = hull([(0,), (1,), (F(1, 2),)])
print(f"hull of {{0, 1/2, 1}}: {segment}")
print(f"hull of {{5/2}}: {hull([(F(5, 2),)])}")

print("\n== exact membership ==")
seg13 = hull([(1,), (3,)])
for x in (F(2), F(0), F(3), F(7, 2)):
    print(f"  {x} in [1, 3]?  {contains(seg13, (x,))}")

print("\n== cutting with a linear subspace of the line ==")
axis, origin = [(1,)], []
through = hull([(-1,), (3,)])
print(f"[-1, 3] cut by the whole axis: {intersect_subspace(through, axis)}")
print(f"[-1, 3] cut by the origin: {intersect_subspace(through, origin)}")
print(f"[1, 3] cut by the origin: {intersect_subspace(seg13, origin)}")

print("\n== the empty polytope is a value, not an error ==")
nothing = RationalPolytope.empty()
print(f"empty cut by anything stays empty: {intersect_subspace(nothing, axis)}")
print(f"hull{{0,1}} equals hull{{0,1/2,1}}? {equals(segment, hull([(0,), (1,)]))}")
