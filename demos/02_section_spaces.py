"""Section spaces as bi-homogeneous polynomials and their weight theory.

The sections of the r-th bundle power over CP1 x CP1 with weights
(lam1, lam2) are the polynomials in (x1, y1, x2, y2) of bidegree
(r*lam1, r*lam2).  The tensor product decomposes with highest weights
r*(lam1+lam2) - 2k, and each highest-weight line has an explicit generator
with two closed forms that must agree by the binomial theorem.
"""

from mplab import (
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    n_invariant_subspace,
    section_space_dim,
    torus_weight,
    verify_n_invariance,
    weight_decomposition,
)
from mplab.reps import hw_vector_product_form

spec = SectionSpaceSpec(r=1, lam1=2, lam2=1)
print(f"== section space r=1, weights (2,1): dimension {section_space_dim(spec)} ==")
print(f"decomposition highest weights: {clebsch_gordan_highest_weights(spec)}")
print(f"weight multiplicities: {weight_decomposition(spec)}")

print("\n== the distinguished invariant vectors ==")
for k in range(spec.k_max + 1):
    f = highest_weight_vector(spec, k)
    print(f"  k={k}: {f.pretty()}")
    print(f"        weight {torus_weight(f)}, unipotent-invariant: {verify_n_invariance(f)}")

print("\n== two closed forms, one polynomial ==")
big = SectionSpaceSpec(r=2, lam1=2, lam2=2)
for k in (0, 2, 4):
    same = highest_weight_vector(big, k) == hw_vector_product_form(big, k)
    print(f"  r=2, (2,2), k={k}: alternating sum == factored product?  {same}")

print("\n== the brute-force oracle agrees ==")
for w in clebsch_gordan_highest_weights(spec):
    basis = n_invariant_subspace(spec, w)
    print(f"  invariant subspace at weight {w}: dimension {len(basis)}, "
          f"spanned by {basis[0].pretty()}")
print(f"  at a non-decomposition weight (-1): "
      f"dimension {len(n_invariant_subspace(spec, -1))}")
