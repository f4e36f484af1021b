"""Exact highest-weight and moment polytopes of Borel-orbit closures in
CP1 x CP1 under the diagonal SU(2) action, with their real (involution-fixed)
counterparts, plus a floating-point laboratory for sampling moment images.

The exact side works over Q and Q(i) with no rounding: polynomial models of
section spaces, tensor-product decompositions, rational polytopes, and the
orbit-closure case analysis.  The numeric side provides the explicit moment
map, seeded orbit samplers, coadjoint-orbit checks and a derivative-identity
checker.  ``mplab.checks`` bundles the verification suites also exposed by
the ``mplab verify`` command line.
"""

from .exactlin import (
    GaussianRational,
    LinearInvolution,
    RatMatrix,
    SymplecticForm,
    fixed_subspace,
    is_lagrangian,
    kernel,
    random_antisymplectic_involution,
    standard_symplectic_form,
)
from .orbits import (
    FlagPoint,
    OrbitClass,
    RealFormCase,
    RouteDisagreementError,
    classify_borel_orbit_closure,
    enumerate_polytope_catalog,
    gamma_highest_weight_polytope,
    membership_in_C,
    moment_polytope,
    orbit_representatives,
    real_moment_polytope,
)
from .polytope import RationalPolytope, contains, equals, hull
from .reps import (
    BiHomogPoly,
    MixedWeightsError,
    SectionSpaceSpec,
    clebsch_gordan_highest_weights,
    highest_weight_vector,
    n_invariant_subspace,
    section_space_dim,
    torus_weight,
    verify_n_invariance,
    weight_decomposition,
)
from .weights import (
    InvolutionSpec,
    identity_involution,
    negation_involution,
)

__version__ = "0.1.0"

__all__ = [
    "BiHomogPoly",
    "FlagPoint",
    "GaussianRational",
    "InvolutionSpec",
    "LinearInvolution",
    "MixedWeightsError",
    "OrbitClass",
    "RatMatrix",
    "RationalPolytope",
    "RealFormCase",
    "RouteDisagreementError",
    "SectionSpaceSpec",
    "SymplecticForm",
    "classify_borel_orbit_closure",
    "clebsch_gordan_highest_weights",
    "contains",
    "enumerate_polytope_catalog",
    "equals",
    "fixed_subspace",
    "gamma_highest_weight_polytope",
    "highest_weight_vector",
    "hull",
    "identity_involution",
    "is_lagrangian",
    "kernel",
    "membership_in_C",
    "moment_polytope",
    "n_invariant_subspace",
    "negation_involution",
    "orbit_representatives",
    "random_antisymplectic_involution",
    "real_moment_polytope",
    "section_space_dim",
    "standard_symplectic_form",
    "torus_weight",
    "verify_n_invariance",
    "weight_decomposition",
]
