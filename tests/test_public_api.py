"""The package's public surface: every exported name exists, and the set is pinned.

A change to ``mplab.__all__`` must edit ``EXPECTED`` here and the list of
public-API changes in README.md together.
"""

import mplab

EXPECTED = {
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
    "classify_borel_orbit_closure",
    "clebsch_gordan_highest_weights",
    "contains",
    "enumerate_polytope_catalog",
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
    "torus_weight",
    "verify_n_invariance",
    "weight_decomposition",
}


def test_every_name_in_all_resolves():
    assert [name for name in mplab.__all__ if not hasattr(mplab, name)] == []


def test_all_is_pinned():
    assert len(mplab.__all__) == len(set(mplab.__all__))
    assert set(mplab.__all__) == EXPECTED


def test_star_import():
    namespace = {}
    exec("from mplab import *", namespace)
    assert set(mplab.__all__) <= set(namespace)
