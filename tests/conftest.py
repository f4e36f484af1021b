import os
from contextlib import contextmanager

import pytest
from hypothesis import settings

from mplab import orbits, reps
from mplab.reps import BiHomogPoly

# Every run draws the same examples and replays no stored failures, so two
# runs, or two hosts, run the same gate.  MPLAB_HYPOTHESIS_PROFILE=explore
# brings back Hypothesis's random search and its local example database.
settings.register_profile("gate", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile(os.environ.get("MPLAB_HYPOTHESIS_PROFILE", "gate"))


def clear_route_memos():
    """Empty the memos of achieved hulls, of catalogs and of invariant vectors."""
    orbits._achieved_hull.cache_clear()
    orbits._catalog.cache_clear()
    reps._hw_vector.cache_clear()


@contextmanager
def broken_representation_route():
    """Break the representation route: the k = 0 invariant vectors vanish.

    The memos of achieved hulls and of catalogs are cleared on entry and
    exit, so no correct answer is reused inside and no broken one leaks out.
    """
    genuine = orbits.highest_weight_vector

    def broken(spec, k):
        return BiHomogPoly.zero(spec.bidegree) if k == 0 else genuine(spec, k)

    clear_route_memos()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbits, "highest_weight_vector", broken)
            yield
    finally:
        clear_route_memos()


@pytest.fixture
def disagreeing_routes():
    """The representation route broken for the whole test."""
    with broken_representation_route():
        yield


@pytest.fixture
def break_representation_route():
    """The context manager behind ``disagreeing_routes``, for a test that
    looks at the memos after the route is mended."""
    return broken_representation_route
