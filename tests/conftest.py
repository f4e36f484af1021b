import os

import pytest
from hypothesis import settings

from mplab import orbits
from mplab.reps import BiHomogPoly

# Every run draws the same examples and replays no stored failures, so two
# runs, or two hosts, run the same gate.  MPLAB_HYPOTHESIS_PROFILE=explore
# brings back Hypothesis's random search and its local example database.
settings.register_profile("gate", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile(os.environ.get("MPLAB_HYPOTHESIS_PROFILE", "gate"))


@pytest.fixture
def disagreeing_routes(monkeypatch):
    """Break the representation route: the k = 0 invariant vectors vanish.

    The memo of achieved hulls is cleared on entry and exit, so no correct
    hull is reused inside the test and no broken one leaks out of it.
    """
    genuine = orbits.highest_weight_vector

    def broken(spec, k):
        return BiHomogPoly.zero(spec.bidegree) if k == 0 else genuine(spec, k)

    orbits._achieved_hull.cache_clear()
    monkeypatch.setattr(orbits, "highest_weight_vector", broken)
    yield
    monkeypatch.undo()
    orbits._achieved_hull.cache_clear()
