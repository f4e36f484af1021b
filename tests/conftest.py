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
    """The representation route broken for the whole test: the k = 0
    invariant vectors vanish."""
    genuine = orbits.highest_weight_vector

    def broken(spec, k):
        return BiHomogPoly(spec.bidegree, ()) if k == 0 else genuine(spec, k)

    monkeypatch.setattr(orbits, "highest_weight_vector", broken)
