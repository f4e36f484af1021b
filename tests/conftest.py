import pytest

from mplab import orbits
from mplab.reps import BiHomogPoly


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
