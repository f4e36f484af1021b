"""The immutable value classes behave as the frozen dataclasses they replaced.

Each case builds one class with positional and keyword arguments and pins
the repr the dataclass version printed.  Equal values hash equally,
assignment and deletion raise ``AttributeError``, and copying and pickling
give back an equal value.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import numpy as np
import pytest

import mplab
from mplab.checks import CheckResult
from mplab.exactlin import GaussianRational, LinearInvolution, RatMatrix, Value
from mplab.numeric import SampleSet
from mplab.orbits import FlagPoint, RealFormCase
from mplab.polytope import RationalPolytope
from mplab.reps import BiHomogPoly, SectionSpaceSpec
from mplab.weights import InvolutionSpec

G = GaussianRational


def _g(re, im=0):
    return G(F(re), F(im))


CASES = [
    (lambda: RatMatrix(((2, 4), (6, -8)), den=-6),
     "RatMatrix(ints=((-1, -2), (-3, 4)), den=3)"),
    (lambda: LinearInvolution(matrix=RatMatrix(((0, 1), (1, 0)))),
     "LinearInvolution(matrix=RatMatrix(ints=((0, 1), (1, 0)), den=1))"),
    (lambda: G(F(1, 2), im=F(-3)),
     "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    (lambda: RationalPolytope((F(-1), F(3, 2))),
     "RationalPolytope(vertices=(Fraction(-1, 1), Fraction(3, 2)))"),
    (lambda: BiHomogPoly((1, 1), terms=(((0, 1, 1, 0), -1), ((1, 0, 0, 1), 2))),
     "BiHomogPoly(bidegree=(1, 1), terms=(((0, 1, 1, 0), -1), ((1, 0, 0, 1), 2)))"),
    (lambda: SectionSpaceSpec(2, lam1=3, lam2=1),
     "SectionSpaceSpec(r=2, lam1=3, lam2=1)"),
    (lambda: InvolutionSpec(-1, label="negation"),
     "InvolutionSpec(sign=-1, label='negation')"),
    (lambda: FlagPoint(_g(1), _g(0, 2), _g(F(-3, 4)), c2=_g(1)),
     "FlagPoint(a1=GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
     "c1=GaussianRational(re=Fraction(0, 1), im=Fraction(2, 1)), "
     "a2=GaussianRational(re=Fraction(-3, 4), im=Fraction(0, 1)), "
     "c2=GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)))"),
    (lambda: RealFormCase(FlagPoint.real(1, 2, 3, -1), gamma=InvolutionSpec(1)),
     "RealFormCase(x=FlagPoint(a1=GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
     "c1=GaussianRational(re=Fraction(2, 1), im=Fraction(0, 1)), "
     "a2=GaussianRational(re=Fraction(3, 1), im=Fraction(0, 1)), "
     "c2=GaussianRational(re=Fraction(-1, 1), im=Fraction(0, 1))), "
     "gamma=InvolutionSpec(sign=1, label=''))"),
    (lambda: SampleSet(np.array([[1, 2j, 0.5, 1]]), phis=np.array([[0.25, 0.0, -1.5]])),
     "SampleSet(coords=array([[1. +0.j, 0. +2.j, 0.5+0.j, 1. +0.j]]), "
     "phis=array([[ 0.25,  0.  , -1.5 ]]))"),
    (lambda: CheckResult("polytope-table", True, detail="80 cases ok"),
     "CheckResult(name='polytope-table', passed=True, detail='80 cases ok')"),
]


# the classes that store a derived field: FlagPoint's Gaussian-integer pairs
DERIVED = {FlagPoint: ("pairs",)}


def _same(a, b) -> bool:
    """Value equality between instances of one class."""
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("build, expected_repr", CASES,
                         ids=[r.split("(", 1)[0] for _, r in CASES])
def test_value_class_parity(build, expected_repr):
    a, b = build(), build()
    # the constructor stores exactly the fields, in annotation order, and
    # then the derived fields its class declares, which no repr shows
    assert type(a)._derived == DERIVED.get(type(a), ())
    assert list(vars(a)) == [*type(a)._fields, *type(a)._derived]
    assert repr(a) == expected_repr
    assert a is not b and _same(a, b)
    assert a != object()
    if isinstance(a, (FlagPoint, RealFormCase, SampleSet)):
        # projective equality and arrays are not hash-compatible, nor is a
        # value that holds a flag point
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in [*vars(a), "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == expected_repr
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _same(clone, a) and repr(clone) == expected_repr
        assert all(getattr(clone, f) == getattr(a, f) for f in type(a)._derived)


def test_cases_cover_every_value_class():
    for info in pkgutil.iter_modules(mplab.__path__):
        if not info.name.startswith("__"):
            importlib.import_module(f"mplab.{info.name}")
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("mplab."):
                found.add(sub)
    assert found == {type(build()) for build, _ in CASES}


def test_flag_point_equality_is_projective():
    p = FlagPoint(_g(1), _g(0, 2), _g(F(-3, 4)), _g(1))
    assert p == FlagPoint(_g(2), _g(0, 4), _g(-3), _g(4))
    assert p != FlagPoint(_g(1), _g(0, 2), _g(1), _g(1))


def test_sample_set_norms_computed_once():
    s = SampleSet(np.array([[1, 2j, 0.5, 1]] * 2), np.array([[0.25, 0.0, -1.5], [3.0, 4.0, 0.0]]))
    norms = s.norms
    assert s.norms is norms
    assert np.array_equal(norms, np.linalg.norm(s.phis, axis=1))
    assert pickle.loads(pickle.dumps(s)).norms.tolist() == norms.tolist()
