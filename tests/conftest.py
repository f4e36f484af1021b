import os
from math import lcm

import pytest
from hypothesis import settings

from mplab import orbits
from mplab.exactlin import GaussianRational
from mplab.orbits import FlagPoint
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


# -- references over Q(i), which mplab itself never computes in ---------------

def q_add(a, b):
    return GaussianRational(a.re + b.re, a.im + b.im)


def q_sub(a, b):
    return GaussianRational(a.re - b.re, a.im - b.im)


def q_mul(a, b):
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def q_div(a, b):
    n = b.re * b.re + b.im * b.im  # Fraction raises ZeroDivisionError at b = 0
    return GaussianRational((a.re * b.re + a.im * b.im) / n, (a.im * b.re - a.re * b.im) / n)


def borel_act(g, x):
    """The Borel element g = (alpha, beta), the matrix [[alpha, beta], [0, 1/alpha]],
    on both factors of the flag point x: (a, c) -> (alpha a + beta c, c / alpha)."""
    alpha, beta = g
    if alpha.is_zero:
        raise ValueError("alpha must be nonzero")

    def move(a, c):
        return q_add(q_mul(alpha, a), q_mul(beta, c)), q_div(c, alpha)

    return FlagPoint(*move(x.a1, x.c1), *move(x.a2, x.c2))


def reference_value(f, point):
    """f at ``point``, summed term by term in Q(i): no term skipped, each
    power from a table of repeated products, each coefficient a factor."""
    tables = []
    for g, degree in zip(point, (f.bidegree[0],) * 2 + (f.bidegree[1],) * 2):
        tables.append([GaussianRational(1)])
        for _ in range(degree):
            tables[-1].append(q_mul(tables[-1][-1], g))
    total = GaussianRational(0)
    for exp, coeff in f.terms:
        term = GaussianRational(coeff)
        for table, power in zip(tables, exp):
            term = q_mul(term, table[power])
        total = q_add(total, term)
    return total


def vanishes_at(f, coords):
    """Whether f is zero at the Q(i) point ``coords``: the point is cleared
    here, by the lcm of its eight denominators, and f is summed over ints
    term by term, each power a run of products, with no code of mplab's."""
    parts = [part for g in coords for part in (g.re, g.im)]
    d = lcm(*(part.denominator for part in parts))
    ints = [part.numerator * (d // part.denominator) for part in parts]
    total_re = total_im = 0
    for exp, coeff in f.terms:
        term_re, term_im = coeff, 0
        for re, im, power in zip(ints[::2], ints[1::2], exp):
            for _ in range(power):
                term_re, term_im = term_re * re - term_im * im, term_re * im + term_im * re
        total_re += term_re
        total_im += term_im
    return total_re == total_im == 0
