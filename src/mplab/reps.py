"""Bi-homogeneous polynomial model of section spaces and their weight theory.

Degree-(d1, d2) polynomials in (x1, y1, x2, y2) model the sections of the
r-th bundle power over CP1 x CP1 with d1 = r*lam1, d2 = r*lam2.  The torus
acts dually, (t.F)(v) = F(t^-1 v), so the monomial x1^a y1^b x2^c y2^d
carries weight (b - a) + (d - c) in alpha-units, and the unipotent group N
(strictly upper triangular) acts by the substitution x_i -> x_i - t*y_i.

The distinguished highest-weight vectors are built once, as an alternating
binomial sum, and two independent references check it: the factored product
form, equal by the binomial theorem, and a brute-force linear solve for the
full N-invariant subspace at a given weight: the kernel of D = y1 d/dx1 +
y2 d/dx2, as the t^e coefficient of the substituted F is (-1)^e D^e F / e!.

Vectors store their terms unchecked, as they come out sorted and nonzero; one
set of :func:`power_tables` per point serves every :meth:`BiHomogPoly.table_sum` there.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Sequence

from .exactlin import RatMatrix, Value, _integral, kernel

Exponent = tuple[int, int, int, int]

# Largest section-space dimension (r*lam1 + 1)(r*lam2 + 1) the command line
# accepts for ``oracle``, ``hwv`` and ``decompose``.  The brute-force oracle
# grows faster than this dimension: at weight 0 and r = 3, 2401 took 0.02 s
# and 8281 took 0.12 s in process on a shared 2-CPU x86 host.
MAX_SECTION_SPACE_DIM = 2500

# Largest (lam1 + lam2) * (bit lengths of a point's eight numerators and
# denominators) ``realpolytope`` accepts: the route evaluates at D p to degree
# lam1 + lam2.  At (49, 49), first-factor points with three distinct
# denominators took 0.7-1.0 s cold at 147 294, and 175 s at 4.1e6.
MAX_ROUTE_POINT_SIZE = 150_000


class MixedWeightsError(ValueError):
    """Raised when a polynomial is not a torus weight vector."""


class BiHomogPoly(Value):
    """Integer-coefficient polynomial, bi-homogeneous of degree (d1, d2).

    Terms are stored as a sorted tuple of (exponent, coefficient) with no
    zero coefficients, so equality and hashing are structural.
    """

    bidegree: tuple[int, int]
    terms: tuple[tuple[Exponent, int], ...]

    def __init__(self, bidegree: tuple[int, int], terms: tuple[tuple[Exponent, int], ...]):
        d1, d2 = bidegree
        for (a, b, c, d), coeff in terms:
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            if a + b != d1 or c + d != d2 or min(a, b, c, d) < 0:
                raise ValueError(f"exponent {(a, b, c, d)} violates bidegree {bidegree}")
        if list(terms) != sorted(terms):
            raise ValueError("terms must be sorted by exponent")
        self.__dict__.update(bidegree=bidegree, terms=terms)

    @classmethod
    def from_terms(cls, bidegree: tuple[int, int], terms: Mapping[Exponent, int]) -> "BiHomogPoly":
        return cls(bidegree, tuple(sorted((e, c) for e, c in terms.items() if c != 0)))

    @classmethod
    def monomial(cls, exp: Exponent, coeff: int = 1) -> "BiHomogPoly":
        a, b, c, d = exp
        return cls.from_terms((a + b, c + d), {exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self) -> "BiHomogPoly":
        return BiHomogPoly(self.bidegree, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "BiHomogPoly") -> "BiHomogPoly":
        d1 = self.bidegree[0] + other.bidegree[0]
        d2 = self.bidegree[1] + other.bidegree[1]
        acc: dict[Exponent, int] = {}
        for (a1, b1, c1, e1), k1 in self.terms:
            for (a2, b2, c2, e2), k2 in other.terms:
                key = (a1 + a2, b1 + b2, c1 + c2, e1 + e2)
                acc[key] = acc.get(key, 0) + k1 * k2
        return BiHomogPoly.from_terms((d1, d2), acc)

    def __pow__(self, k: int) -> "BiHomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = BiHomogPoly.monomial((0, 0, 0, 0), 1)
        square = self
        while k:  # binary powering: square once per bit of k
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def integer_sum(self, parts: Sequence[int]) -> tuple[int, int]:
        """F at a point of Gaussian integers, as its (re, im) ints: the
        :func:`power_tables` of its eight integer parts ``parts``, (x1.re,
        x1.im, y1.re, ..., y2.im), to this bidegree, then :meth:`table_sum`."""
        return self.table_sum(power_tables(parts, *self.bidegree))

    def table_sum(self, tables: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, int]:
        """F term by term over a point's :func:`power_tables`, which reach
        at least this bidegree, as its (re, im) ints."""
        x1, y1, x2, y2 = tables
        total_re = total_im = 0
        for (a, b, c, d), coeff in self.terms:
            (ar, ai), (br, bi), (cr, ci), (dr, di) = x1[a], y1[b], x2[c], y2[d]
            ur, ui = ar * br - ai * bi, ar * bi + ai * br
            vr, vi = cr * dr - ci * di, cr * di + ci * dr
            total_re += coeff * (ur * vr - ui * vi)
            total_im += coeff * (ur * vi + ui * vr)
        return total_re, total_im

    def evaluate_complex(self, point: Sequence[complex]) -> complex:
        x1, y1, x2, y2 = point
        return sum(coeff * x1 ** a * y1 ** b * x2 ** c * y2 ** d
                   for (a, b, c, d), coeff in self.terms)

    def pretty(self) -> str:
        """Deterministic rendering, monomials in descending lexicographic order."""
        if self.is_zero:
            return "0"
        names = ("x1", "y1", "x2", "y2")
        parts: list[str] = []
        for exp, coeff in sorted(self.terms, reverse=True):
            factors = []
            for name, power in zip(names, exp):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            mono = "*".join(factors) if factors else "1"
            mag = abs(coeff)
            body = mono if mag == 1 and factors else (f"{mag}*{mono}" if factors else str(mag))
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def power_tables(parts: Sequence[int], d1: int, d2: int) -> list[list[tuple[int, int]]]:
    """Powers 0..d1 of x1 and y1 and 0..d2 of x2 and y2, as (re, im) ints, at
    the Gaussian-integer point whose eight integer parts are ``parts``."""
    if len(parts) != 8:
        raise ValueError(f"a point has 8 integer parts, not {len(parts)}")
    tables = []
    for re, im, degree in zip(parts[::2], parts[1::2], (d1, d1, d2, d2)):
        powers = [(1, 0)]
        for _ in range(degree):
            pr, pi = powers[-1]
            powers.append((pr * re - pi * im, pr * im + pi * re))
        tables.append(powers)
    return tables


def check_weights(lam1: int, lam2: int) -> None:
    """Refuse weights that are not two ints >= 1; every exact entry point calls this."""
    if type(lam1) is not int or type(lam2) is not int:
        raise TypeError(f"weights {lam1!r}, {lam2!r} must both be ints")
    if lam1 < 1 or lam2 < 1:
        raise ValueError("both weights must be integers >= 1")


class SectionSpaceSpec(Value):
    """Bundle power r and the two positive integer weights of the model."""

    r: int
    lam1: int
    lam2: int

    def __init__(self, r: int, lam1: int, lam2: int):
        if type(r) is not int:
            raise TypeError(f"r={r!r} must be an int")
        if r < 1:
            raise ValueError(f"r={r} must be >= 1")
        check_weights(lam1, lam2)
        self.__dict__.update(r=r, lam1=lam1, lam2=lam2)

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.r * self.lam1, self.r * self.lam2)

    @property
    def k_max(self) -> int:
        return min(self.r * self.lam1, self.r * self.lam2)


def section_space_dim(spec: SectionSpaceSpec) -> int:
    """(r*lam1 + 1)(r*lam2 + 1), the number of bi-homogeneous monomials."""
    d1, d2 = spec.bidegree
    return (d1 + 1) * (d2 + 1)


def clebsch_gordan_highest_weights(spec: SectionSpaceSpec) -> list[int]:
    """Highest weights r(lam1+lam2) - 2k, k = 0..min(r*lam1, r*lam2), descending."""
    top = spec.r * (spec.lam1 + spec.lam2)
    return [top - 2 * k for k in range(spec.k_max + 1)]


def highest_weight_vector(spec: SectionSpaceSpec, k: int) -> BiHomogPoly:
    """The distinguished invariant vector of weight top - 2k: the alternating
    sum over j of (-1)^(k-j) C(k, j) x1^j y1^(d1-j) x2^(k-j) y2^(d2-k+j)."""
    _check_k(spec, k)
    d1, d2 = spec.bidegree
    # ascending j gives ascending exponents: the terms are sorted, and stored unchecked
    f = object.__new__(BiHomogPoly)
    f.__dict__.update(bidegree=(d1, d2), terms=tuple([((j, d1 - j, k - j, d2 - k + j),
                                                       (-1) ** (k - j) * comb(k, j))
                                                      for j in range(k + 1)]))
    return f


_DET = BiHomogPoly.from_terms((1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})


def hw_vector_product_form(spec: SectionSpaceSpec, k: int) -> BiHomogPoly:
    """Factored form y1^(d1-k) y2^(d2-k) (x1 y2 - x2 y1)^k, expanded generically:
    the reference :func:`highest_weight_vector` is checked against."""
    _check_k(spec, k)
    d1, d2 = spec.bidegree
    return BiHomogPoly.monomial((0, d1 - k, 0, d2 - k)) * _DET ** k


def _check_k(spec: SectionSpaceSpec, k: int):
    if type(k) is not int:
        raise TypeError(f"k={k!r} must be an int")
    if not 0 <= k <= spec.k_max:
        raise ValueError(f"k={k} outside 0..{spec.k_max}")


def _raise(terms) -> dict[Exponent, int]:
    """D = y1 d/dx1 + y2 d/dx2 of the (exponent, coefficient) terms, zeros kept."""
    out: dict[Exponent, int] = {}
    for (a, b, c, d), coeff in terms:
        for key, power in (((a - 1, b + 1, c, d), a), ((a, b, c - 1, d + 1), c)):
            if power:
                out[key] = out.get(key, 0) + power * coeff
    return out


def verify_n_invariance(f: BiHomogPoly) -> bool:
    """Symbolic check that the unipotent substitution leaves ``f`` unchanged.

    Requires D = y1 d/dx1 + y2 d/dx2 to kill f exactly: the t^e coefficient
    of f(x1 - t*y1, y1, x2 - t*y2, y2) is (-1)^e D^e f / e!.
    """
    return not any(_raise(f.terms).values())


def torus_weight(f: BiHomogPoly) -> int:
    """Common weight (b - a) + (d - c) of all terms; MixedWeightsError otherwise."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no weight")
    weights = {(b - a) + (d - c) for (a, b, c, d), _ in f.terms}
    if len(weights) != 1:
        raise MixedWeightsError(f"terms carry distinct weights {sorted(weights)}")
    return weights.pop()


def _monomials(bidegree: tuple[int, int]) -> list[Exponent]:
    d1, d2 = bidegree
    return [(a, d1 - a, c, d2 - c) for a in range(d1 + 1) for c in range(d2 + 1)]


def weight_decomposition(spec: SectionSpaceSpec) -> dict[int, int]:
    """Multiplicity of each torus weight over the monomial basis."""
    out: dict[int, int] = {}
    for (a, b, c, d) in _monomials(spec.bidegree):
        w = (b - a) + (d - c)
        out[w] = out.get(w, 0) + 1
    return dict(sorted(out.items(), reverse=True))


def n_invariant_subspace(spec: SectionSpaceSpec, weight: int) -> list[BiHomogPoly]:
    """Brute-force basis of the invariant subspace at a given torus weight.

    Solves D f = 0 exactly over the monomial basis, D = y1 d/dx1 + y2 d/dx2,
    one row per monomial of weight ``weight + 2``: as the t^e shear
    coefficient is (-1)^e D^e f / e!, every power of t then vanishes.
    Independent of the closed-form construction, so it serves as its oracle.
    Each basis vector has coprime integer coefficients, and the coefficient
    of its largest exponent is positive.
    """
    monos = [m for m in _monomials(spec.bidegree)
             if (m[1] - m[0]) + (m[3] - m[2]) == weight]
    rows: dict[Exponent, list[int]] = {}
    for col, mono in enumerate(monos):
        for key, val in _raise(((mono, 1),)).items():
            rows.setdefault(key, [0] * len(monos))[col] = val
    if not rows:
        return [BiHomogPoly.monomial(m) for m in monos]
    out = []
    for vec in kernel(RatMatrix(tuple(map(tuple, rows.values())))):
        poly = BiHomogPoly.from_terms(spec.bidegree, dict(zip(monos, _integral(vec)[0])))
        out.append(-poly if max(poly.terms)[1] < 0 else poly)  # positive lead
    return out
