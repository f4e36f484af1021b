"""Exact rational linear algebra: kernels, involution fixed spaces, symplectic
predicates, and the Q(i) coordinate value.

Everything here works over Q (``fractions.Fraction``) with no rounding
anywhere; :class:`GaussianRational` holds a point's Q(i) coordinates with
no arithmetic on them.  A matrix is integer rows over one common
denominator, so products, sums and elimination run over ``int``, and a
``Fraction`` is built only where a value enters or leaves a matrix.
Canonical forms follow reduced-echelon conventions so that outputs are
directly comparable in tests:

* null-space / fixed-space bases are normalized to leading coefficient 1 and
  ordered by pivot position,
* matrices are immutable and kept in lowest terms, so equality is entry-wise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
_SHEAR_VALUES = [k for k in range(-9, 10) if k != 0]  # the parameters of _random_symplectic


class Value:
    """Base of mplab's immutable value classes.

    A subclass declares its fields as class annotations, in constructor
    order, and its ``__init__`` stores them after its checks with one
    ``self.__dict__.update(...)``, as ``copy`` and ``pickle`` restore them.
    A subclass may name in ``_derived`` attributes that its ``__init__``
    computes from the fields and stores after them in the same update; they
    are not in the repr, equality or hash.  The base gives the repr
    ``Name(field=value, ...)``, equality and hashing over the field tuple
    between instances of one class, and refuses assignment and deletion
    with ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def frac(x) -> Fraction:
    """Coerce ints / strings to Fraction and return a Fraction as is (floats are rejected)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass exact input")
    return Fraction(x)


def _integral(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``ns`` and the least positive ``d`` with ``xs == [n / d for n in ns]``."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


class RatMatrix(Value):
    """Immutable rectangular matrix over Q: the integer rows ``ints`` over one
    denominator ``den``, reduced at construction to lowest terms with ``den > 0``."""

    ints: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, ints: tuple[tuple[int, ...], ...], den: int = 1):
        if len(set(map(len, ints))) > 1:
            raise ValueError("ragged rows")
        if not den:
            raise ZeroDivisionError("matrix denominator is zero")
        g = gcd(den, *chain.from_iterable(ints)) * (1 if den > 0 else -1)
        if g != 1:
            ints = tuple(tuple(a // g for a in row) for row in ints)
            den //= g
        self.__dict__.update(ints=ints, den=den)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        rows = [_integral([frac(x) for x in row]) for row in rows]
        d = lcm(*(rd for _, rd in rows))
        return cls(tuple(tuple(a * (d // rd) for a in row) for row, rd in rows), d)

    @staticmethod
    @lru_cache(maxsize=16, typed=True)
    def identity(n: int) -> "RatMatrix":
        """The n x n identity, built once per size and shared, as matrices are immutable."""
        return RatMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.ints)

    @property
    def cols(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.ints)), self.den)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        d = lcm(self.den, other.den)
        p, q = d // self.den, d // other.den
        return RatMatrix(tuple(tuple(p * a + q * b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.ints, other.ints)), d)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(-a for a in row) for row in self.ints), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = tuple(zip(*other.ints))
        return RatMatrix(tuple([tuple([sum(map(mul, row, col)) for col in cols])
                                for row in self.ints]), self.den * other.den)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices.

    Fraction-free Gauss-Jordan (Bareiss 1968) on the integer rows of ``m``:
    each elimination step ``row = (p * row - f * pivot_row) // prev`` divides
    exactly by the previous pivot, so every entry stays an integer minor.
    All pivot entries end equal to the last pivot, which becomes the
    denominator; the reduced form is unique, hence equal to the rational one,
    and in lowest terms every pivot entry equals ``den``.
    """
    rows = [list(r) for r in m.ints]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and (f != 0 or p != prev):
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # rows past the rank are zero; pivot rows hold prev at each pivot
    return RatMatrix(tuple(map(tuple, rows)), prev), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel(m: RatMatrix) -> list[Vector]:
    """Canonical basis of the null space of ``m``.

    One basis vector per free column, ordered by free-column index and scaled
    so the leading nonzero entry is 1.  A zero matrix yields the standard basis.
    """
    reduced, pivots = rref(m)
    n = m.cols
    free = [j for j in range(n) if j not in pivots]
    basis: list[Vector] = []
    for j in free:
        # den times the vector with 1 at j, as every pivot entry equals den
        v = [0] * n
        v[j] = reduced.den
        for i, p in enumerate(pivots):
            v[p] = -reduced.ints[i][j]
        lead = next(a for a in v if a != 0)
        basis.append(tuple(Fraction(a, lead) for a in v))
    return basis


def column_space_basis(m: RatMatrix) -> list[Vector]:
    """Canonical (reduced echelon) basis of the column space."""
    reduced, pivots = rref(m.transpose())
    return [tuple(Fraction(a, reduced.den) for a in row) for row in reduced.ints[:len(pivots)]]


class LinearInvolution(Value):
    """Square rational matrix S with S^2 = I (validated at construction)."""

    matrix: RatMatrix

    def __init__(self, matrix: RatMatrix):
        if not matrix.is_square:
            raise ValueError("involution matrix must be square")
        if matrix @ matrix != RatMatrix.identity(matrix.rows):
            raise ValueError("not an involution: S^2 != I")
        self.__dict__.update(matrix=matrix)

    @property
    def dim(self) -> int:
        return self.matrix.rows


def fixed_subspace(s: LinearInvolution) -> list[Vector]:
    """Canonical rational basis of ker(S - I), the +1 eigenspace.

    Computed as the column space of I + S, which is twice the projector onto
    the +1 eigenspace; the -1 eigenspace of S is ``fixed_subspace`` of -S.
    """
    return column_space_basis(RatMatrix.identity(s.dim) + s.matrix)


def _darboux(dim: int) -> RatMatrix:
    """The standard Darboux form [[0, I], [-I, 0]] on Q^dim, the one form mplab uses."""
    if dim % 2 != 0:
        raise ValueError("dimension must be even")
    n = dim // 2
    return RatMatrix(tuple(tuple((j == i + n) - (j + n == i) for j in range(dim))
                           for i in range(dim)))


def is_lagrangian(subspace_basis: Sequence[Sequence[Fraction]], dim: int) -> bool:
    """True iff span(basis) is isotropic of dimension exactly dim/2 for the Darboux form."""
    omega = _darboux(dim)
    for v in subspace_basis:
        if len(v) != dim:
            raise ValueError("basis vector dimension does not match the form")
    # isotropic iff the Gram matrix B Omega B^T of the basis rows B is zero
    basis = RatMatrix.from_rows(subspace_basis)
    if rank(basis) != dim // 2:
        return False
    return not any(chain.from_iterable((basis @ omega @ basis.transpose()).ints))


def _random_symplectic(dim: int, rng: random.Random) -> list[list[int]]:
    """Product of at most six elementary symplectic shears with small integer parameters.

    Each factor is I plus entries q at (src, dst) where no src is a dst, so
    multiplying by it on the right adds q times column src to column dst.
    """
    n = dim // 2
    t = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for _ in range(6):
        p = rng.choice(_SHEAR_VALUES)
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind < 2:
            # symmetric P: shear [[I, P], [0, I]] or [[I, 0], [P, I]]
            top, left = (0, n) if kind == 0 else (n, 0)
            shears = [(src, dst, p) for src, dst in {(top + i, left + j), (top + j, left + i)}]
        elif i != j:
            # GL factor diag(A, A^-T) with A = I + p*e_ij, so A^-T = I - p*e_ji
            shears = [(i, j, p), (n + j, n + i, -p)]
        else:
            continue
        for row in t:
            for src, dst, q in shears:
                row[dst] += q * row[src]
    return t


def antisymplectic_involution_from_symplectic(t: RatMatrix) -> LinearInvolution:
    """Conjugate diag(I, -I) by a symplectic matrix: T^-1 diag(I,-I) T.

    T^-1 = -Omega T^T Omega for the standard Darboux form Omega, a signed block
    rearrangement of T^T that needs no elimination.  The result squares to
    the identity and reverses the standard Darboux form.  A matrix that is not
    symplectic raises ``ValueError``.
    """
    dim = t.rows
    if not t.is_square or dim % 2 != 0:
        raise ValueError("symplectic matrix needs even square dimension")
    n = dim // 2
    rows = t.ints
    # with T^T = [[A, B], [C, D]] in n x n blocks, T^-1 = [[D, -C], [-B, A]]
    t_inv = RatMatrix(tuple(
        tuple(rows[(j + n) % dim][(i + n) % dim] * (1 if (i < n) == (j < n) else -1)
              for j in range(dim))
        for i in range(dim)), t.den)
    if t_inv @ t != RatMatrix.identity(dim):
        raise ValueError("matrix is not symplectic for the standard Darboux form")
    d_t = RatMatrix(rows[:n] + tuple(tuple(-a for a in row) for row in rows[n:]), t.den)
    return LinearInvolution(t_inv @ d_t)


def random_antisymplectic_involution(dim: int, seed: int) -> LinearInvolution:
    """Seeded random involution S with S^2 = I and S^T Omega S = -Omega.

    Deterministic for a given (dim, seed); all randomness is derived from the
    seed argument.
    """
    if dim % 2 != 0 or dim < 2:
        raise ValueError("dimension must be even and >= 2")
    rng = random.Random(seed)
    t = RatMatrix(tuple(map(tuple, _random_symplectic(dim, rng))))
    return antisymplectic_involution_from_symplectic(t)


def is_antisymplectic(s: LinearInvolution) -> bool:
    """True iff S^T Omega S = -Omega, which for S^2 = I says that Omega S is symmetric."""
    m = _darboux(s.dim) @ s.matrix
    return m == m.transpose()


class GaussianRational(Value):
    """An exact coordinate in Q(i), held as its two rational parts, with no field arithmetic."""

    re: Fraction
    im: Fraction

    def __init__(self, re, im=0):
        self.__dict__.update(re=frac(re), im=frac(im))

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(re, im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"
