import hashlib
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab import exactlin, wire
from mplab.exactlin import (
    GaussianRational,
    LinearInvolution,
    RatMatrix,
    antisymplectic_involution_from_symplectic,
    column_space_basis,
    fixed_subspace,
    is_antisymplectic,
    is_lagrangian,
    kernel,
    random_antisymplectic_involution,
    rank,
    rref,
)

F = Fraction


# Reference implementations: the plain Fraction algorithms the fraction-free
# core replaced.  RREF is unique, so both must give identical Fractions.

def entries(m):
    """``m`` as rows of Fractions, the form the references work in."""
    return tuple(tuple(F(a, m.den) for a in row) for row in m.ints)


def reference_matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b))
                 for row in a)


def reference_rref(matrix):
    rows = [list(r) for r in matrix]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(F(a) for a in row) for row in rows), tuple(pivots)


def reference_invert(matrix):
    n = len(matrix)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = reference_rref(aug)
    assert pivots == tuple(range(n))
    return tuple(row[n:] for row in reduced)


def darboux(dim):
    """The standard Darboux form [[0, I], [-I, 0]] on Q^dim, entry by entry."""
    n = dim // 2
    return RatMatrix.from_rows([[int(c == r + n) - int(r == c + n) for c in range(dim)]
                                for r in range(dim)])


def reference_random_antisymplectic(dim, seed):
    """The construction before the fraction-free core: shears over Fraction,
    A^-T by elimination, and T^-1 diag(I, -I) T with T^-1 by elimination."""
    rng = random.Random(seed)
    n = dim // 2
    ident = [[F(int(r == c)) for c in range(dim)] for r in range(dim)]
    t = tuple(map(tuple, ident))
    for _ in range(6):
        p = rng.choice([k for k in range(-9, 10) if k != 0])
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        factor = [list(row) for row in ident]
        if kind < 2:
            block = [[F(0)] * n for _ in range(n)]
            block[i][j] += p
            block[j][i] += p if i != j else 0
            for r in range(n):
                for c in range(n):
                    if kind == 0:
                        factor[r][n + c] += block[r][c]
                    else:
                        factor[n + r][c] += block[r][c]
        else:
            if i == j:
                continue
            a = [[F(int(r == c)) for c in range(n)] for r in range(n)]
            a[i][j] = F(p)
            a_inv_t = list(zip(*reference_invert(a)))
            for r in range(n):
                for c in range(n):
                    factor[r][c] = a[r][c]
                    factor[n + r][n + c] = a_inv_t[r][c]
        t = reference_matmul(t, factor)
    d = [[F(int(r == c)) * (1 if r < n else -1) for c in range(dim)] for r in range(dim)]
    return reference_matmul(reference_matmul(reference_invert(t), d), t)


# The fractions of ``st.fractions(-20, 20, max_denominator=12)``: a denominator
# d <= 12, then a numerator in [-20d, 20d].  ``st.fractions`` builds a new
# numerator strategy on every draw, and that, not the algebra under test, was
# most of the time of the properties below.
DENOMINATORS = st.integers(1, 12)
NUMERATORS = {d: st.integers(-20 * d, 20 * d) for d in range(1, 13)}


@st.composite
def bounded_fractions(draw):
    d = draw(DENOMINATORS)
    return F(draw(NUMERATORS[d]), d)


rationals = st.one_of(st.just(F(0)), st.integers(-9, 9).map(F), bounded_fractions())


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=6):
    """Rational matrices, often rank-deficient: with zero rows, zero columns
    or a row that is a combination of two others."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    shape = draw(st.sampled_from(["plain", "zero row", "zero column", "combination"]))
    if shape == "zero row":
        rows.insert(draw(st.integers(0, nrows)), [F(0)] * ncols)
    elif shape == "zero column":
        col = draw(st.integers(0, ncols))
        rows = [row[:col] + [F(0)] + row[col:] for row in rows]
    elif shape == "combination":
        a, b = draw(rationals), draw(rationals)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return RatMatrix.from_rows(rows)


class TestFractionFreeCore:
    @given(rational_matrices())
    @settings(deadline=None, max_examples=200)
    def test_rref_equals_reference(self, m):
        reduced, pivots = rref(m)
        assert (entries(reduced), pivots) == reference_rref(entries(m))
        assert all(type(a) is int for row in reduced.ints for a in row)

    @given(rational_matrices(), st.data())
    @settings(deadline=None, max_examples=100)
    def test_matmul_equals_reference(self, m, data):
        k = data.draw(st.integers(1, 5))
        other = RatMatrix.from_rows(data.draw(st.lists(
            st.lists(rationals, min_size=k, max_size=k), min_size=m.cols, max_size=m.cols)))
        assert entries(m @ other) == reference_matmul(entries(m), entries(other))

    @given(st.sampled_from([2, 4, 6, 8]), st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), rationals),
        max_size=6))
    @settings(deadline=None, max_examples=100)
    def test_symplectic_inverse_without_elimination(self, dim, shears):
        n = dim // 2
        t = RatMatrix.identity(dim)
        for kind, i, j, p in shears:
            i, j = i % n, j % n
            rows = [list(row) for row in entries(RatMatrix.identity(dim))]
            if kind < 2:
                top, left = (0, n) if kind == 0 else (n, 0)
                rows[top + i][left + j] += p
                if i != j:
                    rows[top + j][left + i] += p
            elif i != j:
                rows[i][j] = p
                rows[n + j][n + i] = -p
            t = t @ RatMatrix.from_rows(rows)
        omega = darboux(dim)
        assert t @ -(omega @ t.transpose() @ omega) == RatMatrix.identity(dim)
        s = antisymplectic_involution_from_symplectic(t)
        d = RatMatrix.from_rows([[int(r == c) * (1 if r < n else -1) for c in range(dim)]
                                 for r in range(dim)])
        assert entries(s.matrix) == reference_matmul(
            reference_matmul(reference_invert(entries(t)), entries(d)), entries(t))
        assert is_antisymplectic(s)

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            antisymplectic_involution_from_symplectic(RatMatrix.from_rows([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            antisymplectic_involution_from_symplectic(RatMatrix.identity(3))

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_random_involutions_equal_reference(self, dim):
        for seed in range(20):
            got = entries(random_antisymplectic_involution(dim, seed).matrix)
            assert got == reference_random_antisymplectic(dim, seed)


class CountingFraction(Fraction):
    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def in_lowest_terms(m):
    return m.den > 0 and gcd(m.den, *chain.from_iterable(m.ints)) == 1


# SHA-256 over repr(entries) of random_antisymplectic_involution(dim, seed) for
# dims 2-10 and seeds 0-149, computed with the Fraction-entry RatMatrix that
# the integer-backed one replaced.
INVOLUTION_DIGEST = "f1bc90748e584be9eb1d562405a173e735a4b93b32ef522e723cb0b04a88115d"


class TestIntegerBacking:
    def test_random_involutions_pinned(self):
        h = hashlib.sha256()
        for dim in (2, 4, 6, 8, 10):
            for seed in range(150):
                s = random_antisymplectic_involution(dim, seed)
                h.update(repr(entries(s.matrix)).encode())
        assert h.hexdigest() == INVOLUTION_DIGEST

    def test_integer_operations_build_no_fraction(self, monkeypatch):
        a = RatMatrix.from_rows([[1, 2, 0], [3, -4, 5], [0, 6, 7]])
        b = RatMatrix.from_rows([[F(1, 2), 0, 1], [2, F(-1, 3), 0], [1, 1, 1]])
        monkeypatch.setattr(exactlin, "Fraction", CountingFraction)
        CountingFraction.made = 0
        a @ b, a + b, a + -b, -a, a.transpose(), rref(a), rref(b), rref(a @ b + -b)
        s = random_antisymplectic_involution(6, 3)
        assert is_antisymplectic(s)
        assert CountingFraction.made == 0
        column_space_basis(b)  # the counter does see the Fractions built where values leave
        assert CountingFraction.made == 9

    @given(rational_matrices(), st.data())
    @settings(deadline=None, max_examples=100)
    def test_every_result_in_lowest_terms(self, m, data):
        same = data.draw(st.lists(st.lists(rationals, min_size=m.cols, max_size=m.cols),
                                  min_size=m.rows, max_size=m.rows))
        other = RatMatrix.from_rows(same)
        right = RatMatrix.from_rows([row[:1] for row in entries(m.transpose())])
        results = [m, other, m @ m.transpose(), m @ right, m + other, m + -other, -m,
                   m.transpose(), rref(m)[0], RatMatrix.identity(m.rows)]
        assert all(in_lowest_terms(r) for r in results)
        c = data.draw(st.integers(1, 30) | st.integers(-30, -1))
        scaled = RatMatrix(tuple(tuple(c * a for a in row) for row in m.ints), c * m.den)
        assert scaled == m and hash(scaled) == hash(m)
        assert RatMatrix.from_rows(entries(m)) == m

    def test_constructor_checks(self):
        assert RatMatrix(((2, 4), (6, 0)), -4) == RatMatrix.from_rows([[F(-1, 2), -1], [F(-3, 2), 0]])
        with pytest.raises(ValueError, match="ragged"):
            RatMatrix(((1, 2), (3,)))
        with pytest.raises(ZeroDivisionError):
            RatMatrix(((1,),), 0)
        with pytest.raises(TypeError):
            RatMatrix(((F(1, 2),),))

    def test_shape_of_a_matrix_with_no_rows(self):
        empty = RatMatrix(())
        assert (empty.rows, empty.cols) == (0, 0)
        assert empty.is_square

    def test_identity_is_shared_and_frac_returns_its_fraction(self):
        assert RatMatrix.identity(3) is RatMatrix.identity(3)
        assert RatMatrix.identity(3) == RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(TypeError):  # a float size is not served from the int key
            RatMatrix.identity(3.0)
        x = F(2, 3)
        assert exactlin.frac(x) is x and exactlin.frac(2) == F(2)
        with pytest.raises(TypeError):
            exactlin.frac(0.5)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel(RatMatrix.identity(2)) == []

    def test_zero_matrix_gives_standard_basis(self):
        assert kernel(RatMatrix.from_rows([[0, 0], [0, 0]])) == [(F(1), F(0)), (F(0), F(1))]

    def test_one_relation(self):
        assert kernel(RatMatrix.from_rows([[1, 1]])) == [(F(1), F(-1))]

    def test_kernel_vectors_are_annihilated_and_independent(self):
        m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        basis = kernel(m)
        assert len(basis) == 1
        for v in basis:
            assert m @ RatMatrix.from_rows([v]).transpose() == RatMatrix.from_rows([[0]] * 3)
        assert rank(RatMatrix.from_rows(basis)) == len(basis)

    def test_deterministic(self):
        m = RatMatrix.from_rows([[2, 4, 1, 3], [0, 0, 5, 5]])
        assert kernel(m) == kernel(m)


def eigensplit(s):
    """The +1 and -1 eigenspaces of ``s``: the fixed subspaces of S and of -S."""
    return fixed_subspace(s), fixed_subspace(LinearInvolution(-s.matrix))


class TestEigensplit:
    def test_negation(self):
        s = LinearInvolution(-RatMatrix.identity(2))
        plus, minus = eigensplit(s)
        assert plus == []
        assert minus == [(F(1), F(0)), (F(0), F(1))]

    def test_swap(self):
        s = LinearInvolution(RatMatrix.from_rows([[0, 1], [1, 0]]))
        plus, minus = eigensplit(s)
        assert plus == [(F(1), F(1))]
        assert minus == [(F(1), F(-1))]

    def test_identity(self):
        s = LinearInvolution(RatMatrix.identity(3))
        plus, minus = eigensplit(s)
        assert len(plus) == 3 and minus == []

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="involution"):
            LinearInvolution(RatMatrix.from_rows([[1, 1], [0, 1]]))

    def test_fixed_subspace_examples(self):
        diag = LinearInvolution(RatMatrix.from_rows([[1, 0], [0, -1]]))
        assert fixed_subspace(diag) == [(F(1), F(0))]
        assert fixed_subspace(LinearInvolution(-RatMatrix.identity(2))) == []
        block = LinearInvolution(RatMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]))
        assert fixed_subspace(block) == [(F(1), F(0), F(0), F(0)),
                                         (F(0), F(1), F(0), F(0))]

    def test_eigenspaces_span(self):
        for seed in range(10):
            s = random_antisymplectic_involution(4, seed)
            plus, minus = eigensplit(s)
            assert rank(RatMatrix.from_rows(plus + minus)) == 4


class TestLagrangian:
    def test_half_dimensional_line_in_plane(self):
        assert is_lagrangian([(F(1), F(0))], 2)

    def test_darboux_pair_is_not_isotropic(self):
        # span{e1, f1} pairs to 1 under the form
        assert not is_lagrangian([(F(1), F(0), F(0), F(0)),
                                  (F(0), F(0), F(1), F(0))], 4)

    def test_position_plane_is_lagrangian(self):
        assert is_lagrangian([(F(1), F(0), F(0), F(0)),
                              (F(0), F(1), F(0), F(0))], 4)

    def test_wrong_dimension_fails(self):
        assert not is_lagrangian([(F(1), F(0), F(0), F(0))], 4)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_lagrangian([(F(1), F(0))], 4)

    def test_odd_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension must be even"):
            is_lagrangian([(F(1), F(0), F(0))], 3)


class TestAntisymplecticInvolutions:
    def test_trivial_conjugation(self):
        s = antisymplectic_involution_from_symplectic(RatMatrix.identity(2))
        assert s.matrix == RatMatrix.from_rows([[1, 0], [0, -1]])

    def test_dim2_construction_guarantees(self):
        for seed in (0, 1, 17):
            s = random_antisymplectic_involution(2, seed)
            assert s.matrix @ s.matrix == RatMatrix.identity(2)
            assert is_antisymplectic(s)

    def test_dim4_seed7_fixed_space_is_lagrangian(self):
        s = random_antisymplectic_involution(4, 7)
        fs = fixed_subspace(s)
        assert len(fs) == 2
        assert is_lagrangian(fs, 4)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_fixed_spaces_lagrangian_many_seeds(self, dim):
        for seed in range(25):
            s = random_antisymplectic_involution(dim, seed)
            assert is_lagrangian(fixed_subspace(s), dim)

    def test_negation_closure(self):
        s = random_antisymplectic_involution(4, 3)
        neg = LinearInvolution(-s.matrix)
        assert is_antisymplectic(neg)
        minus = column_space_basis(RatMatrix.identity(4) + -s.matrix)  # the -1 eigenspace of s
        assert fixed_subspace(neg) == minus
        assert is_lagrangian(fixed_subspace(neg), 4)

    def test_determinism(self):
        a = random_antisymplectic_involution(6, 11)
        b = random_antisymplectic_involution(6, 11)
        assert a.matrix == b.matrix

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_antisymplectic_involution(3, 0)
        swap = LinearInvolution(RatMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
        with pytest.raises(ValueError, match="dimension must be even"):
            is_antisymplectic(swap)

    @pytest.mark.parametrize("dim", [3, 1, 0, -2])
    def test_dimension_refused_in_its_own_words(self, dim):
        # odd dimensions, and even ones below 2, are refused before any draw
        with pytest.raises(ValueError, match="^dimension must be even and >= 2$"):
            random_antisymplectic_involution(dim, 0)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_predicate_equals_the_definition(self, dim):
        # S^T Omega S == -Omega, over involutions with either answer
        omega = darboux(dim)
        one = RatMatrix.identity(dim)
        swap = RatMatrix.from_rows([[int({r, c} == {0, 1} or r == c > 1) for c in range(dim)]
                                    for r in range(dim)])  # exchanges e1 and e2
        seen = set()
        for seed in range(10):
            s = random_antisymplectic_involution(dim, seed).matrix
            for m in (s, -s, one, -one, swap, swap @ s @ swap, s @ swap @ s):
                expected = m.transpose() @ omega @ m == -omega
                assert is_antisymplectic(LinearInvolution(m)) is expected
                seen.add(expected)
        assert seen == {True, False}


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
@settings(deadline=None)
def test_involution_from_small_symplectic_shear(p, q, r):
    # explicit symplectic matrix [[1, p], [0, 1]] composed with [[1, 0], [q, 1]]
    t = RatMatrix.from_rows([[1, p], [0, 1]]) @ RatMatrix.from_rows([[1, 0], [q, 1]])
    t = t @ RatMatrix.from_rows([[1, r], [0, 1]])
    s = antisymplectic_involution_from_symplectic(t)
    assert is_antisymplectic(s)
    assert is_lagrangian(fixed_subspace(s), 2)


class TestGaussianRational:
    """A coordinate value with no field arithmetic; its text is what the
    wire format parses."""

    @pytest.mark.parametrize("g, text", [
        (GaussianRational(F(3)), "3"),
        (GaussianRational.of(F(1, 2), 3), "1/2+3i"),
        (GaussianRational.of(0, F(-1, 3)), "0-1/3i"),
        (GaussianRational.of(-2, 1), "-2+1i"),
        (GaussianRational.of(0, F(1, 2)), "0+1/2i"),
    ])
    def test_str_round_trips_through_the_parser(self, g, text):
        assert str(g) == text
        assert wire.parse_gaussian(text) == g

    def test_one_argument_construction_is_real(self):
        g = GaussianRational(F(3))
        assert g == GaussianRational.of(3, 0) and g.is_real and not g.is_zero
        assert not GaussianRational.of(F(2, 3), F(-1, 4)).is_real

    def test_parts_are_stored_as_fractions(self):
        g = GaussianRational(1, 2)
        assert repr(g) == repr(GaussianRational.of(1, 2))
        assert type(g.re) is F and type(g.im) is F

    @pytest.mark.parametrize("parts", [(0.5,), (1, 0.5), (F(1), 2.0)])
    def test_float_parts_refused(self, parts):
        with pytest.raises(TypeError, match=r"^refusing float -> Fraction coercion; pass exact input$"):
            GaussianRational(*parts)

    def test_no_field_arithmetic(self):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "conjugate"):
            assert not hasattr(GaussianRational, name)
