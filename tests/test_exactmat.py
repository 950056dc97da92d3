"""Exact matrix algebra: worked examples, seeded randomized invariants, and
differential properties of the integer routes and the scaled-integer
RatMatrix against a per-entry Fraction reference."""

import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from latorb.exactmat import (
    IntMatrix,
    NoSolution,
    NotPositiveDefinite,
    RatMatrix,
    ShapeError,
    block_diagonal,
    det,
    hnf,
    inverse,
    kernel_basis,
    ldl,
    snf,
    solve_exact,
)


def im(rows):
    return IntMatrix.from_rows(rows)


def rm(rows):
    return RatMatrix.from_rows(rows)


class TestHnf:
    def test_already_reduced(self):
        assert hnf(im([[2, 0], [0, 2]])) == im([[2, 0], [0, 2]])

    def test_hand_reduction(self):
        assert hnf(im([[1, 1], [1, -1]])) == im([[1, 1], [0, 2]])

    def test_zero_matrix_drops_all_rows(self):
        h = hnf(im([[0, 0], [0, 0]]))
        assert h.rows == 0 and h.cols == 2

    def test_pivot_normalization(self):
        h = hnf(im([[-3, 1], [0, -5]]))
        # Pivots positive, entry above second pivot reduced into [0, 5).
        assert h.entries[0][0] > 0 and h.entries[1][1] > 0
        assert 0 <= h.entries[0][1] < h.entries[1][1]


class TestSnf:
    def test_diagonal(self):
        assert snf(im([[2, 0], [0, 2]])).invariant_factors == (2, 2)

    def test_a2_gram(self):
        assert snf(im([[2, -1], [-1, 2]])).invariant_factors == (1, 3)

    def test_identity(self):
        assert snf(IntMatrix.identity(3)).invariant_factors == (1, 1, 1)

    @pytest.mark.parametrize("m, factors", [
        (im([[4, 6], [2, 8]]), (2, 10)),
        # Diagonal already, but d1 does not divide d2.
        (im([[3, 0], [0, 1]]), (1, 3)),
        (im([[4, 0], [0, 6]]), (2, 12)),
        (im([[-6, -8], [0, -9], [-9, -7]]), (1, 3)),
        (im([[-2]]), (2,)),
        (IntMatrix.from_rows([], cols=3), ()),
        (IntMatrix.from_rows([[], [], []], cols=0), ()),
    ], ids=["2x2", "diagonal_3_1", "diagonal_4_6", "3x2", "negative_1x1", "0x3", "3x0"])
    def test_transforms_reproduce_diagonal(self, m, factors):
        d = snf(m)
        assert d.invariant_factors == factors
        prod = d.u @ m @ d.v
        for i in range(m.rows):
            for j in range(m.cols):
                expect = d.invariant_factors[i] if i == j else 0
                assert prod.entries[i][j] == expect
        assert abs(det(d.u)) == 1 == abs(det(d.v))

    def test_rank_deficient_pads_zero(self):
        assert snf(im([[1, 1], [1, 1]])).invariant_factors == (1, 0)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        k = kernel_basis(IntMatrix.identity(3))
        assert k.rows == 0 and k.cols == 3

    def test_column_of_ones(self):
        k = kernel_basis(im([[1], [1]]))
        assert k == im([[1, -1]])

    def test_full_kernel(self):
        k = kernel_basis(im([[0, 0]] * 3))
        assert k == IntMatrix.identity(3)


class TestDet:
    def test_a2_gram(self):
        assert det(im([[2, -1], [-1, 2]])) == 3

    def test_identity(self):
        assert det(IntMatrix.identity(4)) == 1

    def test_row_swap_and_type(self):
        assert det(im([[0, 1], [1, 0]])) == -1
        assert type(det(im([[2, 1], [1, 2]]))) is int

    def test_empty(self):
        assert det(IntMatrix(0, 0, ())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            det(im([[1, 2]]))


class TestSolve:
    def test_identity_system(self):
        b = im([[3, -7]])
        assert solve_exact(IntMatrix.identity(2), b) == b

    def test_scalar(self):
        assert solve_exact(im([[2]]), im([[6]])) == im([[3]])
        # x = 1/2 solves it over the rationals, but not in integers.
        with pytest.raises(NoSolution):
            solve_exact(im([[2]]), im([[1]]))

    def test_inconsistent(self):
        with pytest.raises(NoSolution):
            solve_exact(im([[1, 0]]), im([[0, 1]]))

    def test_inverse_roundtrip(self):
        a = im([[2, 1], [1, 1]])
        assert (inverse(a) @ a) == IntMatrix.identity(2)
        assert inverse(a) == im([[1, -1], [-1, 2]])

    def test_singular_inverse(self):
        with pytest.raises(NoSolution):
            inverse(im([[1, 1], [1, 1]]))

    def test_inverse_rejects_a_non_unimodular_matrix(self):
        # det 3: the rational inverse exists, the integer one does not.
        with pytest.raises(NoSolution, match="not unimodular"):
            inverse(im([[2, -1], [-1, 2]]))


def test_mixed_operands_and_non_int_entries_raise_type_error():
    i, r = IntMatrix.identity(2), rm([[1, 0], [0, 1]])
    for op in (operator.matmul, operator.add, operator.sub):
        for a, b in ((i, r), (r, i)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        i.scale(Fraction(1, 2))
    # det, ldl and block_diagonal take integer matrices only.
    half = rm([[Fraction(1, 2), 0], [0, 1]])
    for use in (det, ldl, lambda m: block_diagonal([i, m])):
        with pytest.raises(TypeError):
            use(half)
    bad = [lambda: IntMatrix(1, 1, ((Fraction(1),),)),
           lambda: IntMatrix(1, 1, ((True,),)),
           lambda: IntMatrix.from_rows([[1, 2.0]]),
           lambda: RatMatrix(1, 1, ((Fraction(1, 2),),)),
           lambda: RatMatrix(1, 1, ((1,),), 2.0),
           lambda: RatMatrix.from_rows([[0.5]])]
    for build in bad:
        with pytest.raises(TypeError):
            build()


def _random_matrix(rng, max_dim=4, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _integral_row_solve(h: IntMatrix, target) -> bool:
    """Whether target is an integer combination of the HNF rows h.

    Greedy reduction by pivot columns is exact because HNF pivots move
    strictly rightward: later rows are zero in earlier pivot columns.
    """
    rest = list(target)
    for i in range(h.rows):
        col = next(j for j in range(h.cols) if h.entries[i][j] != 0)
        if rest[col] % h.entries[i][col] != 0:
            return False
        q = rest[col] // h.entries[i][col]
        rest = [a - q * b for a, b in zip(rest, h.entries[i])]
    return all(a == 0 for a in rest)


def test_randomized_normal_form_invariants():
    """HNF span preservation, SNF transform identity, kernel annihilation and
    saturation, determinant invariance — 1000 seeded random matrices."""
    rng = random.Random(20240811)
    for trial in range(1000):
        m = _random_matrix(rng)
        h = hnf(m)
        # Row span is preserved: every original row reduces to zero against h.
        for row in m.entries:
            assert _integral_row_solve(h, row), (m, h)
        # hnf is idempotent and deterministic.
        assert hnf(h) == h
        assert hnf(m) == h

        d = snf(m)
        assert abs(det(d.u)) == 1 and abs(det(d.v)) == 1
        prod = d.u @ m @ d.v
        n = min(m.rows, m.cols)
        for i in range(m.rows):
            for j in range(m.cols):
                expect = d.invariant_factors[i] if i == j and i < n else 0
                assert prod.entries[i][j] == expect
        nonzero = [f for f in d.invariant_factors if f != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        if m.rows == m.cols:
            dm = det(m)
            assert abs(dm) == abs(det(prod))
            prod_factors = 1
            for f in d.invariant_factors:
                prod_factors *= f
            assert abs(dm) == prod_factors

        k = kernel_basis(m)
        if k.rows:
            assert not any(any(row) for row in (k @ m).entries)
            saturation = snf(k).invariant_factors
            assert all(f == 1 for f in saturation)
        assert k.rows == m.rows - sum(1 for f in snf(m).invariant_factors if f)


# Seeded and bounded: the same examples on every run, no example database.
PROFILE = settings(max_examples=100, derandomize=True, deadline=None, database=None)
# The same, without shrinking: a failing FIELD_EDGES elimination example is
# reported as drawn, where shrinking it can take minutes.
NO_SHRINK = settings(PROFILE, phases=[p for p in Phase if p is not Phase.shrink])

FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def frac_rows(rows, cols, elements=FRACTIONS):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def rat(rows, cols):
    return RatMatrix.from_rows(rows, cols=cols)


# Per-entry Fraction reference implementations that the scaled-integer
# RatMatrix must agree with.
def ref_matmul(a, b, inner, cols):
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def ref_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def ref_det(a):
    a = [list(row) for row in a]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def ref_solve(a, b, n, m, k):
    """x a = b by Gauss-Jordan over Fractions, free coordinates zero."""
    aug = [[a[j][i] for j in range(n)] + [b[t][i] for t in range(k)] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [e / aug[row][col] for e in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(e != 0 for i in range(row, m) for e in aug[i][n:]):
        return None
    x = [[Fraction(0)] * n for _ in range(k)]
    for r_i, col in enumerate(pivots):
        for t in range(k):
            x[t][col] = aug[r_i][n + t]
    return x


DIMS = st.integers(0, 4)

# Small integers mixed with 0, +-1, +-(2^k - 1) and +-2^k for k <= 80: the
# entries at which a packed product's fields are exactly full.
FIELD_EDGES = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k, sign, off: sign * ((1 << k) - off),
              st.integers(1, 80), st.sampled_from((1, -1)), st.sampled_from((0, 1))))


@PROFILE
@given(DIMS, DIMS, DIMS, st.data())
def test_matmul_transpose_match_reference(r, c, c2, data):
    a, b = data.draw(frac_rows(r, c)), data.draw(frac_rows(c, c2))
    product = rat(a, c) @ rat(b, c2)
    expected = ref_matmul(a, b, c, c2)
    assert product == rat(expected, c2)
    assert product.entries == tuple(map(tuple, expected))
    x, y = data.draw(frac_rows(r, c, FIELD_EDGES)), data.draw(frac_rows(c, c2, FIELD_EDGES))
    assert IntMatrix.from_rows(x, cols=c).transpose() == IntMatrix.from_rows(
        ref_transpose(x, c), cols=r)
    expected = tuple(map(tuple, ref_matmul(x, y, c, c2)))
    assert (IntMatrix.from_rows(x, cols=c) @ IntMatrix.from_rows(y, cols=c2)).entries == expected
    assert (rat(x, c) @ rat(y, c2)).entries == expected


def test_matrix_records_are_values_of_their_own_class():
    # Equal fields give equal records, hashed as the tuple of their fields.
    a, r = im([[1, 2], [3, 4]]), RatMatrix(2, 2, ((2, 4), (6, 8)), 2)
    assert a == IntMatrix(2, 2, ((1, 2), (3, 4))) and hash(a) == hash((2, 2, a.entries))
    assert r == rm([[1, 2], [3, 4]]) and hash(r) == hash((2, 2, a.entries, 1))
    # The same numbers in the other class, or as a plain tuple, are not equal.
    for x, y in ((a, r), (a, a.to_rat()), (a, (2, 2, a.entries)),
                 (r, (2, 2, r.num, 1)), (a, a.entries)):
        assert x != y and y != x
    assert IntMatrix(0, 2, ()) != IntMatrix(0, 3, ())
    for build in (IntMatrix, RatMatrix):
        with pytest.raises(ShapeError, match="ragged"):
            build(2, 2, ((1, 2), (3,)))


@PROFILE
@given(DIMS, DIMS, st.integers(-30, 30).filter(bool), st.booleans(), st.data())
def test_equality_hash_and_integrality_are_canonical(r, c, k, integral_only, data):
    entries = st.integers(-9, 9).map(Fraction) if integral_only else FRACTIONS
    a = data.draw(frac_rows(r, c, entries))
    m = rat(a, c)
    # The same values over a non-reduced, possibly negative denominator.
    padded = RatMatrix(r, c, tuple(tuple(k * e for e in row) for row in m.num), k * m.den)
    assert padded == m and hash(padded) == hash(m)
    assert padded.num == m.num and padded.den == m.den
    integral = all(x.denominator == 1 for row in a for x in row)
    assert (m.den == 1) is integral
    if integral:
        assert m == IntMatrix(r, c, tuple(tuple(int(x) for x in row) for row in a)).to_rat()


# Sizes 0-6 for the FIELD_EDGES inputs of the eliminations, as Fractions so
# that the references stay exact.
EDGE_DIMS = st.integers(0, 6)
EDGE_FRACTIONS = FIELD_EDGES.map(Fraction)


def dependent(rows, data):
    """rows, its last row sometimes replaced by a small multiple of its first."""
    if len(rows) > 1 and data.draw(st.booleans()):
        rows[-1] = [data.draw(st.integers(-2, 2)) * x for x in rows[0]]
    return rows


INTEGERS = st.integers(-9, 9).map(Fraction)


def unimodular(n, data):
    """A random n x n unimodular matrix: a signed permutation of rows times
    unit lower times unit upper triangular integer matrices, as Fractions."""
    lower = [[Fraction(int(i == j)) if j >= i else Fraction(data.draw(st.integers(-3, 3)))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) if j <= i else Fraction(data.draw(st.integers(-3, 3)))
              for j in range(n)] for i in range(n)]
    rows = ref_matmul(lower, upper, n, n)
    order = data.draw(st.permutations(range(n)))
    return [[data.draw(st.sampled_from((1, -1))) * e for e in rows[i]] for i in order]


def is_integral(rows):
    return all(x.denominator == 1 for row in rows for x in row)


@NO_SHRINK
@given(DIMS.flatmap(lambda n: frac_rows(n, n, INTEGERS)), st.data())
def test_det_and_inverse_match_reference(small, data):
    # FIELD_EDGES entries read back fields at the Hadamard bound; a dependent
    # row makes singular matrices common.  The integer inverse exists
    # exactly when the Fraction reference inverse is integral, which a
    # random unimodular matrix ensures.
    n = data.draw(EDGE_DIMS)
    big = dependent(data.draw(frac_rows(n, n, EDGE_FRACTIONS)), data)
    for a in (small, big, unimodular(data.draw(DIMS), data)):
        n = len(a)
        m = IntMatrix.from_rows([[int(e) for e in row] for row in a], cols=n)
        assert det(m) == ref_det(a)
        expected = ref_solve(a, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                             n, n, n)
        if expected is None or not is_integral(expected):
            with pytest.raises(NoSolution):
                inverse(m)
        else:
            assert abs(det(m)) == 1
            assert inverse(m) == IntMatrix.from_rows(
                [[int(e) for e in row] for row in expected], cols=n)


@NO_SHRINK
@given(DIMS, DIMS, st.integers(0, 3), st.data())
def test_solve_exact_matches_reference(n, m, k, data):
    # Small entries make rank-deficient and inconsistent systems common.
    small = st.integers(-2, 2).map(Fraction)
    a = data.draw(frac_rows(n, m, small))
    b = data.draw(frac_rows(k, m, small))
    # FIELD_EDGES entries with a dependent row, and a right-hand side that is
    # either y a for a small integer y (solvable) or arbitrary (mostly not).
    bn, bm = data.draw(EDGE_DIMS), data.draw(EDGE_DIMS)
    big = dependent(data.draw(frac_rows(bn, bm, EDGE_FRACTIONS)), data)
    y = data.draw(frac_rows(k, bn, st.integers(-3, 3).map(Fraction)))
    rhs = (ref_matmul(y, big, bn, bm) if data.draw(st.booleans())
           else data.draw(frac_rows(k, bm, EDGE_FRACTIONS)))
    for a, b, n, m in ((a, b, n, m), (big, rhs, bn, bm)):
        ia = IntMatrix.from_rows([[int(e) for e in row] for row in a], cols=m)
        ib = IntMatrix.from_rows([[int(e) for e in row] for row in b], cols=m)
        h = hnf(ia)
        solvable = all(_integral_row_solve(h, row) for row in ib.entries)
        if h.rows == n:
            # Full row rank: the solution is unique, so the integer solve
            # succeeds exactly when the Fraction one is integral.
            expected = ref_solve(a, b, n, m, k)
            assert solvable is (expected is not None and is_integral(expected))
            if solvable:
                assert solve_exact(ia, ib) == IntMatrix.from_rows(
                    [[int(e) for e in row] for row in expected], cols=n)
        if not solvable:
            with pytest.raises(NoSolution):
                solve_exact(ia, ib)
        else:
            # Dependent rows: some integer solution, found exactly when each
            # row of b lies in the row span of a's HNF.
            assert solve_exact(ia, ib) @ ia == ib


@st.composite
def symmetric_grams(draw):
    """Symmetric integer matrices, half of them A A^T with A nonsingular."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        a = draw(frac_rows(n, n, st.integers(-4, 4).map(Fraction)))
        if ref_det(a) == 0:
            a = [[a[i][j] + (9 if i == j else 0) for j in range(n)] for i in range(n)]
        g = ref_matmul(a, ref_transpose(a, n), n, n)
    else:
        upper = draw(frac_rows(n, n, st.integers(-4, 6).map(Fraction)))
        g = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return g


@NO_SHRINK
@given(symmetric_grams(), st.data())
def test_ldl_agrees_with_leading_minor_rule(g, data):
    # FIELD_EDGES Grams: A A^T (positive definite unless A is singular) or an
    # arbitrary symmetric matrix, sizes 0-6.
    n = data.draw(EDGE_DIMS)
    a = dependent(data.draw(frac_rows(n, n, EDGE_FRACTIONS)), data)
    big = (ref_matmul(a, ref_transpose(a, n), n, n) if data.draw(st.booleans())
           else [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    for g in (g, big):
        n = len(g)
        positive = all(ref_det([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1))
        m = IntMatrix.from_rows([[int(x) for x in row] for row in g], cols=n)
        if not positive:
            with pytest.raises(NotPositiveDefinite):
                ldl(m)
            continue
        p, a = ldl(m)
        assert all(type(e) is int for e in p) and all(type(e) is int for row in a for e in row)
        # d[k] = D_{k+1} / D_k and u[k] = a[k] / D_{k+1}, with D_0 = 1.
        d = [Fraction(p[k], p[k - 1] if k else 1) for k in range(n)]
        # g = U^T diag(d) U with U unit upper triangular.
        full_u = [[Fraction(int(i == j)) if j <= i else Fraction(a[i][j], p[i])
                   for j in range(n)] for i in range(n)]
        scaled = [[d[i] * x for x in full_u[i]] for i in range(n)]
        assert ref_matmul(ref_transpose(full_u, n), scaled, n, n) == g


@settings(PROFILE, max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_snf_and_hnf_match_sympy(r, c, data):
    """Against sympy's normal forms over ZZ: the same invariant factors, HNF
    rows spanning the row lattice of sympy's (column-style) HNF of the
    transpose, transposed back, and a kernel of the rank of sympy's nullspace
    of the transpose whose integer span holds each of its vectors, scaled to
    a primitive integer row."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
    rows = data.draw(frac_rows(r, c, st.integers(-9, 9)))
    m = IntMatrix.from_rows(rows, cols=c)
    ref = sympy.Matrix(r, c, [e for row in rows for e in row])
    assert snf(m).invariant_factors == tuple(map(int, invariant_factors(ref, domain=sympy.ZZ)))
    h = hnf(m)
    basis = [[int(e) for e in row] for row in hermite_normal_form(ref.T).T.tolist()]
    assert h.rows == len(basis)
    assert all(_integral_row_solve(h, row) for row in basis)
    if basis:
        assert solve_exact(IntMatrix.from_rows(basis), h) @ IntMatrix.from_rows(basis) == h
    k = kernel_basis(m)
    nullspace = ref.T.nullspace()
    assert k.rows == len(nullspace)
    for vec in nullspace:
        den = lcm(*(x.q for x in vec))
        row = [int(x * den) for x in vec]
        assert _integral_row_solve(k, [e // gcd(*row) for e in row])
