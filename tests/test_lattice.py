"""Tests for the lattice layer: direct sums, glue, sublattices, isometries."""

import random
from fractions import Fraction
from math import prod

import pytest

from latorb.exactmat import IntMatrix, NoSolution, RatMatrix, det, snf, solve_exact
from latorb.lattice import (
    GlueError,
    Isometry,
    IsometryError,
    Lattice,
    LatticeError,
    direct_sum,
    glue_extend,
    is_even_unimodular,
    rat_str,
)

A2_GRAM = IntMatrix.from_rows([[2, -1], [-1, 2]])

D4_GRAM = IntMatrix.from_rows([
    [2, -1, 0, 0],
    [-1, 2, -1, -1],
    [0, -1, 2, 0],
    [0, -1, 0, 2],
])

# Chain a1-a2-a3-a4-a5 with a6 attached to a3.
E6_GRAM = IntMatrix.from_rows([
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, -1],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 2],
])

# Chain 1-3-4-5-6-7-8 with node 2 attached to node 4.
E8_GRAM = IntMatrix.from_rows([
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
])


def a2() -> Lattice:
    return Lattice(A2_GRAM, name="A2")


def test_lattice_validation():
    with pytest.raises(LatticeError, match="not symmetric"):
        Lattice(IntMatrix.from_rows([[2, 1], [0, 2]]))
    with pytest.raises(LatticeError, match="not symmetric"):
        Lattice(IntMatrix.from_rows([[2, 1]]))
    with pytest.raises(LatticeError, match="not positive definite"):
        Lattice(IntMatrix.from_rows([[1, 2], [2, 1]]))


def test_lattice_rejects_a_rational_gram():
    # A Gram matrix is an IntMatrix; the same integers as a RatMatrix, or a
    # non-integral Gram, are refused by type, never converted.
    for gram in (RatMatrix(A2_GRAM), RatMatrix(IntMatrix.from_rows([[2, 1], [1, 2]]), 3),
                 ((2, -1), (-1, 2))):
        with pytest.raises(TypeError, match="must be an IntMatrix"):
            Lattice(gram)


def test_lattice_and_isometry_records_are_values():
    l, again = a2(), Lattice(IntMatrix.from_rows([[2, -1], [-1, 2]]), name="A2")
    assert l == again and hash(l) == hash(again) == hash((A2_GRAM, "A2"))
    assert l != Lattice(A2_GRAM) and l != (A2_GRAM, "A2")
    rot = IntMatrix.from_rows([[0, 1], [-1, -1]])
    iso = Isometry.create(l, rot, 3)
    assert iso == Isometry(again, rot, 3) and hash(iso) == hash((l, rot, 3))
    assert iso != Isometry(l, rot @ rot, 3) and iso != (l, rot, 3)


def test_basic_invariants():
    l = a2()
    assert l.rank == 2
    assert l.determinant() == 3
    assert l.is_even
    assert l.inner((1, 0), (1, 0)) == 2
    assert l.inner((1, 0), (0, 1)) == -1
    assert l.inner((2, 1), (2, 1)) == 6 and type(l.inner((2, 1), (1, 2))) is int


def dual_basis(gram: IntMatrix) -> RatMatrix:
    """The rows of G^-1, a basis of L* in the basis of L: the adjugate, the
    integer solution of x G = det(G) I, over det(G)."""
    d = det(gram)
    adjugate = solve_exact(gram, IntMatrix.identity(gram.rows).scale(d))
    return RatMatrix(adjugate, d)


def glue_by_dual_basis(l: Lattice):
    """Glue l by the dual basis: the glued lattice would be L*."""
    dual = dual_basis(l.gram)
    return glue_extend(l, dual.num, dual.den)


def test_dual_of_unimodular_is_itself():
    for gram in (IntMatrix.from_rows([[1]]), E8_GRAM):
        l = Lattice(gram)
        ext = glue_by_dual_basis(l)
        assert ext.index == 1
        assert ext.lattice.gram == l.gram


def test_dual_a2():
    # L sits inside L* with index det(G) = 3, and the dual basis (rows of
    # G^-1) spans L* with determinant 1/3. L* is not integral (2/3 on the
    # diagonal of its Gram), so gluing A2 by its dual basis is refused.
    assert a2().determinant() == 3
    dual = dual_basis(A2_GRAM)
    assert dual == RatMatrix(IntMatrix.from_rows([[2, 1], [1, 2]]), 3)
    (a, b), (c, d) = (tuple(Fraction(e, dual.den) for e in row) for row in dual.num.entries)
    assert a * d - b * c == Fraction(1, 3)
    with pytest.raises(GlueError, match="not integral"):
        glue_by_dual_basis(a2())


def test_discriminant_groups():
    # L*/L read off the Smith form of the Gram matrix.
    for gram, factors in ((A2_GRAM, (1, 3)), (D4_GRAM, (1, 1, 2, 2)),
                          (E6_GRAM, (1, 1, 1, 1, 1, 3)), (E8_GRAM, (1,) * 8)):
        assert snf(gram).invariant_factors == factors
        assert Lattice(gram).determinant() == prod(factors)


def test_direct_sum():
    l = direct_sum([a2(), a2()])
    assert l.rank == 4
    assert l.determinant() == 9
    assert l.gram == IntMatrix.from_rows([[2, -1, 0, 0], [-1, 2, 0, 0],
                                          [0, 0, 2, -1], [0, 0, -1, 2]])
    d4_6 = direct_sum([Lattice(D4_GRAM)] * 6)
    assert d4_6.rank == 24
    assert d4_6.determinant() == 4 ** 6
    empty = direct_sum([])
    assert empty.rank == 0
    assert empty.determinant() == 1


def test_glue_empty_is_identity():
    l = a2()
    ext = glue_extend(l, IntMatrix(0, 2, ()), 1)
    assert ext.index == 1
    assert ext.lattice.gram == l.gram


def test_glue_a2_to_its_dual():
    # The nontrivial dual class of A2 has representative with basis
    # coordinates (2/3, 1/3), of norm 2/3: alone it pairs integrally with
    # A2 but does not glue, while its diagonal in A2^3 has norm 2 and glues
    # A2^3 to E6 with index 3.
    with pytest.raises(GlueError, match="not integral"):
        glue_extend(a2(), IntMatrix.from_rows([[2, 1]]), 3)
    l = direct_sum([a2()] * 3)
    ext = glue_extend(l, IntMatrix.from_rows([[2, 1] * 3]), 3)
    assert ext.index == 3
    assert ext.lattice.determinant() == 3
    assert ext.lattice.determinant() * ext.index ** 2 == l.determinant()
    assert ext.lattice.is_even
    assert snf(ext.base_in_lattice).invariant_factors == (1, 1, 1, 1, 1, 3)
    assert snf(ext.lattice.gram).invariant_factors == snf(E6_GRAM).invariant_factors


def test_glue_rejects_non_dual_vector():
    l = a2()
    with pytest.raises(GlueError) as exc:
        glue_extend(l, IntMatrix.from_rows([[1, 0]]), 2)
    assert "pairs non-integrally" in str(exc.value)
    with pytest.raises(GlueError, match="3 coordinates, not 2"):
        glue_extend(l, IntMatrix.from_rows([[2, 1, 0]]), 3)


def test_glue_rejects_a_non_positive_denominator():
    for den in (0, -3):
        with pytest.raises(GlueError, match=f"^glue denominator {den} is not positive$"):
            glue_extend(a2(), IntMatrix.from_rows([[2, 1]]), den)


# A dual-class row of each block type, over its denominator, which glues
# integrally on the diagonal of this many copies of the block.
DIAGONAL_GLUE = [(A2_GRAM, [2, 1], 3, 3), (D4_GRAM, [1, 2, 1, 2], 2, 2),
                 (E6_GRAM, [1, -1, 0, 1, -1, 0], 3, 3)]


@pytest.mark.parametrize("gram,rep,den,copies", DIAGONAL_GLUE)
def test_glue_is_the_same_over_a_multiple_of_the_denominator(gram, rep, den, copies):
    # Seeded words W over den, multiples of the diagonal class plus base
    # vectors: k W over k den glues the same lattice with the same base rows,
    # and its basis numerators are k times those over den.
    l = direct_sum([Lattice(gram)] * copies)
    rng = random.Random(l.rank)
    for _ in range(5):
        multiples = [rng.randrange(den) for _ in range(rng.randrange(1, 4))]
        words = IntMatrix.from_rows([[c * e + den * rng.randrange(-2, 3) for e in rep * copies]
                                     for c in multiples])
        ext = glue_extend(l, words, den)
        for k in (2, 3):
            scaled = glue_extend(l, words.scale(k), k * den)
            assert scaled.lattice.gram == ext.lattice.gram
            assert scaled.index == ext.index
            assert scaled.base_in_lattice == ext.base_in_lattice
            assert (scaled.den, scaled.basis_in_base) == (k * den, ext.basis_in_base.scale(k))


def test_even_unimodular_flags():
    assert is_even_unimodular(a2()) == (True, False)
    assert is_even_unimodular(Lattice(IntMatrix.from_rows([[1]]))) == (False, True)
    assert is_even_unimodular(Lattice(E8_GRAM)) == (True, True)


def test_member_basis_and_glue_vector():
    e6 = Lattice(E6_GRAM, name="E6")
    g = RatMatrix(IntMatrix.from_rows([[1, -1, 0, 1, -1, 0]]), 3)
    tripled = RatMatrix(g.num.scale(3), g.den)
    assert (g.den, tripled.den) == (3, 1)
    # The glue vector has norm 4/3 = 12 / 3^2: it lies in E6* but does not
    # glue, while three times it lies in E6 and glues with index 1.
    assert e6.inner(tripled.num.entries[0], tripled.num.entries[0]) == 12
    with pytest.raises(GlueError, match="not integral"):
        glue_extend(e6, g.num, g.den)
    assert glue_extend(e6, tripled.num, tripled.den).index == 1


def sublattice_contains(sub: IntMatrix, coords_in_parent) -> bool:
    """Whether a parent-coordinate vector lies in the sublattice with basis
    rows ``sub``: one exact solve, the oracle for containment checks."""
    if any(Fraction(e).denominator != 1 for e in coords_in_parent):
        return False
    try:
        solve_exact(sub, IntMatrix.from_rows([[int(e) for e in coords_in_parent]], cols=sub.cols))
    except NoSolution:
        return False
    return True


def test_sublattice_contains():
    line = IntMatrix.from_rows([[1, 0, 0, 0, 0, 0]])
    assert sublattice_contains(line, [2, 0, 0, 0, 0, 0])
    assert not sublattice_contains(line, [Fraction(1, 2), 0, 0, 0, 0, 0])
    # Outside the rational span is not contained, not an error.
    assert not sublattice_contains(line, [0, 1, 0, 0, 0, 0])


def test_quotient_index():
    # |L/M| is the product of the Smith invariants of M's basis rows.
    whole = IntMatrix.identity(2)
    assert snf(whole).invariant_factors == (1, 1)
    doubled = IntMatrix.identity(2).scale(2)
    assert snf(doubled).invariant_factors == (2, 2)
    assert sublattice_contains(doubled, [2, -4]) and not sublattice_contains(doubled, [1, 0])


def test_isometry_rotation_of_a2():
    l = a2()
    rot = Isometry.create(l, IntMatrix.from_rows([[0, 1], [-1, -1]]), 3)
    assert rot.order == 3
    assert rot.fixed_rank == 0
    assert (IntMatrix.from_rows([[1, 0]]) @ rot.matrix).entries == ((0, 1),)
    assert (rot.matrix @ rot.matrix @ rot.matrix).is_identity()
    neg = Isometry.create(l, IntMatrix.identity(2).scale(-1), 2)
    assert neg.order == 2
    assert neg.fixed_rank == 0
    ident = Isometry.create(l, IntMatrix.identity(2), 1)
    assert ident.order == 1
    assert ident.fixed_rank == 2


def test_isometry_rejections():
    l = a2()
    with pytest.raises(IsometryError):
        Isometry.create(l, IntMatrix.from_rows([[1, 1], [0, 1]]), 1)
    with pytest.raises(IsometryError, match="order is 1, expected 3"):
        Isometry.create(l, IntMatrix.identity(2), 3)
    with pytest.raises(IsometryError, match="order exceeds 2"):
        Isometry.create(l, IntMatrix.from_rows([[0, 1], [-1, -1]]), 2)
    with pytest.raises(IsometryError):
        Isometry.create(l, IntMatrix.identity(3), 1)


def test_serialization():
    assert rat_str(5) == "5"
    assert rat_str(Fraction(4, 6)) == "2/3"
    assert rat_str(Fraction(-1, 3)) == "-1/3"
    doc = a2().to_json()
    assert doc == {
        "name": "A2",
        "rank": 2,
        "gram": [["2", "-1"], ["-1", "2"]],
        "even": True,
        "det": "3",
    }


def test_randomized_lattice_invariants():
    rng = random.Random(20240812)
    for _ in range(150):
        n = rng.randrange(1, 4)
        while True:
            b = IntMatrix.from_rows(
                [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)],
                cols=n)
            if det(b) != 0:
                break
        gram = b @ b.transpose()
        l = Lattice(gram)
        d = det(gram)
        if d == 1:
            assert glue_by_dual_basis(l).lattice == l
        else:
            with pytest.raises(GlueError, match="not integral"):
                glue_by_dual_basis(l)
        k = rng.randrange(1, 4)
        scaled = IntMatrix.identity(n).scale(k)
        assert sublattice_contains(scaled, [k] + [0] * (n - 1))
        assert sublattice_contains(scaled, [1] + [0] * (n - 1)) == (k == 1)
        # Glue by a random dual vector v = u G^-1 of norm p/q, which glues
        # only when q = 1, and by q v, which always glues; index-squared
        # times the glued determinant recovers the base determinant, and the
        # base sits in the glued lattice with that index.
        u = RatMatrix(IntMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(n)]], cols=n))
        v = u @ dual_basis(gram)
        u_row, v_row = ([Fraction(e, m.den) for e in m.num.entries[0]] for m in (u, v))
        q = Fraction(sum(a * b for a, b in zip(u_row, v_row))).denominator
        if q > 1:
            with pytest.raises(GlueError, match="not integral"):
                glue_extend(l, v.num, v.den)
        ext = glue_extend(l, v.num.scale(q), v.den)
        assert ext.lattice.determinant() * ext.index ** 2 == d
        assert abs(det(ext.base_in_lattice)) == ext.index
