"""Tests for root enumeration, ADE classification, and reflections."""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latorb import roots as roots_module
from latorb.catalog import build_root_lattice, build_sigma, niemeier_bundle
from latorb.exactmat import IntMatrix, RatMatrix, inverse
from latorb.lattice import Isometry, Lattice, LatticeError, direct_sum, glue_extend
from latorb.roots import (
    RootComponent,
    RootsError,
    UnknownRootSystem,
    _classify_component,
    _match_ade,
    _short_vectors,
    basis_highest_root,
    build_root_system,
    classify,
    enumerate_roots,
    glued_root_vectors,
    orbit_count,
    reflection,
    root_system_to_json,
)
from test_lattice import A2_GRAM, D4_GRAM, E6_GRAM, E8_GRAM, sublattice_contains


NIEMEIER_KEYS = ("A2_12", "D4_6", "A5_4_D4", "E6_4")


def cartan_gram(family: str, rank: int) -> IntMatrix:
    """Cartan matrix of A_n (a path), D_n (a path with its last node moved
    to the third from the end) or E_n (a path with one node on node 2)."""
    edges = {(i, i + 1) for i in range(rank - 2)}
    if family == "A":
        edges.add((rank - 2, rank - 1))
    else:
        edges.add((rank - 3 if family == "D" else 2, rank - 1))
    return IntMatrix.from_rows(
        [[2 if i == j else (-1 if (min(i, j), max(i, j)) in edges else 0)
          for j in range(rank)] for i in range(rank)])


def test_root_counts():
    assert enumerate_roots(Lattice(A2_GRAM)).count == 6
    assert enumerate_roots(Lattice(D4_GRAM)).count == 24
    assert enumerate_roots(Lattice(IntMatrix.from_rows([[4]]))).count == 0
    assert enumerate_roots(Lattice(E6_GRAM)).count == 72
    assert enumerate_roots(Lattice(E8_GRAM)).count == 240
    assert enumerate_roots(Lattice(cartan_gram("A", 5))).count == 30


def test_enumeration_requires_even():
    with pytest.raises(RootsError):
        enumerate_roots(Lattice(IntMatrix.from_rows([[1]])))
    with pytest.raises(RootsError):
        enumerate_roots(Lattice(IntMatrix.from_rows([[3]])))


def test_classification():
    assert classify(enumerate_roots(Lattice(A2_GRAM))) == (("A", 2),)
    assert classify(enumerate_roots(Lattice(D4_GRAM))) == (("D", 4),)
    assert classify(enumerate_roots(Lattice(E6_GRAM))) == (("E", 6),)
    assert classify(enumerate_roots(Lattice(E8_GRAM))) == (("E", 8),)
    assert classify(enumerate_roots(Lattice(cartan_gram("A", 5)))) == (("A", 5),)
    both = direct_sum([Lattice(A2_GRAM), Lattice(D4_GRAM)])
    assert classify(enumerate_roots(both)) == (("A", 2), ("D", 4))
    twice = direct_sum([Lattice(A2_GRAM), Lattice(A2_GRAM)])
    assert classify(enumerate_roots(twice)) == (("A", 2), ("A", 2))


def test_negation_closure_and_component_orthogonality():
    rs = enumerate_roots(direct_sum([Lattice(A2_GRAM), Lattice(A2_GRAM)]))
    coords = set(rs.roots)
    for v in rs.roots:
        assert tuple(-c for c in v) in coords
    assert len(rs.components) == 2
    for a in rs.components[0].roots:
        for b in rs.components[1].roots:
            assert rs.lattice.inner(a, b) == 0


def test_simple_roots_and_cartan():
    rs = enumerate_roots(Lattice(D4_GRAM))
    comp = rs.components[0]
    assert len(comp.simple) == 4
    degrees = sorted(
        sum(1 for j in range(4) if i != j and comp.cartan.entries[i][j] == -1)
        for i in range(4))
    assert degrees == [1, 1, 1, 3]


def test_reflection_basics():
    l = Lattice(A2_GRAM)
    alpha = (1, 0)
    r = reflection(l, alpha)
    assert r.order == 2
    assert (IntMatrix.from_rows([alpha]) @ r.matrix).entries == ((-1, 0),)
    perp = (1, 2)
    assert l.inner(alpha, perp) == 0
    assert (IntMatrix.from_rows([perp]) @ r.matrix).entries == (perp,)
    with pytest.raises(RootsError):
        reflection(l, (1, -1))
    with pytest.raises(RootsError):
        reflection(l, (Fraction(1), 0))
    with pytest.raises(RootsError):
        reflection(l, (1, 0, 0))


def test_fixed_point_free_order_three_from_reflections():
    # Product of the six simple reflections of E6 and the highest-root
    # reflection, applied highest-root-first, has order 3 and trivial
    # fixed sublattice.
    e6 = Lattice(E6_GRAM)
    rs = enumerate_roots(e6)
    top = basis_highest_root(e6, rs.roots)
    m = reflection(e6, top).matrix
    for i in (5, 4, 3, 1, 0):
        m = m @ reflection(e6, IntMatrix.identity(6).entries[i]).matrix
    phi = Isometry.create(e6, m, 3)
    assert phi.fixed_rank == 0


def test_highest_roots():
    # The bases of these Cartan Grams are simple systems, so the highest
    # root's coordinates are its simple-root coefficients.
    for gram, coefficients in ((A2_GRAM, [1, 1]), (D4_GRAM, [1, 1, 1, 2]),
                               (E6_GRAM, [1, 1, 2, 2, 2, 3])):
        l = Lattice(gram)
        top = basis_highest_root(l, enumerate_roots(l).roots)
        assert sorted(top) == coefficients
        assert l.inner(top, top) == 2


def test_basis_highest_root_e6():
    e6 = Lattice(E6_GRAM)
    rs = enumerate_roots(e6)
    top = basis_highest_root(e6, rs.roots)
    assert top == (1, 2, 3, 2, 1, 2)


def test_orbit_count():
    l = Lattice(A2_GRAM)
    rs = enumerate_roots(l)
    ident = Isometry.create(l, IntMatrix.identity(2), 1)
    assert orbit_count(rs, ident) == (6, 6)
    rot = Isometry.create(l, IntMatrix.from_rows([[0, 1], [-1, -1]]), 3)
    assert orbit_count(rs, rot) == (2, 0)
    neg = Isometry.create(l, IntMatrix.identity(2).scale(-1), 2)
    assert orbit_count(rs, neg) == (3, 0)
    other = Isometry.create(Lattice(D4_GRAM), IntMatrix.identity(4), 1)
    with pytest.raises(RootsError):
        orbit_count(rs, other)


def test_orbit_count_rejects_a_map_off_the_root_set():
    # The roots of the first of two A2 blocks; swapping the blocks sends
    # every one of them outside the set.
    a2a2 = direct_sum([Lattice(A2_GRAM)] * 2)
    first = [r for r in enumerate_roots(a2a2).roots if not any(r[2:])]
    rs = build_root_system(a2a2, first)
    swap = Isometry.create(a2a2, IntMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]), 2)
    with pytest.raises(RootsError, match="does not preserve the root set"):
        orbit_count(rs, swap)


def test_orbit_sizes_for_order_three():
    e6 = Lattice(E6_GRAM)
    rs = enumerate_roots(e6)
    simple = IntMatrix.identity(6).entries
    rot = Isometry.create(
        e6, (reflection(e6, basis_highest_root(e6, rs.roots)).matrix
             @ reflection(e6, simple[5]).matrix
             @ reflection(e6, simple[4]).matrix
             @ reflection(e6, simple[3]).matrix
             @ reflection(e6, simple[1]).matrix
             @ reflection(e6, simple[0]).matrix),
        3)
    orbits, fixed = orbit_count(rs, rot)
    assert rs.count == fixed + 3 * (orbits - fixed)


def test_glued_coset_route_matches_direct_route():
    # Two D4 blocks glued along the diagonal spinor class give D8.
    d4 = Lattice(D4_GRAM)
    q = direct_sum([d4, d4])
    spinor = [1, 2, 1, 2]  # (1/2, 1, 1/2, 1)
    ext = glue_extend(q, RatMatrix(IntMatrix.from_rows([spinor + spinor]), 2))
    assert ext.index == 2
    assert ext.lattice.determinant() == 4
    direct = enumerate_roots(ext.lattice)
    assert direct.count == 112
    assert classify(direct) == (("D", 8),)
    # The spinor word as integer residues over d = 2.
    words = [(0,) * 8, (1, 0, 1, 0) * 2]
    vectors = glued_root_vectors([d4, d4], ext, words, 2)
    assert len(vectors) == 112
    assert set(vectors) == set(direct.roots)
    via_cosets = build_root_system(ext.lattice, vectors)
    assert classify(via_cosets) == (("D", 8),)


def test_glued_route_with_fully_pruned_words():
    # Gluing six A2 blocks diagonally adds no roots: the nonzero cosets
    # only contain norms 6 * 2/3 = 4 and up, never exactly 2.
    a2 = Lattice(A2_GRAM)
    q = direct_sum([a2] * 6)
    ext = glue_extend(q, RatMatrix(IntMatrix.from_rows([[2, 1] * 6]), 3))
    assert ext.index == 3
    words = [(0,) * 12, (2, 1) * 6, (1, 2) * 6]  # 0, g, 2g mod 1, over d = 3
    vectors = glued_root_vectors([a2] * 6, ext, words, 3)
    rs = build_root_system(ext.lattice, vectors)
    assert rs.count == 36
    assert classify(rs) == (("A", 2),) * 6
    assert sorted(vectors) == sorted(enumerate_roots(ext.lattice).roots)
    # Every root must come from the base lattice: the glue vector has
    # norm 4, so all of them are base roots re-expressed in the glued basis.
    assert all(sublattice_contains(ext.base_in_lattice, v) for v in rs.roots)


def test_glued_roots_reject_a_coset_outside_the_lattice():
    # Class 1 of A2 on three blocks is a word of weight 3, not a Golay word:
    # its coset holds norm-2 vectors (3 * 2/3) that A2_12 does not contain.
    bundle = niemeier_bundle("A2_12")
    word = build_root_lattice("A", 2).glue.num.entries[1] * 3 + (0, 0) * 9
    with pytest.raises(RootsError) as excinfo:
        glued_root_vectors(bundle.parts, bundle.extension, [word], bundle.glue_den)
    assert str(excinfo.value) == "coset vector landed outside the lattice"


def test_build_root_system_validation():
    l = Lattice(A2_GRAM)
    with pytest.raises(RootsError):
        build_root_system(l, [(1, -1)])
    with pytest.raises(RootsError):
        build_root_system(l, [(1, 0)])
    with pytest.raises(RootsError):
        build_root_system(l, [(1, 0), (1, 0), (-1, 0)])
    # Rows must be rank-length rows of ints: a Fraction coordinate is
    # refused even when it is integral, as is a row of the wrong length.
    with pytest.raises(RootsError, match="not a row of 2 integers"):
        build_root_system(l, [(Fraction(1), 0), (-1, 0)])
    with pytest.raises(RootsError, match="not a row of 2 integers"):
        build_root_system(l, [(Fraction(1, 2), 0)])
    with pytest.raises(RootsError, match="not a row of 2 integers"):
        build_root_system(l, [(1, 0, 0), (-1, 0, 0)])


def test_root_system_json():
    rs = enumerate_roots(Lattice(D4_GRAM))
    assert root_system_to_json(rs) == {
        "count": 24,
        "components": [{"type": "D", "rank": 4, "root_count": 24}],
    }


def test_randomized_reflection_involution():
    rng = random.Random(20240813)
    e6 = Lattice(E6_GRAM)
    roots = enumerate_roots(e6).roots
    for _ in range(40):
        alpha = roots[rng.randrange(len(roots))]
        r = reflection(e6, alpha)
        assert (r.matrix @ r.matrix).is_identity()
        beta = roots[rng.randrange(len(roots))]
        ra, rb = (IntMatrix.from_rows([alpha, beta]) @ r.matrix).entries
        assert ra == tuple(-c for c in alpha)
        assert e6.inner(rb, rb) == 2
        assert e6.inner(rb, ra) == e6.inner(beta, alpha)


def root_count(family: str, rank: int) -> int | None:
    """A_n has n(n + 1) roots, D_n 2n(n - 1), E6, E7, E8 72, 126, 240."""
    return {"A": rank * (rank + 1), "D": 2 * rank * (rank - 1),
            "E": {6: 72, 7: 126, 8: 240}.get(rank)}[family]


# Reference classifier, O(R^2 n): components by pairing every root with every
# other root, per component the simple roots as the positive roots (under a
# base-K functional) that are no sum of two positive roots, and the type by
# rank and root count, not by the Cartan matrix.
def reference_components(l: Lattice, roots) -> list[RootComponent]:
    coords_list = [tuple(int(e) for e in v) for v in roots]
    unvisited = set(range(len(roots)))
    comps = []
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        members = [start]
        while stack:
            i = stack.pop()
            for j in list(unvisited):
                if l.inner(coords_list[i], coords_list[j]) != 0:
                    unvisited.discard(j)
                    stack.append(j)
                    members.append(j)
        comps.append([roots[i] for i in sorted(members)])
    return [reference_classify(l, comp) for comp in comps]


def reference_classify(l: Lattice, members: list[tuple[int, ...]]) -> RootComponent:
    biggest = max(abs(int(c)) for v in members for c in v)
    weights = [(2 * biggest + 2) ** i for i in range(len(members[0]))]
    positive = sorted(v for v in members
                      if sum(int(c) * w for c, w in zip(v, weights)) > 0)
    assert 2 * len(positive) == len(members)
    pos_set = set(positive)
    simple = [v for v in positive
              if not any(tuple(a - b for a, b in zip(v, w)) in pos_set
                         for w in positive if w != v)]
    cartan = IntMatrix.from_rows([[l.inner(a, b) for b in simple] for a in simple],
                                 cols=len(simple))
    # A connected component's type by rank and root count alone; no two
    # types (D_n from n = 4 on) share both.
    rank = len(simple)
    (family,) = [f for f in "ADE"
                 if (f != "D" or rank >= 4) and root_count(f, rank) == len(members)]
    return RootComponent(family, rank, tuple(members), tuple(simple), cartan)


def assert_matches_reference(l: Lattice, vectors) -> None:
    rs = build_root_system(l, vectors)
    assert list(rs.components) == reference_components(l, rs.roots)


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
               ("D", 4), ("D", 5), ("E", 6), ("E", 7)]


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_classifier_matches_pairwise_reference(family, rank):
    l = Lattice(cartan_gram(family, rank))
    rs = enumerate_roots(l)
    assert classify(rs) == ((family, rank),)
    assert_matches_reference(l, rs.roots)
    shuffled = list(rs.roots)
    random.Random(rank * 31 + ord(family)).shuffle(shuffled)
    assert_matches_reference(l, shuffled)


@pytest.mark.parametrize("key", NIEMEIER_KEYS)
def test_classifier_matches_reference_on_niemeier_lattices(key):
    rs = niemeier_bundle(key).root_system
    assert_matches_reference(rs.lattice, rs.roots)
    shuffled = list(rs.roots)
    random.Random(key).shuffle(shuffled)
    assert_matches_reference(rs.lattice, shuffled)


def test_root_set_not_closed_under_simple_differences():
    # A2 without the pair +-(alpha + beta) is still closed under negation,
    # but alpha + beta - alpha = beta is missing from {+-alpha, +-(alpha+beta)}.
    l = Lattice(A2_GRAM)
    with pytest.raises(RootsError, match="is not a root"):
        build_root_system(l, [(1, 0), (-1, 0), (1, 1), (-1, -1)])
    # Dropping +-(alpha + beta) instead leaves two simple roots joined in the
    # Dynkin graph: one A2 component with too few roots, not two A1s.
    with pytest.raises(RootsError, match="roots instead of 6"):
        build_root_system(l, [(1, 0), (-1, 0), (0, 1), (0, -1)])


ADE_TYPES = ([("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)]
             + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("family,rank", ADE_TYPES)
def test_match_ade_reads_type_off_rank_and_determinant(family, rank):
    # The simple roots in a seeded order: P C P^T for a permutation P.
    c = cartan_gram(family, rank).entries
    order = list(range(rank))
    random.Random(f"{family}{rank}").shuffle(order)
    relabeled = IntMatrix.from_rows([[c[i][j] for j in order] for i in order])
    assert _match_ade(relabeled) == (family, rank, root_count(family, rank))


@pytest.mark.parametrize("rows,message", [
    ([[2, -2], [-2, 2]], "^not a simply laced Cartan matrix$"),
    ([[2, -1], [0, 2]], "^not a simply laced Cartan matrix$"),
    ([[4]], "^not a simply laced Cartan matrix$"),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "^Cartan matrix is not positive definite$"),
    ([[2, 0], [0, 2]], "^no ADE type of rank 2 has determinant 4$"),
    ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
     "^no ADE type of rank 4 has determinant 9$"),
])
def test_match_ade_rejects(rows, message):
    # A doubled bond, an asymmetric entry or a diagonal entry other than 2,
    # the affine A2 triangle, and the disconnected A1 + A1 and A2 + A2,
    # whose (rank, det) name no type.
    with pytest.raises(UnknownRootSystem, match=message):
        _match_ade(IntMatrix.from_rows(rows))


def test_disconnected_cartan_with_a_types_determinant_fails_the_root_count():
    # A1 + E7 has rank 8 and determinant 2 * 2 = 4, the (rank, det) of D8;
    # its 2 + 126 roots are not D8's 112.
    l = direct_sum([Lattice(cartan_gram("A", 1)), Lattice(cartan_gram("E", 7))])
    roots = enumerate_roots(l).roots
    assert len(roots) == 128
    with pytest.raises(RootsError, match="^component classified as D8 but has 128 "
                                         "roots instead of 112$"):
        _classify_component(list(roots), list(IntMatrix.identity(8).entries), l.gram)


def random_unimodular(n: int, rng: random.Random) -> IntMatrix:
    """A seeded product of elementary row operations, signs and a permutation."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    signs = [rng.choice((-1, 1)) for _ in rows]
    return IntMatrix.from_rows([[k * e for e in row] for k, row in zip(signs, rows)])


def change_basis(l: Lattice, iso_matrix: IntMatrix, order: int, u: IntMatrix):
    """The lattice in the basis U b and the map x -> x @ m of the given order
    in its coordinates, x' -> x' @ U m U^-1."""
    uinv = inverse(u)
    moved = Lattice(u @ l.gram @ u.transpose())
    return moved, uinv, Isometry.create(moved, u @ iso_matrix @ uinv, order)


def order_of(m: IntMatrix) -> int:
    """The order of an integer matrix known to have finite order."""
    power, k = m, 1
    while not power.is_identity():
        power, k = power @ m, k + 1
    return k


def weyl_element(l: Lattice, rs, rng: random.Random) -> IntMatrix:
    m = IntMatrix.identity(l.rank)
    for _ in range(5):
        m = m @ reflection(l, rs.roots[rng.randrange(rs.count)]).matrix
    return m


@pytest.mark.parametrize("parts,seed", [
    ((("A", 2),) * 3, 11), ((("D", 4),) * 2, 12), ((("E", 6),), 13)])
def test_root_layer_is_invariant_under_basis_change(parts, seed):
    rng = random.Random(seed)
    l = direct_sum([Lattice(cartan_gram(f, r)) for f, r in parts])
    rs = enumerate_roots(l)
    sigma = weyl_element(l, rs, rng)
    counts = sorted(len(c.roots) for c in rs.components)
    order = order_of(sigma)
    orbits = orbit_count(rs, Isometry.create(l, sigma, order))
    for _ in range(2):
        moved, _, moved_sigma = change_basis(l, sigma, order, random_unimodular(l.rank, rng))
        moved_rs = enumerate_roots(moved)
        assert classify(moved_rs) == classify(rs)
        assert sorted(len(c.roots) for c in moved_rs.components) == counts
        assert orbit_count(moved_rs, moved_sigma) == orbits


def test_niemeier_root_layer_is_invariant_under_basis_change():
    sigma = build_sigma("sigma1")
    rs = niemeier_bundle("A2_12").root_system
    moved, uinv, moved_sigma = change_basis(
        rs.lattice, sigma.matrix, sigma.order, random_unimodular(24, random.Random(14)))
    moved_roots = (IntMatrix.from_rows(rs.roots) @ uinv).entries
    moved_rs = build_root_system(moved, moved_roots)
    assert classify(moved_rs) == classify(rs)
    assert sorted(len(c.roots) for c in moved_rs.components) == [6] * 12
    assert orbit_count(moved_rs, moved_sigma) == orbit_count(rs, sigma)


def test_glued_route_shares_short_vectors_across_equal_blocks(monkeypatch):
    # A2^3 glued by the diagonal class (1, 1, 1) is E6: the glue vector has
    # norm 3 * 2/3 = 2, so both nonzero cosets carry 27 roots each.
    a2 = Lattice(A2_GRAM)
    q = direct_sum([a2, a2, a2])
    ext = glue_extend(q, RatMatrix(IntMatrix.from_rows([[2, 1] * 3]), 3))
    assert ext.index == 3
    words = [(0,) * 6, (2, 1) * 3, (1, 2) * 3]  # 0, g, 2g mod 1, over d = 3
    calls = []
    original = roots_module._short_vectors

    def counting(l, bound, shift=None, d=1):
        calls.append(shift)
        return original(l, bound, shift, d)

    monkeypatch.setattr(roots_module, "_short_vectors", counting)
    vectors = glued_root_vectors([a2] * 3, ext, words, 3)
    monkeypatch.undo()
    # One enumeration per (Gram, shift): three blocks share each shift.
    assert len(calls) == 3
    direct = enumerate_roots(ext.lattice)
    assert classify(direct) == (("E", 6),)
    assert sorted(vectors) == sorted(direct.roots)
    for seed in (1, 2):
        shuffled = list(words)
        random.Random(seed).shuffle(shuffled)
        again = glued_root_vectors([a2] * 3, ext, shuffled, 3)
        assert sorted(again) == sorted(vectors)
    assert classify(build_root_system(ext.lattice, vectors)) == (("E", 6),)


def test_glued_route_keeps_blocks_with_different_grams_apart():
    # Two bases of A2 with the same rank: the zero word gives both blocks
    # the shift 0, but their short vectors differ.
    flipped = Lattice(IntMatrix.from_rows([[2, 1], [1, 2]]))
    parts = [Lattice(A2_GRAM), flipped]
    ext = glue_extend(direct_sum(parts), RatMatrix(IntMatrix(0, 4, ())))
    vectors = glued_root_vectors(parts, ext, [(0,) * 4], 1)
    direct = enumerate_roots(ext.lattice)
    assert sorted(vectors) == sorted(direct.roots)
    assert classify(build_root_system(ext.lattice, vectors)) == (("A", 2), ("A", 2))


def test_glued_route_rejects_parts_short_of_the_rank():
    # One A2 summand for a glued lattice of rank 4: the blocks would not
    # cover the coordinates of the words.
    a2 = Lattice(A2_GRAM)
    ext = glue_extend(direct_sum([a2, a2]), RatMatrix(IntMatrix(0, 4, ())))
    with pytest.raises(RootsError, match="^the parts' ranks sum to 2, not the rank 4$"):
        glued_root_vectors([a2], ext, [(0,) * 4], 1)


def test_glued_route_rejects_a_zero_denominator():
    a2 = Lattice(A2_GRAM)
    ext = glue_extend(direct_sum([a2, a2]), RatMatrix(IntMatrix(0, 4, ())))
    with pytest.raises(RootsError, match="rank-length rows over a positive d$"):
        glued_root_vectors([a2, a2], ext, [(0,) * 4], 0)


def reference_short_vectors(gram, bound, center):
    """All integer x with Q(x + center) <= bound, with exact norms, over
    Fractions: Q completed to weighted squares by a Fraction LDL^T, and each
    coordinate's interval grown outward from the nearest integer.  None when
    a pivot is not positive (the form is not positive definite)."""
    n = len(gram)
    a = [list(row) for row in gram]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return None
        d.append(a[k][k])
        for j in range(k + 1, n):
            u[k][j] = a[k][j] / a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * u[k][j]
    out = []
    x = [0] * n

    def descend(i, remaining):
        if i < 0:
            out.append((tuple(x), bound - remaining))
            return
        c = center[i] + sum((u[i][j] * (x[j] + center[j]) for j in range(i + 1, n)),
                            Fraction(0))
        near = floor(Fraction(1, 2) - c)  # the integer nearest -c
        for step in (1, -1):
            xi = near if step == 1 else near - 1
            while d[i] * (xi + c) ** 2 <= remaining:
                x[i] = xi
                descend(i - 1, remaining - d[i] * (xi + c) ** 2)
                xi += step

    if bound >= 0:
        descend(n - 1, bound)
    return sorted(out)


@st.composite
def short_vector_cases(draw):
    """(gram, shift, d, bound): three in four Grams are A A^T + I, the rest
    any symmetric integer form; shifts over d up to 6, so centre
    coordinates have mixed denominators; half the bounds are 0 or below 0,
    the rest up to 3 in norm units."""
    n = draw(st.integers(1, 4))
    small = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    a = draw(small)
    if draw(st.sampled_from((True, True, False, True))):
        g = [[sum(p * q for p, q in zip(a[i], a[j])) + (i == j) for j in range(n)]
             for i in range(n)]
    else:
        g = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    gram = IntMatrix.from_rows(g)
    d = draw(st.integers(1, 6))
    shift = tuple(draw(st.lists(st.integers(-2 * d, 2 * d), min_size=n, max_size=n)))
    unit = d * d
    bound = draw(st.sampled_from((None, None, None, 0, -1, -unit)))
    if bound is None:
        bound = draw(st.integers(1, 3 * unit))
    return gram, shift, d, bound


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(short_vector_cases())
# The rank-0 lattice: its one vector () of norm 0 is in at bound 2, not at -1.
@example((IntMatrix(0, 0, ()), (), 1, 2))
@example((IntMatrix(0, 0, ()), (), 1, -1))
def test_short_vectors_match_fraction_reference(case):
    gram, shift, d, bound = case
    unit = d * d
    rows = [[Fraction(e) for e in row] for row in gram.entries]
    want = reference_short_vectors(rows, Fraction(bound, unit), [Fraction(t, d) for t in shift])
    if want is None:
        with pytest.raises(LatticeError, match="not positive definite"):
            Lattice(gram)
        return
    lat = Lattice(gram)
    got = _short_vectors(lat, bound, shift, d)
    assert all(type(norm) is int for _, norm in got)
    assert [(x, Fraction(norm, unit)) for x, norm in got] == want
    # No shift is the origin; the zero vector is in whenever the bound is.
    origin = _short_vectors(lat, bound)
    assert [(x, Fraction(norm)) for x, norm in origin] == \
        reference_short_vectors(rows, Fraction(bound), [0] * gram.rows)
    assert (((0,) * gram.rows, 0) in origin) is (bound >= 0)
