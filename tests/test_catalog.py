"""Catalog constructions: root lattices, component isometries, the four
glued rank-24 lattices, and the six order-3 isometries."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latorb.catalog import (
    CatalogError,
    StabilizationError,
    assemble_block_isometry,
    build_component_auto,
    build_root_lattice,
    build_sigma,
    construct_niemeier,
    glue_class_image,
    niemeier_bundle,
    _close_glue_group,
)
from latorb.constructions import CONSTRUCTIONS, LATTICE_KEYS, SIGMA_KEYS
from latorb.exactmat import IntMatrix, RatMatrix, block_diagonal
from latorb.lattice import is_even_unimodular
from latorb.roots import classify, orbit_count
from latorb.terncode import golay_code, residue_perm

NIEMEIER_EXPECTED = {
    "A2_12": (729, 72, (("A", 2),) * 12),
    "D4_6": (64, 144, (("D", 4),) * 6),
    "A5_4_D4": (72, 144, (("A", 5),) * 4 + (("D", 4),)),
    "E6_4": (9, 288, (("E", 6),) * 4),
}

SIGMA_EXPECTED = {
    # key: (fixed rank, root orbits, fixed roots)
    "sigma1": (6, 24, 0),
    "sigma2": (0, 48, 0),
    "sigma3": (6, 60, 18),
    "sigma4": (6, 48, 0),
    "sigma5": (6, 48, 0),
    "sigma6": (6, 96, 0),
}


def test_root_lattice_determinants_and_classes():
    cases = {
        ("A", 2): (3, 3),
        ("A", 5): (6, 6),
        ("D", 4): (4, 4),
        ("E", 6): (3, 3),
    }
    for (family, rank), (det, n_classes) in cases.items():
        data = build_root_lattice(family, rank)
        assert data.lattice.determinant() == det
        assert data.glue.rows == n_classes
        assert all(c == 0 for c in data.glue.num[0])
        # Each representative lies in the dual lattice (rep . G is integral)
        # and in the lattice itself only for the trivial class.
        den = data.glue.den
        pairings = IntMatrix.from_rows(data.glue.num) @ data.lattice.gram
        for ell, (rep, paired) in enumerate(zip(data.glue.num, pairings.entries)):
            assert all(e % den == 0 for e in paired)
            assert all(e % den == 0 for e in rep) == (ell == 0)


def test_root_lattice_ambient_rows_reproduce_the_gram():
    # The A and D lattices are stated by Gram matrix and by ambient rows
    # apart; the rows must pair to the Gram under the standard form.
    for family, rank in (("A", 1), ("A", 2), ("A", 5), ("D", 4)):
        data = build_root_lattice(family, rank)
        assert data.ambient.rows == rank
        assert data.ambient @ data.ambient.transpose() == data.lattice.gram


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_glued_basis_in_ambient_coordinates_reproduces_the_gram(key):
    # E = B A is the glued basis in the coordinates `lattice build` prints;
    # under F, the identity on A and D blocks and the E6 Gram on E6 blocks
    # (whose ambient rows are the identity), E F E^T is the glued Gram.  B is
    # numerators over den, so E is too, and the numerators give den^2 times it.
    bundle = niemeier_bundle(key)
    forms = []
    for family, rank in CONSTRUCTIONS["lattices"][key]["parts"]:
        data = build_root_lattice(family, rank)
        forms.append(data.lattice.gram if family == "E" else IntMatrix.identity(data.ambient.cols))
    b = bundle.extension.basis_in_base
    e = IntMatrix.from_rows(b.num) @ bundle.ambient
    assert e @ block_diagonal(forms) @ e.transpose() == bundle.lattice.gram.scale(b.den ** 2)
    assert (b @ bundle.ambient.to_rat()).entries == tuple(
        tuple(Fraction(x, b.den) for x in row) for row in e.entries)


def class_norm(data, ell):
    rep = data.glue.num[ell]
    return Fraction(data.lattice.inner(rep, rep), data.glue.den ** 2)


def test_root_lattice_class_norms():
    a2 = build_root_lattice("A", 2)
    assert class_norm(a2, 1) == Fraction(2, 3)
    assert class_norm(a2, 2) == Fraction(2, 3)
    d4 = build_root_lattice("D", 4)
    assert [class_norm(d4, ell) for ell in (1, 2, 3)] == [1, 1, 1]
    e6 = build_root_lattice("E", 6)
    assert class_norm(e6, 1) == Fraction(4, 3)
    a5 = build_root_lattice("A", 5)
    assert class_norm(a5, 3) == Fraction(3, 2)


def test_unsupported_root_lattice():
    with pytest.raises(CatalogError):
        build_root_lattice("D", 5)
    with pytest.raises(CatalogError):
        build_root_lattice("F", 4)


def test_component_isometry_orders_and_fixed_ranks():
    expected = {
        "cycle_A2": 0,
        "rotation_D4": 0,
        "triality_D4": 2,
        "coord_cycle_D4": 2,
        "coord_cycle_A5": 1,
        "reflection_product_E6": 0,
    }
    for name, fixed in expected.items():
        auto = build_component_auto(name)
        assert auto.order == 3
        assert auto.fixed_rank == fixed


def test_rotation_and_triality_cycle_dual_classes():
    d4 = build_root_lattice("D", 4)
    for name in ("rotation_D4", "triality_D4"):
        auto = build_component_auto(name)
        assert [glue_class_image(auto, d4, ell) for ell in (1, 2, 3)] == [2, 3, 1]


def test_coordinate_cycles_fix_dual_classes():
    cases = [
        ("cycle_A2", ("A", 2)),
        ("coord_cycle_D4", ("D", 4)),
        ("coord_cycle_A5", ("A", 5)),
        ("reflection_product_E6", ("E", 6)),
    ]
    for name, (family, rank) in cases:
        data = build_root_lattice(family, rank)
        auto = build_component_auto(name)
        for ell in range(data.glue.rows):
            assert glue_class_image(auto, data, ell) == ell


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_niemeier_lattices(key):
    index, root_count, classified = NIEMEIER_EXPECTED[key]
    bundle = niemeier_bundle(key)
    assert bundle.extension.index == index
    assert len(bundle.glue_group) == index
    assert bundle.lattice.rank == 24
    assert is_even_unimodular(bundle.lattice) == (True, True)
    assert bundle.root_system.count == root_count
    assert classify(bundle.root_system) == classified


def test_unknown_keys_rejected():
    with pytest.raises(CatalogError):
        construct_niemeier("E8_3")
    with pytest.raises(CatalogError):
        build_sigma("sigma7")


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_sigma_isometries(key):
    fixed, orbits, fixed_roots = SIGMA_EXPECTED[key]
    sigma = build_sigma(key)
    bundle = niemeier_bundle(CONSTRUCTIONS["isometries"][key]["lattice"])
    assert sigma.lattice == bundle.lattice
    assert sigma.order == 3
    assert sigma.fixed_rank == fixed
    assert orbit_count(bundle.root_system, sigma) == (orbits, fixed_roots)


def test_block_shuffle_follows_code_permutation():
    # The first isometry must shuffle the twelve planes exactly the way the
    # digit permutation shuffles code positions.
    bundle = niemeier_bundle("A2_12")
    sigma = build_sigma("sigma1")
    perm = residue_perm()
    incl = bundle.extension.base_in_lattice
    # The glued basis in base coordinates, as numerators over one
    # denominator; the support of a row does not depend on the denominator.
    back = bundle.extension.basis_in_base.num
    for p in range(12):
        base_root = incl.entries[2 * p]  # first simple root of block p
        image = (IntMatrix.from_rows([base_root]) @ sigma.matrix).entries[0]
        q_coords = [
            sum(image[k] * back[k][j] for k in range(24))
            for j in range(24)
        ]
        support = {j // 2 for j, c in enumerate(q_coords) if c != 0}
        assert support == {perm(p)}


def test_bad_block_assignment_is_rejected():
    bundle = niemeier_bundle("D4_6")
    rot = build_component_auto("rotation_D4").matrix
    eye = IntMatrix.identity(4)
    assignments = [(0, rot)] + [(i, eye) for i in range(1, 6)]
    with pytest.raises(StabilizationError, match="outside the lattice"):
        assemble_block_isometry(bundle, assignments, "lopsided")


# A word of D4_6 with five digits for its six blocks, and one with the
# digit 4, where D4 has only the dual classes 0 to 3.
MALFORMED_WORDS = [("11111", "wrong block count"), ("411111", "has no dual class")]


@pytest.mark.parametrize("word,message", MALFORMED_WORDS)
def test_malformed_glue_word_rejected(monkeypatch, word, message):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words", (word,))
    with pytest.raises(CatalogError, match=message):
        construct_niemeier("D4_6")


def corrupted_words(key: str) -> tuple[str, ...]:
    """The glue words of a lattice (the Golay basis as digit strings for
    A2_12) with the second digit of the first word bumped to the next
    dual class."""
    spec = CONSTRUCTIONS["lattices"][key]
    words = spec["words"] or tuple("".join(map(str, row)) for row in golay_code().basis)
    classes = build_root_lattice(*spec["parts"][1]).glue.rows
    first = words[0]
    return (first[0] + str((int(first[1]) + 1) % classes) + first[2:], *words[1:])


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_corrupted_generator_rejected(monkeypatch, key):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"][key], "words", corrupted_words(key))
    with pytest.raises(CatalogError):
        construct_niemeier(key)


def test_catalog_listing():
    assert LATTICE_KEYS == ("A2_12", "D4_6", "A5_4_D4", "E6_4")
    assert SIGMA_KEYS == tuple(f"sigma{i}" for i in range(1, 7))
    assert all(row["description"] for row in CONSTRUCTIONS["lattices"].values())
    assert {key: row["lattice"] for key, row in CONSTRUCTIONS["isometries"].items()} == {
        "sigma1": "A2_12",
        "sigma2": "D4_6",
        "sigma3": "D4_6",
        "sigma4": "D4_6",
        "sigma5": "A5_4_D4",
        "sigma6": "E6_4",
    }


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(1, 9), st.data())
def test_glue_closure_matches_breadth_first_reference(n, d, data):
    """The layered closure against a breadth-first one, on random generator
    sets in (Z/d)^n: the same denominator and the same sorted residues."""
    words = data.draw(st.lists(st.lists(st.integers(0, 2 * d), min_size=n, max_size=n),
                               max_size=4))
    gens = RatMatrix.from_rows([[Fraction(e, d) for e in w] for w in words], cols=n)
    den, group = _close_glue_group(gens)
    assert den == lcm(*(Fraction(e, d).denominator for w in words for e in w))
    steps = [tuple(int(Fraction(e, d) * den) % den for e in w) for w in words]
    seen, frontier = {(0,) * n}, [(0,) * n]
    while frontier:
        cur = frontier.pop()
        for g in steps:
            nxt = tuple((a + b) % den for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert group == tuple(sorted(seen))
