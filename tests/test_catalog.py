"""Catalog constructions: root lattices, component isometries, the four
glued rank-24 lattices, and the six order-3 isometries."""

import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latorb import catalog, cli
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
from latorb.exactmat import IntMatrix, RatMatrix, block_diagonal, solve_exact
from latorb.lattice import (GlueError, Isometry, IsometryError, Lattice, direct_sum,
                            is_even_unimodular)
from latorb.roots import (RootsError, _short_vectors, basis_highest_root, classify,
                          enumerate_roots, orbit_count, reflection)
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
        assert all(c == 0 for c in data.glue.num.entries[0])
        # Each representative lies in the dual lattice (rep . G is integral)
        # and in the lattice itself only for the trivial class.
        den = data.glue.den
        pairings = data.glue.num @ data.lattice.gram
        for ell, (rep, paired) in enumerate(zip(data.glue.num.entries, pairings.entries)):
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
    e = b.num @ bundle.ambient
    assert e @ block_diagonal(forms) @ e.transpose() == bundle.lattice.gram.scale(b.den ** 2)
    assert (b @ RatMatrix(bundle.ambient)).entries == tuple(
        tuple(Fraction(x, b.den) for x in row) for row in e.entries)


def former_glue(family, rank):
    """The dual-class rows as stated before they were derived: ambient
    numerators over one den (A_n's closed form, D4's spinor and vector
    classes, E6's two classes), solved through the ambient rows."""
    if family == "A":
        n = rank
        rows, den = [[ell] * (n + 1 - ell) + [ell - n - 1] * ell for ell in range(n + 1)], n + 1
    elif family == "D":
        rows, den = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 2], [1, 1, 1, -1]], 2
    else:
        rep = [1, -1, 0, 1, -1, 0]
        rows, den = [[0] * 6, rep, [-e for e in rep]], 3
    return solve_exact(build_root_lattice(family, rank).ambient, IntMatrix.from_rows(rows)), den


ROOT_TYPES = [("A", n) for n in range(1, 11)] + [("D", 4), ("E", 6)]


@pytest.mark.parametrize("family, rank", ROOT_TYPES)
def test_derived_classes_are_the_former_stated_classes(family, rank):
    # Row ell of the weights read off C^-1 lies in the class row ell was
    # stated in, so the digits of every glue word keep their meaning.
    glue = build_root_lattice(family, rank).glue
    former, den = former_glue(family, rank)
    assert glue.rows == former.rows == build_root_lattice(family, rank).lattice.determinant()
    for new, old in zip(glue.num.entries, former.entries):
        assert all((a * den - b * glue.den) % (den * glue.den) == 0 for a, b in zip(new, old))
    # Pairwise distinct modulo L: together with the count, all of L*/L.
    for u, v in itertools.combinations(glue.num.entries, 2):
        assert any((a - b) % glue.den for a, b in zip(u, v))


def test_root_lattice_class_norms():
    # Each representative is a shortest vector of its coset of L in L*:
    # norm ell (n + 1 - ell) / (n + 1) for A_n, 1 for D4 and 4/3 for E6.
    for family, rank in [("A", n) for n in range(1, 9)] + [("D", 4), ("E", 6)]:
        data = build_root_lattice(family, rank)
        l, den = data.lattice, data.glue.den
        for ell in range(1, data.glue.rows):
            rep = data.glue.num.entries[ell]
            norm = l.inner(rep, rep)
            assert min(e for _, e in _short_vectors(l, norm, rep, den)) == norm
            expected = {"A": Fraction(ell * (rank + 1 - ell), rank + 1), "D": 1,
                        "E": Fraction(4, 3)}
            assert Fraction(norm, den ** 2) == expected[family]


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


def test_glue_class_image_rejects_an_image_in_no_class():
    # An unchecked map that kills the second simple root sends the weight
    # (2, 1)/3 of class 1 to (2, 0)/3, which no dual class of A2 holds.
    a2 = build_root_lattice("A", 2)
    flat = Isometry(a2.lattice, IntMatrix.from_rows([[1, 0], [0, 0]]), 3)
    with pytest.raises(CatalogError) as excinfo:
        glue_class_image(flat, a2, 1)
    assert str(excinfo.value) == "image is not in any dual class"


def from_ambient(data, images, den=1):
    """The basis matrix of a map given by the ambient images of the ambient
    unit vectors, numerators over den: the basis rows' images as x amb."""
    amb = data.ambient
    return solve_exact(amb.scale(den), amb @ IntMatrix.from_rows(images))


def former_component_matrix(name):
    """Each component map in the form it was stated in before its table
    row: four by ambient images, triality by its basis matrix, and E6's by
    its reflections, highest root first."""
    perm = {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3}
    images = {  # (type, numerators, den)
        "cycle_A2": (("A", 2), [(0, 0, 1), (1, 0, 0), (0, 1, 0)], 1),
        "rotation_D4": (("D", 4), [[-1, 1, 1, 1], [-1, -1, 1, -1],
                                   [-1, -1, -1, 1], [-1, 1, -1, -1]], 2),
        "coord_cycle_D4": (("D", 4), [(0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], 1),
        "coord_cycle_A5": (("A", 5), [[int(j == perm[i]) for j in range(6)] for i in range(6)], 1),
    }
    if name in images:
        (family, rank), rows, den = images[name]
        return from_ambient(build_root_lattice(family, rank), rows, den)
    if name == "triality_D4":
        return IntMatrix.from_rows([[0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    assert name == "reflection_product_E6"
    e6 = build_root_lattice("E", 6).lattice
    simple = IntMatrix.identity(6).entries
    m = reflection(e6, basis_highest_root(e6, enumerate_roots(e6).roots)).matrix
    for i in (5, 4, 3, 1, 0):
        m = m @ reflection(e6, simple[i]).matrix
    return m


COMPONENT_NAMES = ("cycle_A2", "rotation_D4", "triality_D4", "coord_cycle_D4",
                   "coord_cycle_A5", "reflection_product_E6")


@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_component_rows_reproduce_the_former_maps(name):
    assert build_component_auto(name).matrix == former_component_matrix(name)


def test_component_table_names_the_maps_the_isometries_use():
    used = {name for row in CONSTRUCTIONS["isometries"].values()
            for _, names in row["blocks"] for name in names}
    assert used == set(CONSTRUCTIONS["components"])


@pytest.fixture
def fresh_components():
    build_component_auto.cache_clear()
    yield
    build_component_auto.cache_clear()


# Component rows corrupted, and what building them says: one reflection is
# an involution, and swapping the D4 node 0 with the central node 1 is no
# diagram symmetry.
CORRUPTED_COMPONENTS = [
    ("cycle_A2", (("A", 2), None, (0,)), "order is 2, expected 3"),
    ("triality_D4", (("D", 4), (1, 0, 2, 3), ()), "matrix does not preserve the Gram form"),
]


@pytest.mark.parametrize("name,row,message", CORRUPTED_COMPONENTS)
def test_corrupted_component_row_rejected(monkeypatch, fresh_components, name, row, message):
    monkeypatch.setitem(CONSTRUCTIONS["components"], name, row)
    with pytest.raises(IsometryError, match=message):
        build_component_auto(name)


def test_highest_root_needs_a_simple_basis_and_a_dominant_root():
    l = Lattice(IntMatrix.from_rows([[4, -1], [-1, 2]]))
    with pytest.raises(RootsError, match="lattice basis is not a simple system"):
        basis_highest_root(l, enumerate_roots(l).roots)
    a1 = Lattice(IntMatrix.from_rows([[2]]))
    a1a1 = direct_sum([a1, a1])
    with pytest.raises(RootsError, match="no root dominates all others"):
        basis_highest_root(a1a1, enumerate_roots(a1a1).roots)


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_niemeier_lattices(key, capsys):
    index, root_count, classified = NIEMEIER_EXPECTED[key]
    bundle = niemeier_bundle(key)
    assert bundle.extension.index == index
    assert len(bundle.glue_group) == index
    assert bundle.lattice.rank == 24
    assert is_even_unimodular(bundle.lattice) == (True, True)
    assert bundle.root_system.count == root_count
    assert classify(bundle.root_system) == classified
    # What `lattice build` expects is derived, from the glue group and from
    # the type of the stated parts, and equals these numbers.
    assert cli.main(["lattice", "build", key, "--json"]) == cli.EXIT_OK
    expected = {row["name"]: row["expected"]
                for row in json.loads(capsys.readouterr().out)["checks"]}
    assert (expected[f"{key} glue index"], expected[f"{key} root count"]) == (index, root_count)


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
    back = bundle.extension.basis_in_base.num.entries
    for p in range(12):
        base_root = incl.entries[2 * p]  # first simple root of block p
        image = (IntMatrix.from_rows([base_root]) @ sigma.matrix).entries[0]
        q_coords = [
            sum(image[k] * back[k][j] for k in range(24))
            for j in range(24)
        ]
        support = {j // 2 for j, c in enumerate(q_coords) if c != 0}
        assert support == {perm.images[p]}


def test_bad_block_assignment_is_rejected():
    bundle = niemeier_bundle("D4_6")
    rot = build_component_auto("rotation_D4").matrix
    eye = IntMatrix.identity(4)
    assignments = [(0, rot)] + [(i, eye) for i in range(1, 6)]
    with pytest.raises(StabilizationError, match="outside the lattice"):
        assemble_block_isometry(bundle, assignments, "lopsided")


# sigma5's row of block maps, ((0, ("coord_cycle_A5",)), (2, ()), (3, ()),
# (1, ()), (4, ("rotation_D4",))), corrupted, and what assembling it says.
CORRUPTED_BLOCKS = [
    ({3: (2, ())}, "block targets are not a permutation"),
    ({4: (4, ("coord_cycle_A5",))}, "block size mismatch at 4->4"),
    ({5: (5, ())}, "6 block maps for 5 blocks"),
    ({4: (4, ("rotation_D5",))}, "unknown component isometry 'rotation_D5'"),
]


@pytest.mark.parametrize("changes,message", CORRUPTED_BLOCKS)
def test_corrupted_block_row_rejected(monkeypatch, changes, message):
    row = {**dict(enumerate(CONSTRUCTIONS["isometries"]["sigma5"]["blocks"])), **changes}
    monkeypatch.setitem(CONSTRUCTIONS["isometries"]["sigma5"], "blocks", tuple(row.values()))
    with pytest.raises(CatalogError, match=message):
        build_sigma.__wrapped__("sigma5")


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


# What the glue-code check finds, before any glued lattice is formed, in
# each corrupted table; the norms and products are of glue vectors.
GLUE_CODE_FAULTS = {
    "A2_12": "generator 0 has norm 14/3",
    "D4_6": "generators 0 and 1 pair to 7/2",
    "A5_4_D4": "generator 0 has norm 23/6",
    "E6_4": "generator 0 has norm 16/3",
}


@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_glue_code_check_rejects_a_corrupted_word(monkeypatch, key):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"][key], "words", corrupted_words(key))
    monkeypatch.setattr(catalog, "glue_extend", None)  # never reached
    with pytest.raises(CatalogError, match=f"^{key}: glue code is not isotropic: "
                                           f"{GLUE_CODE_FAULTS[key]}$"):
        construct_niemeier(key)


def test_glue_code_check_wants_even_norms(monkeypatch):
    # One D4 vector class glues D4 to Z^4, an odd lattice: norm 1.
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words", ("200000",))
    monkeypatch.setattr(catalog, "glue_extend", None)
    with pytest.raises(CatalogError, match="not isotropic: generator 0 has norm 1$"):
        construct_niemeier("D4_6")


def test_glue_code_check_counts_cosets(monkeypatch):
    # D4_6's words without the first are isotropic but glue only 32 cosets,
    # and 32^2 is not det(D4)^6 = 4096.
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words",
                        CONSTRUCTIONS["lattices"]["D4_6"]["words"][1:])
    monkeypatch.setattr(catalog, "glue_extend", None)
    with pytest.raises(CatalogError, match="has 32 cosets, but the blocks' determinants "
                                           "multiply to 4096, not 32"):
        construct_niemeier("D4_6")


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
    gens = RatMatrix(IntMatrix.from_rows(words, cols=n), d)
    den, group = gens.den, _close_glue_group(gens)
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


def test_non_integral_glue_fails_the_unimodular_check(monkeypatch):
    # The two D4 spinor classes pair to 1/2: past the glue-code check, the
    # glued lattice is not integral, and the glue step says so.
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words", ("100000", "300000"))
    monkeypatch.setattr(catalog, "_check_glue_code", lambda *args: None)
    with pytest.raises(CatalogError, match="^D4_6: lattice is not even unimodular "
                                           "of rank 24$") as caught:
        construct_niemeier("D4_6")
    assert isinstance(caught.value.__cause__, GlueError)
    assert str(caught.value.__cause__) == "glued lattice is not integral"


# A stated lattice value changed, and what the build says.  E6_4's last
# block as A2: the class-2 vector of A2 has norm 2/3, so "1012" has norm
# 4/3 + 4/3 + 2/3.  A2_12 glued by the diagonal class of each block triple,
# which makes the triple an E6, and by two words that glue the four E6s: the
# lattice is even and unimodular, but its roots are those of E6^4.
WRONG_STATED_VALUES = [
    pytest.param("E6_4", "parts", (("E", 6),) * 3 + (("A", 2),),
                 "glue code is not isotropic: generator 0 has norm 10/3", id="E6_4-last-block-A2"),
    pytest.param("A2_12", "words", ("111000000000", "000111000000", "000000111000",
                                    "000000000111", "012000012021", "012012021000"),
                 "root system mismatch", id="A2_12-glued-to-E6^4"),
]


@pytest.mark.parametrize("key,field,value,message", WRONG_STATED_VALUES)
def test_wrong_stated_value_rejected(monkeypatch, key, field, value, message):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"][key], field, value)
    with pytest.raises(CatalogError, match=f"^{key}: {message}$"):
        construct_niemeier(key)


def test_non_unimodular_glued_lattice_rejected(monkeypatch):
    monkeypatch.setattr(catalog, "is_even_unimodular", lambda l: (True, False))
    with pytest.raises(CatalogError, match="^E6_4: lattice is not even unimodular of rank 24$"):
        construct_niemeier("E6_4")


def test_glue_group_short_of_the_index_rejected(monkeypatch):
    closed = catalog._close_glue_group
    monkeypatch.setattr(catalog, "_close_glue_group", lambda words: closed(words)[:-1])
    monkeypatch.setattr(catalog, "_check_glue_code", lambda *args: None)
    with pytest.raises(CatalogError, match="^E6_4: the glue index is 9 but the group has "
                                           "8 cosets$"):
        construct_niemeier("E6_4")
