"""Named constructions: root lattices with their dual classes, four specific
rank-24 even unimodular lattices, and six order-3 isometries of them.

Every construction is verified while it is built: component isometries must
preserve their Gram form with the stated order, glue vectors must pair
integrally, the glued lattices must come out even and unimodular with the
expected root systems, and each assembled isometry must stabilize its
lattice.  A failed check, such as a wrong glue word in the table causes,
aborts the construction; nothing is returned on trust.  What is stated
about the constructions, and what their reports must reproduce, is in the
one table ``CONSTRUCTIONS`` (module ``constructions``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Sequence

from .constructions import CONSTRUCTIONS
from .exactmat import IntMatrix, NoSolution, RatMatrix, Rational, block_diagonal, solve_exact
from .lattice import (
    GlueError,
    GlueExtension,
    Isometry,
    Lattice,
    direct_sum,
    glue_extend,
    is_even_unimodular,
)
from .roots import (
    RootSystem,
    basis_highest_root,
    build_root_system,
    classify,
    enumerate_roots,
    glued_root_vectors,
    reflection,
)
from .terncode import golay_code, residue_perm


class CatalogError(Exception):
    """A named construction failed one of its build-time checks."""


class StabilizationError(CatalogError):
    """An assembled map sent a lattice basis vector outside the lattice."""


class RootLatticeData(NamedTuple):
    """A root lattice together with representatives of its dual classes.

    Row ell of ``glue`` represents dual class ell (0 is the trivial class):
    the coordinates, in the lattice basis, of an element of the dual, all
    rows over the one denominator ``glue.den``.  The rows of ``ambient``
    are the basis vectors in the coordinates the lattice is stated in.
    """

    lattice: Lattice
    glue: RatMatrix
    ambient: IntMatrix


def _dynkin_lattice(family: str, rank: int, edges: Sequence[tuple[int, int]]) -> Lattice:
    """The lattice whose basis is simple roots of norm 2 pairing to -1
    along the Dynkin diagram ``edges`` and to 0 otherwise."""
    linked = {*edges, *((j, i) for i, j in edges)}
    return Lattice(IntMatrix.from_rows(
        [[2 if i == j else -((i, j) in linked) for j in range(rank)] for i in range(rank)]),
        name=f"{family}{rank}")


@lru_cache(maxsize=None)
def build_root_lattice(family: str, rank: int) -> RootLatticeData:
    """A root lattice of the given type with its dual-class representatives.

    Supported types: A with any positive rank (difference vectors in the
    rank+1 coordinate ambient space), D of rank 4 (in four coordinates),
    and E of rank 6 (stated in its own basis of simple roots).  A dual class
    v is stated over one den, and den v = x amb for an integer x.
    """
    if family == "A" and rank >= 1:
        n = rank
        amb = IntMatrix.from_rows([[1 if j == i else (-1 if j == i + 1 else 0)
                                    for j in range(n + 1)] for i in range(n)])
        glue = [[Fraction(ell, n + 1)] * (n + 1 - ell) + [Fraction(ell - n - 1, n + 1)] * ell
                for ell in range(n + 1)]
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D" and rank == 4:
        amb = IntMatrix.from_rows([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
        half = Fraction(1, 2)
        glue = [[0, 0, 0, 0], [half, half, half, half], [0, 0, 0, 1], [half, half, half, -half]]
        edges = [(0, 1), (1, 2), (1, 3)]
    elif family == "E" and rank == 6:
        amb = IntMatrix.identity(6)
        third = Fraction(1, 3)
        rep = (third, -third, 0, third, -third, 0)
        glue = [(0,) * 6, rep, [-e for e in rep]]
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    else:
        raise CatalogError(f"unsupported root lattice {family}{rank}")
    v = RatMatrix.from_rows(glue)
    x = solve_exact(amb, IntMatrix(v.rows, v.cols, v.num))
    return RootLatticeData(_dynkin_lattice(family, rank, edges),
                           RatMatrix(x.rows, x.cols, x.entries, v.den), amb)


def _auto_from_ambient(data: RootLatticeData,
                       ambient_images: Sequence[Sequence[Rational]],
                       name: str) -> Isometry:
    """Convert an ambient-coordinate map to basis coordinates and verify it:
    the basis rows' images, numerators over den, are x amb for x integral."""
    amb = data.ambient
    images = amb.to_rat() @ RatMatrix.from_rows(ambient_images)
    try:
        m = solve_exact(amb.scale(images.den), IntMatrix(images.rows, images.cols, images.num))
    except NoSolution:
        raise CatalogError(f"{name} does not preserve the lattice") from None
    return Isometry.create(data.lattice, m, 3)


@lru_cache(maxsize=None)
def build_component_auto(name: str) -> Isometry:
    """One of the six verified order-3 component isometries.

    cycle_A2: cyclic shift of the three ambient coordinates (fixed rank 0).
    rotation_D4: the fixed-point-free rotation sending the first unit
        vector to half of (-1,1,1,1); cycles the three nonzero dual classes.
    triality_D4: the diagram rotation permuting the three outer nodes
        (fixed rank 2); also cycles the three nonzero dual classes.
    coord_cycle_D4: cyclic shift of the first three ambient coordinates
        (fixed rank 2); fixes every dual class.
    coord_cycle_A5: simultaneous 3-cycles on ambient coordinates
        (0,1,2) and (3,4,5) (fixed rank 1); fixes every dual class.
    reflection_product_E6: product of the six reflections in the simple
        roots other than the branch tail and in the highest root, applied
        highest-root-first (fixed rank 0); fixes every dual class.
    """
    half = Fraction(1, 2)
    if name == "cycle_A2":
        data = build_root_lattice("A", 2)
        return _auto_from_ambient(data, [(0, 0, 1), (1, 0, 0), (0, 1, 0)], name)
    if name == "rotation_D4":
        data = build_root_lattice("D", 4)
        images = [
            [-half, half, half, half],
            [-half, -half, half, -half],
            [-half, -half, -half, half],
            [-half, half, -half, -half],
        ]
        return _auto_from_ambient(data, images, name)
    if name == "triality_D4":
        data = build_root_lattice("D", 4)
        m = IntMatrix.from_rows([
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ])
        return Isometry.create(data.lattice, m, 3)
    if name == "coord_cycle_D4":
        data = build_root_lattice("D", 4)
        images = [(0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
        return _auto_from_ambient(data, images, name)
    if name == "coord_cycle_A5":
        data = build_root_lattice("A", 5)
        perm = {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3}
        images = [[int(j == perm[i]) for j in range(6)] for i in range(6)]
        return _auto_from_ambient(data, images, name)
    if name == "reflection_product_E6":
        data = build_root_lattice("E", 6)
        l = data.lattice
        rs = enumerate_roots(l)
        top = basis_highest_root(l, rs.roots)
        m = reflection(l, top).matrix
        simple = IntMatrix.identity(l.rank).entries
        for i in (5, 4, 3, 1, 0):
            m = m @ reflection(l, simple[i]).matrix
        return Isometry.create(l, m, 3)
    raise CatalogError(f"unknown component isometry {name!r}")


def glue_class_image(auto: Isometry, data: RootLatticeData,
                     ell: int) -> int:
    """Which dual class the isometry sends class ell to: the class whose
    residue row matches the image's modulo the glue denominator."""
    glue = data.glue
    image = (IntMatrix.from_rows([glue.num[ell]]) @ auto.matrix).entries[0]
    for m, rep in enumerate(glue.num):
        if all((a - b) % glue.den == 0 for a, b in zip(image, rep)):
            return m
    raise CatalogError("image is not in any dual class")


class NiemeierBundle(NamedTuple):
    """A verified glued lattice with everything needed to work on it; glue
    coset r (a ``glue_group`` row) is r / ``glue_den`` in base coordinates,
    and row i of ``ambient`` is base basis vector i in the coordinates its
    root lattice is stated in."""

    base: Lattice
    ambient: IntMatrix
    extension: GlueExtension
    glue_group: tuple[tuple[int, ...], ...]
    glue_den: int
    root_system: RootSystem
    description: str

    @property
    def lattice(self) -> Lattice:
        return self.extension.lattice


def _glue_words(base: Lattice, part_data: tuple[RootLatticeData, ...],
                words: tuple[str, ...] | None) -> RatMatrix:
    """The glue generators, one row of base coordinates per word: each
    word's dual-class rows, scaled to the lcm of the parts' denominators."""
    if words is None:
        rows = [tuple(row) for row in golay_code().basis]
    else:
        rows = [tuple(int(ch) for ch in word) for word in words]
    den = lcm(*(data.glue.den for data in part_data))
    generators = []
    for row in rows:
        if len(row) != len(part_data):
            raise CatalogError(f"glue word {row} has wrong block count")
        coords: list[int] = []
        for digit, data in zip(row, part_data):
            if digit not in range(data.glue.rows):
                raise CatalogError(f"glue digit {digit} has no dual class")
            coords.extend(e * (den // data.glue.den) for e in data.glue.num[digit])
        generators.append(tuple(coords))
    return RatMatrix(len(generators), base.rank, tuple(generators), den)


def _close_glue_group(words: RatMatrix) -> tuple[int, tuple]:
    """(den, residues): all distinct cosets the glue rows generate, reduced
    mod 1, as sorted integer residue rows modulo the glue denominator den."""
    den = words.den
    group = [(0,) * words.cols]
    # With group a subgroup H, the layers H + g, H + 2g, ... are new cosets
    # until j g falls back into H, so each coset is formed once.
    for g in words.num:
        members, step, layers = set(group), tuple(e % den for e in g), []
        while step not in members:
            layers += [tuple((a + b) % den for a, b in zip(h, step)) for h in group]
            step = tuple((a + b) % den for a, b in zip(step, g))
        group += layers
    return den, tuple(sorted(group))


def construct_niemeier(key: str) -> NiemeierBundle:
    """Build and fully verify one of the four glued rank-24 lattices: a
    wrong glue word in the table raises ``CatalogError`` rather than
    returning a bundle."""
    if key not in CONSTRUCTIONS["lattices"]:
        raise CatalogError(f"unknown lattice key {key!r}")
    spec = CONSTRUCTIONS["lattices"][key]
    part_data = tuple(build_root_lattice(f, r) for f, r in spec["parts"])
    base = direct_sum([d.lattice for d in part_data], name=f"{key}:base")
    words = _glue_words(base, part_data, spec["words"])
    failed = CatalogError(f"{key}: lattice is not even unimodular of rank 24")
    try:
        ext = glue_extend(base, words, name=key)
    except GlueError as exc:  # dual-class words pair integrally: a non-integral glue
        raise failed from exc
    if ext.index != spec["index"]:
        raise CatalogError(
            f"{key}: glue index {ext.index}, expected {spec['index']}")
    even, unimodular = is_even_unimodular(ext.lattice)
    if not (even and unimodular and ext.lattice.rank == 24):
        raise failed
    den, group = _close_glue_group(words)
    if len(group) != spec["index"]:
        raise CatalogError(
            f"{key}: glue group has {len(group)} cosets, expected {spec['index']}")
    vectors = glued_root_vectors(base, ext, group, den)
    rs = build_root_system(ext.lattice, vectors)
    if classify(rs) != tuple(sorted(spec["parts"])) or rs.count != spec["root_count"]:
        raise CatalogError(f"{key}: root system mismatch")
    ambient = block_diagonal([d.ambient for d in part_data])
    return NiemeierBundle(base, ambient, ext, group, den, rs, spec["description"])


@lru_cache(maxsize=None)
def niemeier_bundle(key: str) -> NiemeierBundle:
    return construct_niemeier(key)


def _block_assignments(key: str) -> list[tuple[int, IntMatrix]]:
    """Per source block: (target block, component matrix applied en route)."""
    rot = build_component_auto("rotation_D4").matrix
    if key == "sigma1":
        perm = residue_perm()
        cyc = build_component_auto("cycle_A2").matrix
        eye = IntMatrix.identity(2)
        turned = {0, 5, 8}  # positions of the three indices fixed by the shuffle
        return [(perm(p), cyc if p in turned else eye) for p in range(12)]
    if key == "sigma2":
        return [(i, rot) for i in range(6)]
    if key == "sigma3":
        tri = build_component_auto("triality_D4").matrix
        return [(i, rot if i < 3 else tri) for i in range(6)]
    if key == "sigma4":
        psi = build_component_auto("coord_cycle_D4").matrix
        rot2 = rot @ rot
        eye = IntMatrix.identity(4)
        return [(0, psi), (1, rot), (2, rot2), (4, rot2), (5, rot), (3, eye)]
    if key == "sigma5":
        psi = build_component_auto("coord_cycle_A5").matrix
        eye5 = IntMatrix.identity(5)
        return [(0, psi), (2, eye5), (3, eye5), (1, eye5),
                (4, build_component_auto("rotation_D4").matrix)]
    if key == "sigma6":
        phi = build_component_auto("reflection_product_E6").matrix
        eye6 = IntMatrix.identity(6)
        return [(0, phi), (2, eye6), (3, eye6), (1, eye6)]
    raise CatalogError(f"unknown isometry key {key!r}")


def assemble_block_isometry(bundle: NiemeierBundle,
                            assignments: Sequence[tuple[int, IntMatrix]],
                            name: str) -> Isometry:
    """Glue per-block maps into one order-3 isometry of the extended lattice.

    ``assignments[src] = (dst, m)`` sends the contents of block ``src``
    through ``m`` into block ``dst``.  The assembled map is conjugated into
    the glued basis and must keep every basis vector inside the lattice;
    the first violating image is reported otherwise.
    """
    base = bundle.base
    blocks = base.blocks
    if sorted(dst for dst, _ in assignments) != list(range(len(blocks))):
        raise CatalogError(f"{name}: block targets are not a permutation")
    if len(assignments) != len(blocks):
        raise CatalogError(f"{name}: block count mismatch")
    starts = [0, *itertools.accumulate(blocks)][:-1]
    entries = [[0] * base.rank for _ in range(base.rank)]
    for src, (dst, m) in enumerate(assignments):
        if blocks[src] != blocks[dst] or m.rows != blocks[src]:
            raise CatalogError(f"{name}: block size mismatch at {src}->{dst}")
        for i in range(m.rows):
            for j in range(m.cols):
                entries[starts[src] + i][starts[dst] + j] = m.entries[i][j]
    s = IntMatrix.from_rows(entries, cols=base.rank)
    ext = bundle.extension
    # B s B^-1, B numerators over den; the base rows B^-1 are integral and stored.
    b, den = ext.basis_in_base, ext.basis_in_base.den
    x = IntMatrix(b.rows, b.cols, b.num) @ s @ ext.base_in_lattice
    for k, row in enumerate(x.entries):
        if any(e % den for e in row):
            raise StabilizationError(
                f"{name}: image of basis vector {k} is outside the lattice: "
                f"{tuple(str(Fraction(e, den)) for e in row)}")
    return Isometry.create(bundle.lattice, IntMatrix(x.rows, x.cols, tuple(
        tuple(e // den for e in row) for row in x.entries)), 3)


@lru_cache(maxsize=None)
def build_sigma(key: str) -> Isometry:
    """Assemble, verify, and return one of the six order-3 isometries."""
    if key not in CONSTRUCTIONS["isometries"]:
        raise CatalogError(f"unknown isometry key {key!r}")
    bundle = niemeier_bundle(CONSTRUCTIONS["isometries"][key]["lattice"])
    return assemble_block_isometry(bundle, _block_assignments(key), key)

