"""Named constructions: root lattices with their dual classes, four specific
rank-24 even unimodular lattices, and six order-3 isometries of them.

Every construction is verified while it is built: component isometries must
preserve their Gram form with the stated order, the glue code must be
isotropic of the right order, glue vectors must pair integrally, the glued
lattices must come out even and unimodular with the expected root
systems, and each assembled isometry must stabilize its lattice.  A failed
check, such as a wrong glue word in the table causes, aborts the
construction; nothing is returned on trust.  Dual classes are computed,
rows of the inverse Cartan matrix; what is stated about the constructions
(each component map as one reflection word, each isometry as one row of
block maps), and what their reports must reproduce, is in the one table
``CONSTRUCTIONS``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import matmul
from typing import NamedTuple, Sequence

from .constructions import CONSTRUCTIONS
from .exactmat import IntMatrix, RatMatrix, _im, block_diagonal, solve_exact
from .lattice import (
    GlueError,
    GlueExtension,
    Isometry,
    Lattice,
    direct_sum,
    glue_extend,
    is_even_unimodular,
    rat_str,
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
from .terncode import golay_code, residue_sums


class CatalogError(Exception):
    """A named construction failed one of its build-time checks."""


class StabilizationError(CatalogError):
    """An assembled map sent a lattice basis vector outside the lattice."""


class RootLatticeData(NamedTuple):
    """A root lattice together with representatives of its dual classes.

    Row ell of ``glue`` represents dual class ell (0 is the trivial class):
    the fundamental weight of a minuscule node, a shortest vector of its
    class, in the lattice basis over the one denominator ``glue.den``
    (``det C``, reduced).  The rows of ``ambient``
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
    and E of rank 6 (stated in its own basis of simple roots).  Class ell
    of A_n is the fundamental weight of node n - ell (0-based); the nonzero
    classes of D4 and E6 are those of the listed minuscule nodes.  Each
    weight is a row of the inverse Cartan matrix, solved over det C.
    """
    if family == "A" and rank >= 1:
        amb = IntMatrix.from_rows([[1 if j == i else (-1 if j == i + 1 else 0)
                                    for j in range(rank + 1)] for i in range(rank)])
        edges, nodes = [(i, i + 1) for i in range(rank - 1)], range(rank - 1, -1, -1)
    elif family == "D" and rank == 4:
        amb = IntMatrix.from_rows([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
        edges, nodes = [(0, 1), (1, 2), (1, 3)], (3, 0, 2)
    elif family == "E" and rank == 6:
        amb = IntMatrix.identity(6)
        edges, nodes = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)], (0, 4)
    else:
        raise CatalogError(f"unsupported root lattice {family}{rank}")
    l = _dynkin_lattice(family, rank, edges)
    d = l.determinant()
    weights = solve_exact(l.gram, IntMatrix.identity(rank).scale(d)).entries
    glue = IntMatrix.from_rows([[0] * rank, *(weights[i] for i in nodes)])
    return RootLatticeData(l, RatMatrix(glue, d), amb)


@lru_cache(maxsize=None)
def build_component_auto(name: str) -> Isometry:
    """One of the six verified order-3 component isometries: the row's
    permutation of simple roots, then its reflection word (see
    ``CONSTRUCTIONS``), checked to preserve the Gram form with order 3.

    cycle_A2: s0 s1, the Coxeter element, class A2 (fixed rank 0).
    rotation_D4: triality, then s2 s1 s0 s_top (fixed rank 0); cycles the
        three nonzero dual classes.
    triality_D4: the diagram rotation of the three outer nodes (fixed
        rank 2); also cycles the three nonzero dual classes.
    coord_cycle_D4: s0 s1, class A2 (fixed rank 2); fixes every dual class.
    coord_cycle_A5: s1 s0 s4 s3, class 2A2 (fixed rank 1); fixes every
        dual class.
    reflection_product_E6: s_top s5 s4 s3 s1 s0, class 3A2 (fixed rank 0);
        fixes every dual class.
    """
    if name not in CONSTRUCTIONS["components"]:
        raise CatalogError(f"unknown component isometry {name!r}")
    (family, rank), perm, word = CONSTRUCTIONS["components"][name]
    l = build_root_lattice(family, rank).lattice
    simple = IntMatrix.identity(rank).entries
    m = IntMatrix.from_rows([simple[j] for j in perm or range(rank)])
    for step in word:
        root = basis_highest_root(l, enumerate_roots(l).roots) if step == "top" else simple[step]
        m = m @ reflection(l, root).matrix
    return Isometry.create(l, m, 3)


def glue_class_image(auto: Isometry, data: RootLatticeData,
                     ell: int) -> int:
    """Which dual class the isometry sends class ell to: the class whose
    residue row matches the image's modulo the glue denominator."""
    glue = data.glue
    image = (glue.num @ auto.matrix).entries[ell]
    for m, rep in enumerate(glue.num.entries):
        if all((a - b) % glue.den == 0 for a, b in zip(image, rep)):
            return m
    raise CatalogError("image is not in any dual class")


class NiemeierBundle(NamedTuple):
    """A verified glued lattice with everything needed to work on it; the base
    is the direct sum of the root lattices ``parts``, glue coset r (a
    ``glue_group`` row) is r / ``glue_den`` in base coordinates, and row i of
    ``ambient`` is base basis vector i in its root lattice's coordinates."""

    parts: tuple[Lattice, ...]
    ambient: IntMatrix
    extension: GlueExtension
    glue_group: tuple[tuple[int, ...], ...]
    glue_den: int
    root_system: RootSystem

    @property
    def lattice(self) -> Lattice:
        return self.extension.lattice


def _glue_words(part_data: tuple[RootLatticeData, ...],
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
            coords.extend(e * (den // data.glue.den) for e in data.glue.num.entries[digit])
        generators.append(tuple(coords))
    rank = sum(data.lattice.rank for data in part_data)
    return RatMatrix(IntMatrix(len(generators), rank, tuple(generators)), den)


def _close_glue_group(words: RatMatrix) -> tuple[tuple[int, ...], ...]:
    """All distinct cosets the glue rows generate, reduced mod 1, as sorted
    integer residue rows modulo the glue denominator ``words.den``."""
    den = words.den
    return tuple(sorted(residue_sums(words.num.entries, (den,) * words.rows, den, words.cols)))


def _check_glue_code(key: str, base: Lattice, words: RatMatrix, cosets: int) -> None:
    """From the block Grams and glue generators alone: the glue code is an
    isotropic subgroup of the discriminant form of order sqrt(prod det R_i)
    (Conway and Sloane, SPLAG, ch. 4 section 3 and ch. 16)."""
    square = words.den ** 2
    for (i, u), (j, v) in itertools.combinations_with_replacement(enumerate(words.num.entries), 2):
        p = base.inner(u, v)
        if p % (2 * square if i == j else square):
            what = f"generator {i} has norm" if i == j else f"generators {i} and {j} pair to"
            raise CatalogError(f"{key}: glue code is not isotropic: "
                               f"{what} {rat_str(Fraction(p, square))}")
    if cosets ** 2 != (d := base.determinant()):
        raise CatalogError(f"{key}: glue group has {cosets} cosets, but the blocks' "
                           f"determinants multiply to {d}, not {cosets}^2")


def construct_niemeier(key: str) -> NiemeierBundle:
    """Build and fully verify one of the four glued rank-24 lattices: a
    wrong glue word in the table raises ``CatalogError`` rather than
    returning a bundle."""
    if key not in CONSTRUCTIONS["lattices"]:
        raise CatalogError(f"unknown lattice key {key!r}")
    spec = CONSTRUCTIONS["lattices"][key]
    part_data = tuple(build_root_lattice(f, r) for f, r in spec["parts"])
    parts = tuple(d.lattice for d in part_data)
    base = direct_sum(parts, name=f"{key}:base")
    words = _glue_words(part_data, spec["words"])
    group = _close_glue_group(words)
    _check_glue_code(key, base, words, len(group))
    failed = CatalogError(f"{key}: lattice is not even unimodular of rank 24")
    try:
        ext = glue_extend(base, words, name=key)
    except GlueError as exc:  # dual-class words pair integrally: a non-integral glue
        raise failed from exc
    if ext.index != len(group):
        raise CatalogError(f"{key}: the glue index is {ext.index} but the group has "
                           f"{len(group)} cosets")
    even, unimodular = is_even_unimodular(ext.lattice)
    if not (even and unimodular and ext.lattice.rank == 24):
        raise failed
    vectors = glued_root_vectors(parts, ext, group, words.den)
    rs = build_root_system(ext.lattice, vectors)
    if classify(rs) != tuple(sorted(spec["parts"])):
        raise CatalogError(f"{key}: root system mismatch")
    ambient = block_diagonal([d.ambient for d in part_data])
    return NiemeierBundle(parts, ambient, ext, group, words.den, rs)


@lru_cache(maxsize=None)
def niemeier_bundle(key: str) -> NiemeierBundle:
    return construct_niemeier(key)


def _block_assignments(key: str, parts: Sequence[Lattice]) -> list[tuple[int, IntMatrix]]:
    """Per source block of the row's "blocks": (target block, the product of its
    named component maps, or the block's identity); an entry past the last
    block gets a rank-0 identity, for ``assemble_block_isometry`` to count."""
    out = []
    for src, (dst, names) in enumerate(CONSTRUCTIONS["isometries"][key]["blocks"]):
        maps = [build_component_auto(name).matrix for name in names]
        out.append((dst, reduce(matmul, maps) if maps else
                    IntMatrix.identity(parts[src].rank if src < len(parts) else 0)))
    return out


def assemble_block_isometry(bundle: NiemeierBundle,
                            assignments: Sequence[tuple[int, IntMatrix]],
                            name: str) -> Isometry:
    """Glue per-block maps into one order-3 isometry of the extended lattice.

    ``assignments[src] = (dst, m)`` sends the contents of block ``src``
    through ``m`` into block ``dst``.  The assembled map is conjugated into
    the glued basis and must keep every basis vector inside the lattice;
    the first violating image is reported otherwise.
    """
    blocks = [p.rank for p in bundle.parts]
    if len(assignments) != len(blocks):
        raise CatalogError(f"{name}: {len(assignments)} block maps for {len(blocks)} blocks")
    if sorted(dst for dst, _ in assignments) != list(range(len(blocks))):
        raise CatalogError(f"{name}: block targets are not a permutation")
    *starts, rank = itertools.accumulate(blocks, initial=0)
    entries = [[0] * rank for _ in range(rank)]
    for src, (dst, m) in enumerate(assignments):
        if blocks[src] != blocks[dst] or m.rows != blocks[src]:
            raise CatalogError(f"{name}: block size mismatch at {src}->{dst}")
        for i in range(m.rows):
            for j in range(m.cols):
                entries[starts[src] + i][starts[dst] + j] = m.entries[i][j]
    s = _im(rank, rank, tuple(map(tuple, entries)))
    ext = bundle.extension
    # B s B^-1, B numerators over den; the base rows B^-1 are integral and stored.
    b, den = ext.basis_in_base, ext.basis_in_base.den
    x = b.num @ s @ ext.base_in_lattice
    for k, row in enumerate(x.entries):
        if any(e % den for e in row):
            raise StabilizationError(
                f"{name}: image of basis vector {k} is outside the lattice: "
                f"{tuple(str(Fraction(e, den)) for e in row)}")
    return Isometry.create(bundle.lattice, _im(x.rows, x.cols, tuple(
        tuple(e // den for e in row) for row in x.entries)), 3)


@lru_cache(maxsize=None)
def build_sigma(key: str) -> Isometry:
    """Assemble, verify, and return one of the six order-3 isometries."""
    if key not in CONSTRUCTIONS["isometries"]:
        raise CatalogError(f"unknown isometry key {key!r}")
    bundle = niemeier_bundle(CONSTRUCTIONS["isometries"][key]["lattice"])
    return assemble_block_isometry(bundle, _block_assignments(key, bundle.parts), key)

