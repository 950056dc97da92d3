"""Exact root-system machinery: norm-2 enumeration, ADE classification,
reflections, highest roots, and orbit counting under an isometry.

Enumeration is all-integer.  The squared-length form is completed to a
sum of squares over integer Bareiss minors, the LDL^T a Lattice keeps, so
every budget, bound and norm is an int and each coordinate interval comes
from an ``isqrt``; no Fraction and no floating point is used.  Glued
lattices are searched coset by coset: glue words are integer residues over
one denominator, each distinct block Gram is one Lattice, enumerated once
per shift; the vectors found reach lattice coordinates through one matrix
product.

Classification pairs roots through the integer Gram matrix.  Simple
roots are found in one scan of the positive roots by height, simple roots
that pair nonzero share a component, and each root joins the component of
the simple root its chain of differences ends in; no step pairs every root
with every other root.  A component's ADE type is read off the rank and
determinant of its Cartan matrix and confirmed by its root count.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .exactmat import IntMatrix, NotPositiveDefinite, _im, ldl
from .lattice import GlueExtension, Isometry, Lattice


class RootsError(Exception):
    """Root enumeration or classification failed."""


class UnknownRootSystem(RootsError):
    """A component's Cartan matrix matches no ADE type."""


def _short_vectors(l: Lattice, bound: int, shift: Sequence[int] | None = None,
                   d: int = 1) -> list[tuple[tuple[int, ...], int]]:
    """Sorted (x, y G y^T) for all integer x with y G y^T <= bound, where
    y = d x + shift and G = l.gram.

    That is Q(x + shift / d) <= bound / d^2 for the positive-definite form Q
    of the lattice, with norms kept in those integer units; no shift is the
    origin.  With the lattice's LDL^T (p, a) = ``l.ldl``, the squares from
    level i on, times D_i, sum to an integer
    E_i = (D_i E_{i+1} + t_i^2) / p[i], so the level-i coordinate ranges over
    t_i^2 <= D_i (p[i] bound - E_{i+1}), an ``isqrt`` interval.
    """
    n = l.rank
    if n == 0:
        return [((), 0)] if bound >= 0 else []
    p, a = l.ldl
    s = list(shift) if shift is not None else [0] * n
    minor = [1, *p]  # minor[i] = D_i
    out: list[tuple[tuple[int, ...], int]] = []
    x = [0] * n
    y = list(s)

    def descend(i: int, e: int) -> None:
        if i < 0:
            out.append((tuple(x), e))
            return
        room = minor[i] * (p[i] * bound - e)
        if room < 0:
            return
        r = isqrt(room)
        # t = p[i] y_i + c with y_i = d x_i + s_i, so t = step x_i + c.
        c = p[i] * s[i] + sum(map(mul, a[i][i + 1:], y[i + 1:]))
        step = p[i] * d
        for xi in range(-((r + c) // step), (r - c) // step + 1):
            t = step * xi + c
            x[i], y[i] = xi, d * xi + s[i]
            descend(i - 1, (minor[i] * e + t * t) // p[i])

    descend(n - 1, 0)
    out.sort(key=lambda pair: pair[0])
    return out


class RootComponent(NamedTuple):
    """An irreducible component of a root system with its simple basis;
    roots are integer coordinate rows in the lattice basis."""

    family: str
    rank: int
    roots: tuple[tuple[int, ...], ...]
    simple: tuple[tuple[int, ...], ...]
    cartan: IntMatrix


class RootSystem(NamedTuple):
    lattice: Lattice
    roots: tuple[tuple[int, ...], ...]
    components: tuple[RootComponent, ...]

    @property
    def count(self) -> int:
        return len(self.roots)


def enumerate_roots(l: Lattice) -> RootSystem:
    """Complete norm-2 vector enumeration with classified components.

    Args:
        l: an even lattice (integral Gram, even diagonal).

    Returns:
        The full root system; every vector is re-verified to have exact
        squared norm 2 against the Gram matrix.
    """
    if not l.is_even:
        raise RootsError("root enumeration requires an even lattice")
    return build_root_system(l, [x for x, norm in _short_vectors(l, 2) if norm == 2])


def build_root_system(l: Lattice, rows: Iterable[Sequence[int]]) -> RootSystem:
    """Assemble and classify a root system from caller-supplied rows.

    Verifies each row is rank-length with int coordinates and norm 2, that
    the set is free of duplicates and closed under negation, then splits it
    into the connected components of its simple roots and reads each
    component's type off the rank and determinant of its Cartan matrix,
    checked against the root count of that type.
    """
    coords = tuple(map(tuple, rows))
    for c in coords:
        if len(c) != l.rank or any(type(e) is not int for e in c):
            raise RootsError(f"root {c} is not a row of {l.rank} integers")
    # Root c pairs through cg = c G, G symmetric: <a, b> is a . (b G).
    cg = (_im(len(coords), l.rank, coords) @ l.gram).entries
    index: dict[tuple[int, ...], int] = {}
    for c, row in zip(coords, cg):
        norm = sum(map(mul, c, row))
        if norm != 2:
            raise RootsError(f"vector {c} has norm {norm}, not 2")
        if c in index:
            raise RootsError(f"duplicate root {c}")
        index[c] = len(index)
    negation = [index.get(tuple(-e for e in c)) for c in coords]
    if None in negation:
        raise RootsError(
            f"root set not closed under negation at {coords[negation.index(None)]}")
    simple, anchor = _simple_roots(coords, cg, index)
    # Dynkin components: simple roots joined by a nonzero pairing share a label.
    label = {s: s for s in simple}
    for a, b in itertools.combinations(simple, 2):
        if sum(map(mul, coords[a], cg[b])):
            la, lb = label[a], label[b]
            label = {t: la if x == lb else x for t, x in label.items()}
    # A root lies in its anchor's component, a negative root in its negation's;
    # components come ordered by smallest root index, members in index order.
    members: dict[int, list[int]] = {}
    for i, j in enumerate(negation):
        members.setdefault(label[anchor[i] if i in anchor else anchor[j]], []).append(i)
    components = []
    for key, comp in members.items():
        basis = sorted((s for s in simple if label[s] == key), key=coords.__getitem__)
        cartan = _im(len(basis), len(basis),
                     tuple(tuple(sum(map(mul, coords[a], cg[b])) for b in basis)
                           for a in basis))
        components.append(_classify_component([coords[i] for i in comp],
                                              [coords[i] for i in basis], cartan))
    return RootSystem(l, coords, tuple(components))


def _simple_roots(coords: tuple[tuple[int, ...], ...], rows: tuple[tuple[int, ...], ...],
                  index: dict[tuple[int, ...], int]) -> tuple[list[int], dict[int, int]]:
    """Simple roots of the positive system, and each positive root's anchor.

    A root is positive when its last nonzero coordinate is: the sign of the
    base-K functional sum(c_i K^i) for every K beyond twice the largest
    coordinate.  Positive roots are scanned in increasing height, here the
    reverse-lexicographic order, which is translation invariant and so puts
    root - s before root for each positive s.  Every root has norm 2, so a
    positive root is simple exactly when it pairs <= 0 with each simple root
    found so far; otherwise it pairs 1 with such a simple root s, and root - s
    must be an earlier positive root.  A positive root's anchor is the simple
    root that ends its chain of such differences.
    """
    positive = sorted((c[::-1], i) for i, c in enumerate(coords) if c[::-1] > (0,) * len(c))
    simple: list[int] = []
    anchor: dict[int, int] = {}
    for _, i in positive:
        c = coords[i]
        s = next((t for t in simple if sum(map(mul, c, rows[t])) > 0), None)
        if s is None:
            simple.append(i)
            anchor[i] = i
            continue
        rest = index.get(tuple(map(sub, c, coords[s])))
        if rest is None:
            raise RootsError(f"{c} minus simple root {coords[s]} is not a root")
        anchor[i] = anchor[rest]
    return simple, anchor


def _classify_component(members: list[tuple[int, ...]], simple: list[tuple[int, ...]],
                        cartan: IntMatrix) -> RootComponent:
    family, rank, expected = _match_ade(cartan)
    if expected != len(members):
        raise RootsError(
            f"component classified as {family}{rank} but has {len(members)} "
            f"roots instead of {expected}")
    return RootComponent(family, rank, tuple(members), tuple(simple), cartan)


def _match_ade(cartan: IntMatrix) -> tuple[str, int, int]:
    """(family, rank, root count) of a connected Cartan matrix.

    A connected, simply-laced, positive-definite Cartan matrix is of type A,
    D or E, and its rank n and determinant (the last ``ldl`` pivot) name
    the type: A_n has n + 1, D_n (n >= 4) 4, and E6, E7, E8 have 3, 2, 1
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    section 11.4).  Connectedness is the caller's: a disconnected matrix can share
    a type's rank and determinant (A1 + E7 reads as D8), and only the root
    count tells them apart.
    """
    n = cartan.rows
    if cartan != cartan.transpose() or any(
            e != 2 if i == j else e not in (0, -1)
            for i, row in enumerate(cartan.entries) for j, e in enumerate(row)):
        raise UnknownRootSystem("not a simply laced Cartan matrix")
    try:
        det = ldl(cartan)[0][-1]
    except NotPositiveDefinite:
        raise UnknownRootSystem("Cartan matrix is not positive definite") from None
    if det == n + 1:
        return "A", n, n * (n + 1)
    if n >= 4 and det == 4:
        return "D", n, 2 * n * (n - 1)
    if 6 <= n <= 8 and det == 9 - n:
        return "E", n, {6: 72, 7: 126, 8: 240}[n]
    raise UnknownRootSystem(f"no ADE type of rank {n} has determinant {det}")


def classify(rs: RootSystem) -> tuple[tuple[str, int], ...]:
    """Multiset of (family, rank) pairs, canonically sorted."""
    return tuple(sorted((c.family, c.rank) for c in rs.components))


def reflection(l: Lattice, alpha: Sequence[int]) -> Isometry:
    """The reflection x -> x - <x, alpha> alpha for a norm-2 root row alpha."""
    if (len(alpha) != l.rank or any(type(e) is not int for e in alpha)
            or l.inner(alpha, alpha) != 2):
        raise RootsError("reflection requires a norm-2 lattice vector")
    n = l.rank
    # Row i is e_i - <e_i, alpha> alpha.
    m = _im(n, n, tuple(
        tuple((i == j) - sum(map(mul, row, alpha)) * alpha[j] for j in range(n))
        for i, row in enumerate(l.gram.entries)))
    return Isometry.create(l, m, 2)


def basis_highest_root(l: Lattice, roots: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Highest root when the lattice basis itself is a simple system.

    Applies when the Gram matrix is an ADE Cartan matrix, so basis
    coordinates are simple-root coordinates.
    """
    if any(row[i] != 2 for i, row in enumerate(l.gram.entries)):
        raise RootsError("lattice basis is not a simple system")
    top = max(roots, key=sum)
    if any(o > t for v in roots for o, t in zip(v, top)):
        raise RootsError("no root dominates all others")
    return top


def orbit_count(rs: RootSystem, iso: Isometry) -> tuple[int, int]:
    """(orbit count, fixed-root count) for the cyclic group generated by iso.

    Verifies that iso maps the root set onto itself before counting.
    """
    if iso.lattice != rs.lattice:
        raise RootsError("isometry acts on a different lattice")
    src = rs.roots
    product = _im(len(src), iso.matrix.rows, src) @ iso.matrix
    images = dict(zip(src, product.entries))
    unvisited = set(src)
    for c in src:
        if images[c] not in unvisited:
            raise RootsError(f"isometry does not preserve the root set at {c}")
    orbits = fixed = 0
    while unvisited:
        start = cur = unvisited.pop()
        while (cur := images[cur]) != start:
            unvisited.discard(cur)
        orbits += 1
        fixed += images[start] == start
    return orbits, fixed


def glued_root_vectors(parts: Sequence[Lattice], ext: GlueExtension,
                       words: Sequence[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Norm-2 vectors of a glued lattice, coset by coset over the base.

    Args:
        parts: the summands of the base lattice, in block order.
        ext: the glue extension of their direct sum whose roots are wanted.
        words: coset representatives of ext.lattice over the base, including
            the zero word, as integer rows w: the base coordinates of a word
            are w / d (glue residues, as ``catalog`` stores them).
        d: the common positive denominator of the words.

    Returns:
        All norm-2 vectors of ext.lattice as integer rows in its own basis.
        Each coset is searched with a shifted enumeration; a coset is
        skipped outright when the per-block minimum norms already exceed 2.
    """
    n = ext.lattice.rank
    blocks = [p.rank for p in parts]
    *starts, total = itertools.accumulate(blocks, initial=0)
    if total != n:
        raise RootsError(f"the parts' ranks sum to {total}, not the rank {n}")
    if d < 1 or any(len(w) != n for w in words):
        raise RootsError("coset words must be rank-length rows over a positive d")
    unit = d * d  # every norm is scaled by d^2 into an integer
    # Parts with equal Grams share one key, so each (Gram, shift) pair is
    # enumerated once however many blocks carry it.
    first: dict[IntMatrix, int] = {}
    keys = [first.setdefault(p.gram, i) for i, p in enumerate(parts)]
    cache: dict[tuple[int, tuple[int, ...]], tuple[int, list]] = {}

    def block_vectors(key: tuple[int, tuple[int, ...]]) -> tuple[int, list]:
        """(least scaled norm, [(piece, scaled norm)]) of one shifted block;
        a block with no vector counts as exceeding every budget."""
        if key not in cache:
            part, shift = key
            pieces = _short_vectors(parts[part], 2 * unit, shift, d)
            cache[key] = (min((m for _, m in pieces), default=2 * unit + 1), pieces)
        return cache[key]

    ys: list[tuple[int, ...]] = []
    for wnum in words:
        per_block = [block_vectors((gk, wnum[st:st + b]))
                     for gk, st, b in zip(keys, starts, blocks)]
        # suffix[i] = the least scaled norm the blocks from i on add.
        suffix = [*itertools.accumulate((m for m, _ in reversed(per_block)),
                                        initial=0)][::-1]
        if suffix[0] > 2 * unit:
            continue
        partial: list[tuple[int, ...]] = []

        def assemble(bi: int, budget: int) -> None:
            if bi == len(blocks):
                if budget == 0:
                    ys.append(tuple(d * c + s for c, s in zip(itertools.chain(*partial), wnum)))
                return
            allowance = budget - suffix[bi + 1]
            for piece, norm in per_block[bi][1]:
                if norm <= allowance:
                    partial.append(piece)
                    assemble(bi + 1, budget - norm)
                    partial.pop()

        assemble(0, 2 * unit)
    # Each y holds d times base coordinates; the base lattice's integral rows
    # in the glued basis (the inverse glue basis) map them to d times lattice ones.
    found = (_im(len(ys), n, tuple(ys)) @ ext.base_in_lattice).entries
    if any(c % d for row in found for c in row):
        raise RootsError("coset vector landed outside the lattice")
    return [tuple(c // d for c in row) for row in found]


def root_system_to_json(rs: RootSystem) -> dict:
    comps = sorted(
        ({"type": c.family, "rank": c.rank, "root_count": len(c.roots)}
         for c in rs.components),
        key=lambda d: (d["type"], d["rank"]))
    return {"count": rs.count, "components": comps}
