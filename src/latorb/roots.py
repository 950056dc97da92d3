"""Exact root-system machinery: norm-2 enumeration, ADE classification,
reflections, highest roots, and orbit counting under an isometry.

Enumeration is exact throughout.  The squared-length form is completed to a
sum of weighted squares with rational coefficients, which yields integer
coordinate intervals level by level; no floating point is used anywhere,
not even as a heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt
from typing import Iterable, Sequence

from .exactmat import IntMatrix, NotPositiveDefinite, RatMatrix, ldl, solve_exact
from .lattice import GlueExtension, Isometry, Lattice, LatticeVector


class RootsError(Exception):
    """Root enumeration or classification failed."""


class UnknownRootSystem(RootsError):
    """A component's Cartan matrix matches no ADE type."""


def _expected_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1)
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    raise UnknownRootSystem(f"no root count for type {family}{rank}")


def _floor_sqrt_shift(f: Fraction, a: Fraction) -> int:
    """floor(sqrt(f) - a) for f >= 0, computed with integer arithmetic.

    The estimate from floor(sqrt(f)) is corrected by exact comparisons,
    so the result is exact for every rational input.
    """
    r = isqrt(f.numerator * f.denominator) // f.denominator
    m = floor(Fraction(r) - a)
    while (m + a) > 0 and (m + a) ** 2 > f:
        m -= 1
    while (m + 1 + a) <= 0 or (m + 1 + a) ** 2 <= f:
        m += 1
    return m


def _int_interval(a: Fraction, f: Fraction) -> tuple[int, int]:
    """All integers x with (x + a)^2 <= f, as an inclusive interval."""
    if f < 0:
        return 0, -1
    return -_floor_sqrt_shift(f, -a), _floor_sqrt_shift(f, a)


def _short_vectors(gram: RatMatrix, bound: Fraction,
                   center: Sequence[Fraction] | None = None,
                   ) -> list[tuple[tuple[int, ...], Fraction]]:
    """All integer x with Q(x + center) <= bound, with exact norms.

    Args:
        gram: positive-definite form.
        bound: inclusive norm bound.
        center: optional rational shift; None means the origin, in which
            case the zero vector is included with norm 0.

    Returns:
        Sorted list of (coordinates, norm) pairs.
    """
    n = gram.rows
    bound = Fraction(bound)
    if n == 0:
        return [((), Fraction(0))] if bound >= 0 else []
    try:
        d, u = ldl(gram)
    except NotPositiveDefinite:
        raise RootsError("form is not positive definite") from None
    s = [Fraction(c) for c in center] if center is not None else [Fraction(0)] * n
    out: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction) -> None:
        if i < 0:
            out.append((tuple(x), bound - remaining))
            return
        off = sum((u[i][j] * (x[j] + s[j]) for j in range(i + 1, n)), Fraction(0))
        a = s[i] + off
        lo, hi = _int_interval(a, remaining / d[i])
        for xi in range(lo, hi + 1):
            t = d[i] * (xi + a) ** 2
            if t <= remaining:
                x[i] = xi
                descend(i - 1, remaining - t)
        x[i] = 0

    descend(n - 1, bound)
    out.sort(key=lambda pair: pair[0])
    return out


@dataclass(frozen=True)
class RootComponent:
    """An irreducible component of a root system with its simple basis."""

    family: str
    rank: int
    roots: tuple[LatticeVector, ...]
    simple: tuple[LatticeVector, ...]
    cartan: IntMatrix


@dataclass(frozen=True)
class RootSystem:
    lattice: Lattice
    roots: tuple[LatticeVector, ...]
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
    vectors = [l.vector(coords)
               for coords, norm in _short_vectors(l.gram, Fraction(2))
               if norm == 2]
    return build_root_system(l, vectors)


def build_root_system(l: Lattice, vectors: Iterable[LatticeVector]) -> RootSystem:
    """Assemble and classify a root system from caller-supplied vectors.

    Verifies each vector has norm 2 and integral coordinates, that the set
    is free of duplicates and closed under negation, then partitions into
    connected components and classifies each against the ADE catalog.
    """
    roots = tuple(vectors)
    n = l.rank
    # Integer Gram numerators keep the quadratic pairwise stage cheap; a
    # norm of 2 reads 2 * den against them.
    g, den = l.gram.num, l.gram.den
    seen: dict[tuple[int, ...], int] = {}
    coords_list: list[tuple[int, ...]] = []
    gram_rows: list[tuple] = []
    for idx, v in enumerate(roots):
        if v.lattice != l:
            raise RootsError("root from a different lattice")
        if not v.is_integral:
            raise RootsError(f"root {v.coords} has non-integral coordinates")
        c = tuple(int(e) for e in v.coords)
        row = tuple(sum(g[k][j] * c[k] for k in range(n)) for j in range(n))
        norm = sum(a * b for a, b in zip(c, row))
        if norm != 2 * den:
            raise RootsError(f"vector {c} has norm {Fraction(norm, den)}, not 2")
        if c in seen:
            raise RootsError(f"duplicate root {c}")
        seen[c] = idx
        coords_list.append(c)
        gram_rows.append(row)
    for c in coords_list:
        if tuple(-e for e in c) not in seen:
            raise RootsError(f"root set not closed under negation at {c}")
    components = tuple(
        _classify_component(l, comp)
        for comp in _split_components(roots, coords_list, gram_rows))
    return RootSystem(l, roots, components)


def _split_components(roots: tuple[LatticeVector, ...],
                      coords_list: list[tuple[int, ...]],
                      gram_rows: list[tuple]) -> list[list[LatticeVector]]:
    unvisited = set(range(len(roots)))
    comps = []
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        members = [start]
        while stack:
            i = stack.pop()
            ci = coords_list[i]
            for j in list(unvisited):
                if sum(a * b for a, b in zip(ci, gram_rows[j])) != 0:
                    unvisited.discard(j)
                    stack.append(j)
                    members.append(j)
        comps.append([roots[i] for i in sorted(members)])
    return comps


def _positivity_weights(roots: Sequence[LatticeVector]) -> list[int]:
    # Base-K digits with K beyond twice the largest coordinate make the
    # functional injective on the root set, so no nonzero root is "zero".
    biggest = max((abs(int(c)) for v in roots for c in v.coords), default=0)
    k = 2 * biggest + 2
    n = len(roots[0].coords)
    return [k ** i for i in range(n)]


def _classify_component(l: Lattice, members: list[LatticeVector]) -> RootComponent:
    weights = _positivity_weights(members)

    def functional(v: LatticeVector) -> int:
        return sum(int(c) * w for c, w in zip(v.coords, weights))

    positive = sorted((v for v in members if functional(v) > 0),
                      key=lambda v: v.coords)
    if 2 * len(positive) != len(members):
        raise RootsError("positivity functional failed to split the roots")
    pos_set = {v.coords for v in positive}
    simple = []
    for v in positive:
        decomposable = any(
            tuple(a - b for a, b in zip(v.coords, w.coords)) in pos_set
            for w in positive if w.coords != v.coords)
        if not decomposable:
            simple.append(v)
    cartan = RatMatrix.from_rows(
        [[a.inner(b) for b in simple] for a in simple],
        cols=len(simple)).to_int()
    family, rank = _match_ade(cartan)
    expected = _expected_root_count(family, rank)
    if expected != len(members):
        raise RootsError(
            f"component classified as {family}{rank} but has {len(members)} "
            f"roots instead of {expected}")
    return RootComponent(family, rank, tuple(members), tuple(simple), cartan)


def _match_ade(cartan: IntMatrix) -> tuple[str, int]:
    """Classify a Cartan matrix by the shape of its Dynkin graph."""
    n = cartan.rows
    adj: list[list[int]] = [[] for _ in range(n)]
    edge_count = 0
    for i in range(n):
        if cartan.entries[i][i] != 2:
            raise UnknownRootSystem("diagonal Cartan entry is not 2")
        for j in range(i + 1, n):
            e = cartan.entries[i][j]
            if e not in (0, -1) or e != cartan.entries[j][i]:
                raise UnknownRootSystem("off-diagonal Cartan entry outside {0,-1}")
            if e == -1:
                adj[i].append(j)
                adj[j].append(i)
                edge_count += 1
    if n == 0:
        raise UnknownRootSystem("empty component")
    # Must be a connected tree.
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n or edge_count != n - 1:
        raise UnknownRootSystem("Dynkin graph is not a tree")
    forks = [i for i in range(n) if len(adj[i]) > 2]
    if any(len(adj[i]) > 3 for i in range(n)):
        raise UnknownRootSystem("node of degree > 3")
    if not forks:
        return "A", n
    if len(forks) > 1:
        raise UnknownRootSystem("more than one fork")
    fork = forks[0]
    legs = []
    for start in adj[fork]:
        length = 1
        prev, cur = fork, start
        while len(adj[cur]) == 2:
            nxt = next(j for j in adj[cur] if j != prev)
            prev, cur = cur, nxt
            length += 1
        legs.append(length)
    a, b, c = sorted(legs)
    if a != 1:
        raise UnknownRootSystem(f"leg profile {(a, b, c)} is not ADE")
    if b == 1:
        return "D", c + 3
    if b == 2 and c in (2, 3, 4):
        return "E", c + 4
    raise UnknownRootSystem(f"leg profile {(a, b, c)} is not ADE")


def classify(rs: RootSystem) -> tuple[tuple[str, int], ...]:
    """Multiset of (family, rank) pairs, canonically sorted."""
    return tuple(sorted((c.family, c.rank) for c in rs.components))


def reflection(l: Lattice, alpha: LatticeVector) -> Isometry:
    """The reflection x -> x - <x, alpha> alpha for a norm-2 root alpha."""
    if alpha.lattice != l:
        raise RootsError("root belongs to a different lattice")
    if not alpha.is_integral or alpha.norm() != 2:
        raise RootsError("reflection requires a norm-2 lattice vector")
    n = l.rank
    galpha = [l.inner([1 if k == i else 0 for k in range(n)], alpha.coords)
              for i in range(n)]
    rows = []
    for i in range(n):
        row = [-galpha[i] * alpha.coords[j] for j in range(n)]
        row[i] += 1
        rows.append(row)
    m = RatMatrix.from_rows(rows, cols=n)
    if not m.is_integral():
        raise RootsError("reflection matrix is not integral")
    return Isometry.create(l, m.to_int(), expected_order=2)


@dataclass(frozen=True)
class HighestRoot:
    vector: LatticeVector
    coefficients: tuple[int, ...]


def highest_root(comp: RootComponent) -> HighestRoot:
    """The unique root dominating all others in simple-root coordinates."""
    basis = RatMatrix.from_rows([list(v.coords) for v in comp.simple],
                                cols=len(comp.simple[0].coords))
    coeffs = []
    for v in comp.roots:
        target = RatMatrix.from_rows([list(v.coords)], cols=basis.cols)
        sol = solve_exact(basis, target)
        if not sol.is_integral():
            raise RootsError("root is not an integer span of the simple basis")
        coeffs.append(tuple(int(c) for c in sol.entries[0]))
    best = max(range(len(comp.roots)), key=lambda i: sum(coeffs[i]))
    top = coeffs[best]
    for other in coeffs:
        if any(o > t for o, t in zip(other, top)):
            raise RootsError("no root dominates all others")
    return HighestRoot(comp.roots[best], top)


def basis_highest_root(l: Lattice, roots: Sequence[LatticeVector]) -> LatticeVector:
    """Highest root when the lattice basis itself is a simple system.

    Applies when the Gram matrix is an ADE Cartan matrix, so basis
    coordinates are simple-root coordinates.
    """
    for i in range(l.rank):
        if l.gram.num[i][i] != 2 * l.gram.den:
            raise RootsError("lattice basis is not a simple system")
    best = max(roots, key=lambda v: sum(v.coords))
    for v in roots:
        if any(c > b for c, b in zip(v.coords, best.coords)):
            raise RootsError("no root dominates all others")
    return best


def orbit_count(rs: RootSystem, iso: Isometry) -> tuple[int, int]:
    """(orbit count, fixed-root count) for the cyclic group generated by iso.

    Verifies that iso maps the root set onto itself before counting.
    """
    if iso.lattice != rs.lattice:
        raise RootsError("isometry acts on a different lattice")
    index = {tuple(int(c) for c in v.coords) for v in rs.roots}
    images = {}
    for v in rs.roots:
        src = tuple(int(c) for c in v.coords)
        img = iso.apply_coords(src)
        if img not in index:
            raise RootsError(f"isometry does not preserve the root set at {src}")
        images[src] = img
    unvisited = set(index)
    orbits = 0
    fixed = 0
    while unvisited:
        start = next(iter(unvisited))
        orbit = [start]
        unvisited.discard(start)
        cur = images[start]
        while cur != start:
            unvisited.discard(cur)
            orbit.append(cur)
            cur = images[cur]
        orbits += 1
        if len(orbit) == 1:
            fixed += 1
    return orbits, fixed


def glued_root_vectors(q: Lattice, ext: GlueExtension,
                       words: Iterable[LatticeVector]) -> list[LatticeVector]:
    """Norm-2 vectors of a glued lattice, coset by coset over the base.

    Args:
        q: the base lattice (a direct sum with block bookkeeping, or any
            lattice, treated as a single block).
        ext: the glue extension of q whose roots are wanted.
        words: coset representatives of ext.lattice / q in q-coordinates,
            including the zero word.

    Returns:
        All norm-2 vectors of ext.lattice in its own (integral) basis
        coordinates.  Each coset is searched with a shifted enumeration;
        a coset is skipped outright when the per-block minimum norms
        already exceed 2.
    """
    blocks = q.blocks if q.blocks is not None else (q.rank,)
    starts = [0, *itertools.accumulate(blocks)][:-1]
    if sum(blocks) != q.rank:
        raise RootsError("block sizes do not sum to the rank")
    grams = [RatMatrix(b, b, tuple(row[st:st + b] for row in q.gram.num[st:st + b]),
                       q.gram.den) for st, b in zip(starts, blocks)]
    # The inverse glue basis is the integral inclusion of the base lattice.
    binv = ext.base_in_lattice.inclusion.transpose().entries
    cache: dict[tuple[int, tuple[Fraction, ...]], list[tuple[tuple[int, ...], Fraction]]] = {}

    def block_vectors(bi: int, shift: tuple[Fraction, ...]):
        key = (bi, shift)
        if key not in cache:
            cache[key] = _short_vectors(grams[bi], Fraction(2), center=shift)
        return cache[key]

    found: list[LatticeVector] = []
    for w in words:
        if w.lattice != q:
            raise RootsError("coset word is not in base-lattice coordinates")
        shifts = [tuple(w.coords[st:st + b]) for st, b in zip(starts, blocks)]
        scaled = RatMatrix.from_rows([w.coords], cols=q.rank)
        wden = scaled.den
        per_block = [block_vectors(bi, sh) for bi, sh in enumerate(shifts)]
        if not all(per_block):
            continue
        mins = [min(norm for _, norm in vecs) for vecs in per_block]
        # suffix[i] = sum(mins[i:]): the least norm the blocks from i on add.
        suffix = [*itertools.accumulate(reversed(mins), initial=0)][::-1]
        if suffix[0] > 2:
            continue
        partial: list[tuple[int, ...]] = []

        def assemble(bi: int, budget: Fraction) -> None:
            if bi == len(blocks):
                if budget == 0:
                    y = [wden * c + s for c, s in zip(itertools.chain(*partial),
                                                      scaled.num[0])]
                    coords = [sum(a * b for a, b in zip(y, col) if a) for col in binv]
                    if any(c % wden for c in coords):
                        raise RootsError("coset vector landed outside the lattice")
                    found.append(LatticeVector(ext.lattice,
                                               tuple(c // wden for c in coords)))
                return
            allowance = budget - suffix[bi + 1]
            for piece, norm in per_block[bi]:
                if norm <= allowance:
                    partial.append(piece)
                    assemble(bi + 1, budget - norm)
                    partial.pop()

        assemble(0, Fraction(2))
    return found


def root_system_to_json(rs: RootSystem) -> dict:
    comps = sorted(
        ({"type": c.family, "rank": c.rank, "root_count": len(c.roots)}
         for c in rs.components),
        key=lambda d: (d["type"], d["rank"]))
    return {"count": rs.count, "components": comps}
