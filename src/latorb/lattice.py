"""Integral positive-definite lattices with exact Gram data.

A lattice is its symmetric positive-definite integer Gram matrix on a basis,
and keeps the Gram's LDL^T: that one Bareiss pass proves it positive definite,
gives its determinant and is what ``roots`` enumerates short vectors from.
A direct sum is its block-diagonal Gram; its summands stay with the caller.
A sublattice is the integer matrix of its basis rows in the lattice basis.
Only glue rows are rational: a ``RatMatrix``, read as its numerator
``IntMatrix`` ``num`` over one denominator ``den``.

All arithmetic is exact; see :mod:`latorb.exactmat`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from .exactmat import (IntMatrix, NotPositiveDefinite, RatMatrix, Rational, _im,
                       block_diagonal, hnf, kernel_basis, ldl, solve_exact)


class LatticeError(ValueError):
    """Invalid lattice data (non-symmetric or non-positive-definite Gram)."""


class GlueError(ValueError):
    """A glue vector is not in the dual of the base, or the glue is not integral."""


class IsometryError(ValueError):
    """A claimed isometry fails verification."""


def rat_str(x: Rational) -> str:
    """Canonical string for an exact rational: 'p' or 'p/q' in lowest terms."""
    return str(Fraction(x))


class Lattice:
    """A finite-rank integral positive-definite lattice over Z.

    Fields:
        gram: symmetric positive-definite IntMatrix — the pairing on a basis.
        name: optional label.
        ldl: the Gram's LDL^T (p, a) from ``exactmat.ldl``, p[-1] the
            determinant; derived from gram, so equality and hash ignore it.
    """

    __slots__ = ("gram", "name", "ldl")

    def __init__(self, gram: IntMatrix, name: str | None = None) -> None:
        if not isinstance(gram, IntMatrix):
            raise TypeError(f"Gram matrix must be an IntMatrix, not {type(gram).__name__}")
        if gram != gram.transpose():
            raise LatticeError("Gram matrix is not symmetric")
        try:
            self.ldl = ldl(gram)
        except NotPositiveDefinite:
            raise LatticeError("Gram matrix is not positive definite") from None
        self.gram, self.name = gram, name

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and (
            (self.gram, self.name) == (other.gram, other.name))

    def __hash__(self) -> int:
        return hash((self.gram, self.name))

    @property
    def rank(self) -> int:
        return self.gram.rows

    @property
    def is_even(self) -> bool:
        return all(row[i] % 2 == 0 for i, row in enumerate(self.gram.entries))

    def determinant(self) -> int:
        return self.ldl[0][-1] if self.rank else 1

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Pairing of two integer vectors given in basis coordinates, summed
        over their nonzero coordinates."""
        ys = [(j, b) for j, b in enumerate(y) if b]
        return sum(a * sum(row[j] * b for j, b in ys)
                   for a, row in zip(x, self.gram.entries) if a)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "gram": [[str(e) for e in row] for row in self.gram.entries],
            "even": self.is_even,
            "det": str(self.determinant()),
        }


def direct_sum(parts: Sequence[Lattice], name: str | None = None) -> Lattice:
    """Orthogonal direct sum: the block-diagonal Gram of the parts."""
    return Lattice(block_diagonal([p.gram for p in parts]), name=name)


class GlueExtension(NamedTuple):
    """Result of glue_extend: the glued lattice, its index over the base, the
    canonical new basis B in base coordinates, and the base lattice's basis
    rows B^-1 in the new basis."""

    lattice: Lattice
    index: int
    basis_in_base: RatMatrix
    base_in_lattice: IntMatrix


def glue_extend(q: Lattice, words: RatMatrix,
                name: str | None = None) -> GlueExtension:
    """Extend q by glue vectors from its dual; canonical HNF basis.

    Each row of ``words`` is a glue vector in the basis of q.  It must pair
    integrally with every basis vector of q (i.e. lie in q*), and the glued
    lattice must be integral; otherwise :class:`GlueError` says which
    fails.  With den the denominator of ``words`` and h the HNF of den I
    stacked on the numerators, the glued basis is h / den and its Gram
    h G h^T / den^2.
    """
    r, den = q.rank, words.den
    if words.cols != r:
        raise GlueError(f"glue rows have {words.cols} coordinates, not {r}")
    for gi, row in enumerate((words.num @ q.gram).entries):
        for bi, e in enumerate(row):
            if e % den:
                raise GlueError(
                    f"glue vector {gi} pairs non-integrally with basis vector "
                    f"{bi}: <g,b> = {rat_str(Fraction(e, den))}")
    scaled = IntMatrix.identity(r).scale(den)
    # den I is among h's generators, so h has r rows and its triangular
    # determinant prod(diagonal) divides den^r: det(basis) = 1 / index.
    h = hnf(_im(r + words.rows, r, scaled.entries + words.num.entries))
    index = den ** r // prod(h.entries[i][i] for i in range(r))
    square = den * den
    gram = (h @ q.gram @ h.transpose()).entries
    if any(e % square for row in gram for e in row):
        raise GlueError("glued lattice is not integral")
    glued = Lattice(_im(r, r, tuple(tuple(e // square for e in row) for row in gram)),
                    name=name)
    # The base rows B^-1 = den h^-1 solve x h = den I in integers.
    return GlueExtension(glued, index, RatMatrix(h, den), solve_exact(h, scaled))


def is_even_unimodular(l: Lattice) -> tuple[bool, bool]:
    """(even, unimodular): even Gram diagonal; determinant 1."""
    return l.is_even, l.determinant() == 1


class Isometry:
    """A verified finite-order isometry of a lattice, in basis coordinates.

    Vectors are rows; the map is ``x -> x @ matrix``.  Construction via
    :meth:`create` checks the Gram form is preserved (so det = +-1, as
    det G > 0) and the order is exactly the claimed one.
    """

    __slots__ = ("lattice", "matrix", "order")

    def __init__(self, lattice: Lattice, matrix: IntMatrix, order: int) -> None:
        self.lattice, self.matrix, self.order = lattice, matrix, order

    def __eq__(self, other) -> bool:
        return isinstance(other, Isometry) and (
            (self.lattice, self.matrix, self.order) == (other.lattice, other.matrix, other.order))

    def __hash__(self) -> int:  # twist_data's cache keys on it
        return hash((self.lattice, self.matrix, self.order))

    @classmethod
    def create(cls, lattice: Lattice, matrix: IntMatrix, order: int) -> "Isometry":
        r = lattice.rank
        if matrix.rows != r or matrix.cols != r:
            raise IsometryError("matrix size differs from lattice rank")
        if matrix @ lattice.gram @ matrix.transpose() != lattice.gram:
            raise IsometryError("matrix does not preserve the Gram form")
        power, k = matrix, 1
        while not power.is_identity():
            if k == order:
                raise IsometryError(f"order exceeds {order}")
            power, k = power @ matrix, k + 1
        if k != order:
            raise IsometryError(f"order is {k}, expected {order}")
        return cls(lattice, matrix, order)

    @property
    def fixed_rank(self) -> int:
        delta = self.matrix - IntMatrix.identity(self.lattice.rank)
        return kernel_basis(delta).rows
