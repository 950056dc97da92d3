"""Ternary linear codes on the 12-point index set {inf, 0..10}, each kept
as the reduced row-echelon basis read off ``exactmat.hnf`` of C + 3Z^n, the
permutations used to build order-3 lattice isometries from them, and
``residue_sums``, which spans residue rows mod m for ``TernaryCode.words``,
``catalog._close_glue_group`` and ``orbifold.coset_filter_index``."""

from __future__ import annotations

from collections import Counter
from math import lcm
from operator import getitem
from typing import Iterable, NamedTuple, Sequence

from .exactmat import IntMatrix, hnf

LENGTH = 12

# Storage order of the index set: infinity first, then 0..10.
LABELS = ("∞", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "X")

# Support of the doubled entries of the base generator word.
THETA = (0, 1, 3, 4, 5, 9)


class IndexPermutation(NamedTuple):
    """Bijection of the 12 positions; images[p] is the image of position p."""

    images: tuple[int, ...]

    def apply_to_word(self, word: Sequence[int]) -> tuple[int, ...]:
        # Moves the entry at position p to position images[p].
        out = [0] * LENGTH
        for p, e in enumerate(word):
            out[self.images[p]] = e % 3
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self._cycles()))

    def inverse(self) -> "IndexPermutation":
        inv = [0] * LENGTH
        for p, q in enumerate(self.images):
            inv[q] = p
        return IndexPermutation(tuple(inv))

    def _cycles(self) -> list[list[int]]:
        seen = [False] * LENGTH
        cycles = []
        for start in range(LENGTH):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            cur = self.images[start]
            while cur != start:
                seen[cur] = True
                cyc.append(cur)
                cur = self.images[cur]
            cycles.append(cyc)
        return sorted(cycles, key=lambda c: (len(c), c[0]))

    def cycle_string(self) -> str:
        return "".join("(" + "".join(LABELS[p] for p in c) + ")"
                       for c in self._cycles())


def compose_perm(a: IndexPermutation, b: IndexPermutation) -> IndexPermutation:
    """Composition acting as a after b: x -> a(b(x))."""
    return IndexPermutation(tuple(a.images[b.images[p]] for p in range(LENGTH)))


def perm_from_cycles(text: str) -> IndexPermutation:
    """The permutation a cycle string in ``LABELS`` names, the inverse of
    ``cycle_string``; labels in no cycle stay fixed."""
    images = list(range(LENGTH))
    for cycle in text.strip("()").split(")("):
        points = [LABELS.index(label) for label in cycle]
        for p, q in zip(points, points[1:] + points[:1]):
            images[p] = q
    if sorted(images) != list(range(LENGTH)):
        raise ValueError("not a bijection of the 12 positions")
    return IndexPermutation(tuple(images))


def shift_perm() -> IndexPermutation:
    """The 11-cycle fixing infinity and sending each digit i to i - 1 mod 11."""
    return perm_from_cycles("(0X987654321)")


def swap_perm() -> IndexPermutation:
    """The involution fixing infinity, 0, 1 and 8."""
    return perm_from_cycles("(2X)(34)(59)(67)")


def residue_perm() -> IndexPermutation:
    """The order-3 permutation obtained as shift-inverse composed with swap."""
    return compose_perm(shift_perm().inverse(), swap_perm())


def residue_sums(rows: Sequence[Sequence[int]], orders: Sequence[int], m: int,
                 n: int) -> dict[tuple[int, ...], int]:
    """How many coefficient vectors t with 0 <= t_i < orders_i give each
    residue row sum_i t_i rows_i mod m of length n, built one row at a time
    by adding t * row to every sum so far; at full orders the keys span."""
    # shift[b][a] = (a + b) mod m: a residue plus b is one index.
    shift = [tuple((a + b) % m for a in range(m)) for b in range(m)]
    acc = {(0,) * n: 1}
    for row, order in zip(rows, orders):
        grown = dict(acc)  # t = 0
        for t in range(1, order):
            plus_step = [shift[t * e % m] for e in row]
            for key, cnt in acc.items():
                s = tuple(map(getitem, plus_step, key))
                grown[s] = grown.get(s, 0) + cnt
        acc = grown
    return acc


class TernaryCode:
    """A linear code over the field with three elements, stored canonically.

    The basis is the reduced row-echelon form mod 3 of whatever generators
    were supplied, so two codes are equal iff their stored bases are equal.
    """

    __slots__ = ("length", "basis")

    def __init__(self, length: int, basis: tuple[tuple[int, ...], ...]) -> None:
        self.length, self.basis = length, basis

    def __eq__(self, other) -> bool:
        return isinstance(other, TernaryCode) and (
            (self.length, self.basis) == (other.length, other.basis))

    def __hash__(self) -> int:
        return hash((self.length, self.basis))

    @classmethod
    def from_generators(cls, rows: Iterable[Sequence[int]],
                        length: int = LENGTH) -> "TernaryCode":
        """The code the rows span mod 3, read off the HNF of the full-rank
        lattice C + 3Z^n they span with 3I (Construction A), whose pivots are
        1 or 3: its pivot-1 rows, entries above each pivot reduced below it,
        are C's reduced row-echelon basis mod 3."""
        gens = [tuple(e % 3 for e in row) for row in rows]
        if any(len(row) != length for row in gens):
            raise ValueError("generator length mismatch")
        h = hnf(IntMatrix.from_rows([*gens, *IntMatrix.identity(length).scale(3).entries],
                                    length))
        return cls(length, tuple(row for row in h.entries if next(filter(None, row)) == 1))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def words(self) -> list[tuple[int, ...]]:
        return list(residue_sums(self.basis, (3,) * self.dim, 3, self.length))

    def to_json(self) -> dict:
        return {
            "order": list(LABELS[:self.length]),
            "generators": ["".join(str(e) for e in row) for row in self.basis],
        }


def golay_generators() -> list[tuple[int, ...]]:
    """The 12 generator words, one per index: all-ones for infinity, the
    doubled-on-theta word for 0, and its shifted images for 1..10."""
    w_inf = tuple([1] * LENGTH)
    w0 = tuple(1 if p == 0 else (2 if p - 1 in THETA else 1)
               for p in range(LENGTH))
    nu = shift_perm()
    words = [w_inf, w0]
    current = w0
    for _ in range(10):
        current = nu.apply_to_word(current)
        words.append(current)
    return words


def golay_code() -> TernaryCode:
    return TernaryCode.from_generators(golay_generators())


def weight_distribution(c: TernaryCode) -> dict[int, int]:
    """How many words of c have each weight, by ascending weight."""
    return dict(sorted(Counter(sum(1 for e in word if e) for word in c.words()).items()))


def stable_under(c: TernaryCode, perm: IndexPermutation) -> bool:
    # perm(c) has c's dimension, so it lies in c iff it is c; both bases are
    # the canonical RREF, so == decides it.
    return TernaryCode.from_generators(map(perm.apply_to_word, c.basis), c.length) == c


def is_self_dual(c: TernaryCode) -> bool:
    b = IntMatrix.from_rows(c.basis, c.length)
    return 2 * c.dim == c.length and not any(
        e % 3 for row in (b @ b.transpose()).entries for e in row)
