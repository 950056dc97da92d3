"""Simple Lie algebra data and the weight-one numerology built on it.

The type table holds the dimension and dual Coxeter number of every simple
type up to dimension ``TABLE_DIMENSION``, built at import from the closed
forms of the four classical families and the five exceptional rows; its
checksum ``TABLE_SHA256`` lets reports pin the exact data they used.  On top of
the table sit the level formula, a constrained enumerator for semisimple
types of a given total dimension, whose rows ``candidate_entries`` levels at
h / d, and matching against the stored rows of the central-charge-24
classification.

A candidate stores its components as ints: every (type, count) pair up to
``MAX_DIMENSION`` is numbered once at import, in component order, and the
per-code tables give its pair, dimension, rank and type-string labels.  The
cyclic GC stops tracking a tuple of ints at the first collection it
survives, so a built candidate leaves one tracked object, not a tree of
tuples; ``components`` rebuilds the shared pairs when read.

The enumerator recurses one level per simple type, choosing its count, and
enters a branch only if a reachability table per suffix of the type pool
(one int per dimension, bit r for rank r) says the rest of the dimension and
rank is reachable, so its work follows its output; a query with no rank
bound gives every type rank 0 and runs the same code.  Type strings are
built on the way down and stored.  Once the dimension left is at most
``MEMO_DIMENSION`` it stops recursing and joins the prefix to every
completion of the rank left from a per-query memo keyed by (pool index,
dimension left).  A query above ``TABLE_DIMENSION``, where a type the table
lacks could be a component, raises ``LieDataError``; any other is counted
first, and one with more than ``MAX_CANDIDATES`` results raises
``LieDataError`` before any candidate is built.  No other package module is
imported at run time, nor ``json``, ``dataclasses`` or ``hashlib``:
``TABLE_SHA256`` states the table's digest, and the tests recompute it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .roots import RootSystem

# The largest dimension of a simple type in the table; above it the table
# would miss types (B11 and C11 have dimension 253, A15 255, D12 276).
TABLE_DIMENSION = 250
# SHA-256 of the table rendered as version-1 JSON text, one row a line with
# the columns dimension, dual Coxeter number, family, rank, root count and
# two root lengths; the tests render all_types() and recompute it.
TABLE_SHA256 = "e2fd2461333f4b44e8d5c1cdf59f94969215c4bae81caf4a1d5641e700b52a98"


class LieDataError(Exception):
    """Lookup or arithmetic outside what the embedded table supports."""


class SimpleLieData(NamedTuple):
    """One simple type: its dimension and dual Coxeter number."""

    family: str
    rank: int
    dimension: int
    dual_coxeter: int

    @property
    def symbol(self) -> str:
        return f"{self.family}{self.rank}"


def all_types() -> tuple[SimpleLieData, ...]:
    return _TYPES


def lookup(family: str, rank: int) -> SimpleLieData:
    key = (family, rank)
    if key not in _BY_KEY:
        raise LieDataError(f"no simple type {family}{rank} in the table "
                           "(canonical aliases: B2 for C2, A3 for D3)")
    return _BY_KEY[key]


def _load() -> tuple[SimpleLieData, ...]:
    """Each classical family from its lowest rank that is no alias while the
    dimension stays within TABLE_DIMENSION, then E6, E7, E8, F4 and G2 (Kac,
    *Infinite-dimensional Lie algebras*, Table Aff 1; Humphreys, §12)."""
    families = (("A", 1, lambda n: (n * (n + 2), n + 1)),
                ("B", 2, lambda n: (n * (2 * n + 1), 2 * n - 1)),
                ("C", 3, lambda n: (n * (2 * n + 1), n + 1)),
                ("D", 4, lambda n: (n * (2 * n - 1), 2 * n - 2)))
    types = []
    for family, n, data in families:
        while data(n)[0] <= TABLE_DIMENSION:
            types.append(SimpleLieData(family, n, *data(n)))
            n += 1
    exceptional = (("E", 6, 78, 12), ("E", 7, 133, 18), ("E", 8, 248, 30),
                   ("F", 4, 52, 9), ("G", 2, 14, 4))
    return tuple(types) + tuple(SimpleLieData(*row) for row in exceptional)


_TYPES = _load()
_BY_KEY = {(t.family, t.rank): t for t in _TYPES}


def level_from_dim(dual_coxeter: int, dim_v1: int) -> int | None:
    """Level k with h/k = (dim_v1 - 24)/24; None when k is not an integer.

    dim_v1 is the full weight-one dimension of the ambient algebra, which
    fixes the ratio h/k for every simple summand.
    """
    if dim_v1 <= 24:
        raise LieDataError("level formula needs weight-one dimension > 24")
    k, rest = divmod(24 * dual_coxeter, dim_v1 - 24)
    return None if rest else k


MAX_CANDIDATES = 400_000  # per query; dimension 200 has 280,240
# Codes number each (type, count) pair up to this dimension, the largest
# weight-one dimension on Schellekens' list (D24,1): ``SemisimpleType.of``
# names root systems above TABLE_DIMENSION, such as E6^4 of dimension 312.
MAX_DIMENSION = 1128
# At or below this dimension left, completions come from a per-query memo
# instead of the recursion.  For an unbounded query at dimension 180 the memo
# holds 426 entries and 2,177 completions (459 and 2,401 at 200), and a
# process that runs the query peaks at 46 MB (84 MB at 200; 44 and 83 MB for
# the plain recursion).  Memoizing every dimension peaks at 86 and 187 MB.
MEMO_DIMENSION = 40


def _component_sort_key(t: SimpleLieData):
    return (-t.dimension, t.family, -t.rank)


def _code_tables():
    """One code per (type, count) pair up to MAX_DIMENSION, numbered in
    component order and then by count, so a candidate's codes ascend and
    (t, c) has code first[t] + c - 1.  Per code: the shared pair, its
    dimension and rank, its label in a plain type string (led by a space)
    and its ("name,", table key, "^count") label in a levelled one; a
    type's codes share its name and key."""
    # A1, of dimension 3, has the most counts.
    powers = ("",) + tuple(f"^{c}" for c in range(2, MAX_DIMENSION // 3 + 1))
    first, pairs, dims, ranks, labels, level_labels = {}, [], [], [], [], []
    for t in sorted(_TYPES, key=_component_sort_key):
        n = MAX_DIMENSION // t.dimension
        first[t] = len(pairs)
        pairs += zip(repeat(t), range(1, n + 1))
        dims += range(t.dimension, n * t.dimension + 1, t.dimension)
        ranks += range(t.rank, n * t.rank + 1, t.rank)
        labels += [f" {t.symbol}{power}" for power in powers[:n]]
        level_labels += zip(repeat(f"{t.symbol},"), repeat((t.family, t.rank)), powers[:n])
    return first, tuple(pairs), tuple(dims), tuple(ranks), tuple(labels), tuple(level_labels)


_FIRST_CODE, _PAIRS, _CODE_DIMENSION, _CODE_RANK, _CODE_LABEL, _CODE_LEVEL_LABEL = _code_tables()


class SemisimpleType:
    """A multiset of simple components with a common level rule applied."""

    __slots__ = ("codes", "text")

    def __init__(self, codes: tuple[int, ...], text: str) -> None:
        self.codes = codes  # ascending component codes
        self.text = text  # type_string() without levels

    def __eq__(self, other) -> bool:  # equal and hashed by codes alone
        return isinstance(other, SemisimpleType) and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        return f"SemisimpleType(text={self.text!r})"

    @property
    def components(self) -> tuple[tuple[SimpleLieData, int], ...]:
        """(type, count) pairs, by descending dimension."""
        return tuple([_PAIRS[code] for code in self.codes])

    @property
    def dimension(self) -> int:
        return sum(_CODE_DIMENSION[code] for code in self.codes)

    @property
    def rank(self) -> int:
        return sum(_CODE_RANK[code] for code in self.codes)

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, int]]) -> "SemisimpleType":
        """The type with these (family, rank) components, as a root system's."""
        counts = Counter(lookup(family, rank) for family, rank in pairs)
        codes = tuple(sorted(_FIRST_CODE[t] + c - 1 for t, c in counts.items()))
        return cls(codes, "".join(_CODE_LABEL[code] for code in codes)[1:])

    def type_string(self, levels: dict | None = None) -> str:
        if levels is None:
            return self.text
        parts = []
        for code in self.codes:
            name, key, power = _CODE_LEVEL_LABEL[code]
            parts.append(f"{name}{levels[key]}{power}")
        return " ".join(parts)


def candidate_count(dim: int, rank: int | None = None, hcoxeter_divisor: int = 1) -> int:
    """How many candidates ``semisimple_candidates`` returns, counted without
    building them: a knapsack over its pool by dimension and rank, where a
    query with no rank bound gives every type rank 0.  A dimension above
    ``TABLE_DIMENSION`` raises ``LieDataError``."""
    if dim > TABLE_DIMENSION:
        raise LieDataError(f"dimension {dim} is above {TABLE_DIMENSION}, the bound of "
                           "the simple type table: a type it lacks could be a component")
    unit, rank = (0, 0) if rank is None else (1, rank)
    if dim <= 0 or not 0 <= 3 * rank <= dim:
        return 0  # every simple type has dimension >= 3 rank
    ways = [[0] * (rank + 1) for _ in range(dim + 1)]  # ways[s][r]: dimension s, rank r
    ways[0][0] = 1
    for t in _TYPES:
        if t.dual_coxeter % hcoxeter_divisor == 0:
            d, r = t.dimension, unit * t.rank
            for s in range(d, dim + 1):
                for q in range(r, rank + 1):
                    ways[s][q] += ways[s - d][q - r]
    return ways[dim][rank]


def semisimple_candidates(dim: int, rank: int | None = None,
                          hcoxeter_divisor: int = 1) -> list[SemisimpleType]:
    """All semisimple types with the given total dimension.

    Args:
        dim: required total dimension.
        rank: required total rank, or None for unconstrained.
        hcoxeter_divisor: every component's dual Coxeter number must be a
            multiple of this (equivalently, its level k = h/divisor is a
            positive integer when the ambient weight-one ratio is divisor).

    Returns:
        Deterministically sorted list; each candidate's components are
        ordered by descending dimension.  LieDataError is raised instead,
        before any is built, when there are more than MAX_CANDIDATES.
    """
    count = candidate_count(dim, rank, hcoxeter_divisor)
    if not count:
        return []
    if count > MAX_CANDIDATES:
        raise LieDataError(f"more than {MAX_CANDIDATES} candidates of "
                           f"dimension {dim}: {count}")
    unit, rank = (0, 0) if rank is None else (1, rank)
    pool = sorted((t for t in _TYPES
                   if t.dimension <= dim and t.dual_coxeter % hcoxeter_divisor == 0),
                  key=_component_sort_key)
    neg_dims = [-t.dimension for t in pool]  # ascending, for bisect
    # reach[i][s] has bit r set iff pool[i:] has a multiset of dimension s
    # and rank r (every rank 0 in a query with no rank bound).
    reach = [[1] + [0] * dim]
    for t in reversed(pool):
        row, d, r = reach[-1][:], t.dimension, unit * t.rank
        for s in range(d, dim + 1):
            row[s] |= row[s - d] << r
        reach.append(row)
    reach.reverse()
    # (dimension, rank, code, label) for each count of each pool type.
    steps = [[(_CODE_DIMENSION[code], unit * _CODE_RANK[code], code, _CODE_LABEL[code])
              for code in range(_FIRST_CODE[t], _FIRST_CODE[t] + dim // t.dimension)]
             for t in pool]
    found: list[SemisimpleType] = []
    # tails[start, s]: (codes, text, rank) of every completion of dimension
    # s <= MEMO_DIMENSION from pool[start:], texts led by a space.  A
    # reachable s has at least one, so an empty entry never occurs.
    tails: dict[tuple[int, int], list] = {}

    def complete(start: int, dim_left: int) -> list:
        out = []
        for i in range(bisect_left(neg_dims, -dim_left, start), len(pool)):
            if not reach[i][dim_left]:
                break
            after = reach[i + 1]
            for used, rank_used, code, label in steps[i]:
                left = dim_left - used
                if left < 0:
                    break
                if not after[left]:
                    continue
                if not left:
                    out.append(((code,), label, rank_used))
                    continue
                for codes, text, tail_rank in tails.get((i + 1, left)) or complete(i + 1, left):
                    out.append(((code,) + codes, label + text, rank_used + tail_rank))
        tails[start, dim_left] = out
        return out

    def search(start: int, dim_left: int, rank_left: int,
               codes: tuple, text: str) -> None:
        # codes and text (led by a space) are the components chosen so far.
        for i in range(bisect_left(neg_dims, -dim_left, start), len(pool)):
            if not reach[i][dim_left] >> rank_left & 1:
                return
            after = reach[i + 1]
            for used, rank_used, code, label in steps[i]:
                left, need = dim_left - used, rank_left - rank_used
                if left < 0 or need < 0:
                    break
                if not after[left] >> need & 1:
                    continue
                if left > MEMO_DIMENSION:
                    search(i + 1, left, need, codes + (code,), text + label)
                    continue
                head, head_text = codes + (code,), (text + label)[1:]
                if not left:
                    found.append(SemisimpleType(head, head_text))
                    continue
                for tail_codes, tail_text, tail_rank in \
                        tails.get((i + 1, left)) or complete(i + 1, left):
                    if tail_rank == need:
                        found.append(SemisimpleType(head + tail_codes, head_text + tail_text))

    search(0, dim, rank, (), "")
    found.sort(key=lambda c: c.text)
    return found


def candidate_entries(dim: int, rank: int | None, hcoxeter_divisor: int) -> list[dict]:
    """The candidates of one query as rows: each type string without and with
    the levels h / ``hcoxeter_divisor``, its dimension and its rank."""
    levels = {key: t.dual_coxeter // hcoxeter_divisor for key, t in _BY_KEY.items()}
    return [{"type": cand.text, "with_levels": cand.type_string(levels),
             "dimension": cand.dimension, "rank": cand.rank}
            for cand in semisimple_candidates(dim, rank=rank, hcoxeter_divisor=hcoxeter_divisor)]


class SchellekensRow(NamedTuple):
    number: int
    dim_v1: int
    type_string: str


# The fifteen stored rows of the rank-24 weight-one classification that
# this package's constructions and cross-checks touch.
_SCHELLEKENS_ROWS = (
    SchellekensRow(3, 36, "D4,12 A2,6"),
    SchellekensRow(4, 36, "C4,10"),
    SchellekensRow(6, 48, "A2,3^6"),
    SchellekensRow(8, 48, "A5,6 B2,3 A1,2"),
    SchellekensRow(9, 48, "A4,5^2"),
    SchellekensRow(11, 48, "A6,7"),
    SchellekensRow(14, 60, "F4,6 A2,2"),
    SchellekensRow(17, 72, "A5,3 D4,3 A1,1^3"),
    SchellekensRow(20, 72, "D6,5 A1,1^2"),
    SchellekensRow(21, 72, "C5,3 G2,2 A1,1"),
    SchellekensRow(27, 96, "A8,3 A2,1^2"),
    SchellekensRow(28, 96, "E6,4 B2,1 A2,1"),
    SchellekensRow(32, 120, "E6,3 G2,1^3"),
    SchellekensRow(34, 120, "D7,3 A3,1 G2,1"),
    SchellekensRow(45, 168, "E7,3 A5,1"),
)


def schellekens_rows() -> tuple[SchellekensRow, ...]:
    return _SCHELLEKENS_ROWS


def parse_type_string(text: str) -> tuple[tuple[SimpleLieData, int, int], ...]:
    """Parse "A5,3 D4,3 A1,1^3" into ((type, level, count), ...) tuples."""
    out = []
    for token in text.split():
        head, caret, mult = token.partition("^")
        name, _, level_text = head.partition(",")
        if not level_text:
            raise LieDataError(f"component {token!r} has no level")
        numbers = (name[1:], level_text, mult if caret else "1")
        # int() also takes "+", "_" and non-ASCII digits; a "-" is left for
        # the range check below.
        if not all(t.removeprefix("-").isdigit() and t.isascii() for t in numbers):
            raise LieDataError(f"component {token!r} is not X<rank>,<level>[^<count>]")
        rank, level, count = map(int, numbers)
        if level < 1 or count < 1:
            raise LieDataError(f"component {token!r} needs a level and count of at least 1")
        out.append((lookup(name[:1], rank), level, count))
    return tuple(out)


@lru_cache(maxsize=256)
def _multiset(type_text: str) -> dict[tuple[str, int, int], int]:
    counts: dict[tuple[str, int, int], int] = {}
    for t, level, count in parse_type_string(type_text):
        key = (t.family, t.rank, level)
        counts[key] = counts.get(key, 0) + count
    return counts


def schellekens_match(dim_v1: int, type_text: str | None = None) -> list[int]:
    """Stored rows with the given weight-one dimension and compatible type.

    A partial type (a sub-multiset of a row's components, levels included)
    matches; None matches on dimension alone.
    """
    query = _multiset(type_text) if type_text else {}
    hits = []
    for row in _SCHELLEKENS_ROWS:
        if row.dim_v1 != dim_v1:
            continue
        stored = _multiset(row.type_string)
        if all(stored.get(key, 0) >= count for key, count in query.items()):
            hits.append(row.number)
    return hits


def lattice_voa_weight_one(rs: RootSystem) -> dict:
    """Weight-one algebra of a lattice construction: type at level one.

    A root system present means semisimple with every level 1; no roots
    means abelian of dimension equal to the rank.
    """
    if rs.count == 0:
        return {"kind": "abelian", "dimension": rs.lattice.rank}
    g = SemisimpleType.of((comp.family, comp.rank) for comp in rs.components)
    return {"kind": "semisimple", "type": g.type_string(dict.fromkeys(_BY_KEY, 1)),
            "dimension": g.dimension}
