"""Simple Lie algebra data and the weight-one numerology built on it.

The type table (dimension, dual Coxeter number, root count for every simple
type up to dimension 250) ships as an embedded versioned JSON document; its
checksum is exposed so reports can pin the exact data they used.  On top of
the table sit the level formula, a constrained enumerator for semisimple
types of a given total dimension, and matching against the stored rows of
the central-charge-24 classification.

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
dimension left).  A query is counted
first, and one with more than ``MAX_CANDIDATES`` results raises
``LieDataError`` before any candidate is built.  No other package module is
imported at run time, nor ``dataclasses`` or ``hashlib``: ``TABLE_SHA256``
states the table's digest, and the tests recompute it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .roots import RootSystem

_TABLE_JSON = """\
{"version": 1, "max_dimension": 250, "types": [
{"dimension": 3, "dual_coxeter": 2, "family": "A", "rank": 1, "root_count": 2, "two_root_lengths": false},
{"dimension": 8, "dual_coxeter": 3, "family": "A", "rank": 2, "root_count": 6, "two_root_lengths": false},
{"dimension": 15, "dual_coxeter": 4, "family": "A", "rank": 3, "root_count": 12, "two_root_lengths": false},
{"dimension": 24, "dual_coxeter": 5, "family": "A", "rank": 4, "root_count": 20, "two_root_lengths": false},
{"dimension": 35, "dual_coxeter": 6, "family": "A", "rank": 5, "root_count": 30, "two_root_lengths": false},
{"dimension": 48, "dual_coxeter": 7, "family": "A", "rank": 6, "root_count": 42, "two_root_lengths": false},
{"dimension": 63, "dual_coxeter": 8, "family": "A", "rank": 7, "root_count": 56, "two_root_lengths": false},
{"dimension": 80, "dual_coxeter": 9, "family": "A", "rank": 8, "root_count": 72, "two_root_lengths": false},
{"dimension": 99, "dual_coxeter": 10, "family": "A", "rank": 9, "root_count": 90, "two_root_lengths": false},
{"dimension": 120, "dual_coxeter": 11, "family": "A", "rank": 10, "root_count": 110, "two_root_lengths": false},
{"dimension": 143, "dual_coxeter": 12, "family": "A", "rank": 11, "root_count": 132, "two_root_lengths": false},
{"dimension": 168, "dual_coxeter": 13, "family": "A", "rank": 12, "root_count": 156, "two_root_lengths": false},
{"dimension": 195, "dual_coxeter": 14, "family": "A", "rank": 13, "root_count": 182, "two_root_lengths": false},
{"dimension": 224, "dual_coxeter": 15, "family": "A", "rank": 14, "root_count": 210, "two_root_lengths": false},
{"dimension": 10, "dual_coxeter": 3, "family": "B", "rank": 2, "root_count": 8, "two_root_lengths": true},
{"dimension": 21, "dual_coxeter": 5, "family": "B", "rank": 3, "root_count": 18, "two_root_lengths": true},
{"dimension": 36, "dual_coxeter": 7, "family": "B", "rank": 4, "root_count": 32, "two_root_lengths": true},
{"dimension": 55, "dual_coxeter": 9, "family": "B", "rank": 5, "root_count": 50, "two_root_lengths": true},
{"dimension": 78, "dual_coxeter": 11, "family": "B", "rank": 6, "root_count": 72, "two_root_lengths": true},
{"dimension": 105, "dual_coxeter": 13, "family": "B", "rank": 7, "root_count": 98, "two_root_lengths": true},
{"dimension": 136, "dual_coxeter": 15, "family": "B", "rank": 8, "root_count": 128, "two_root_lengths": true},
{"dimension": 171, "dual_coxeter": 17, "family": "B", "rank": 9, "root_count": 162, "two_root_lengths": true},
{"dimension": 210, "dual_coxeter": 19, "family": "B", "rank": 10, "root_count": 200, "two_root_lengths": true},
{"dimension": 21, "dual_coxeter": 4, "family": "C", "rank": 3, "root_count": 18, "two_root_lengths": true},
{"dimension": 36, "dual_coxeter": 5, "family": "C", "rank": 4, "root_count": 32, "two_root_lengths": true},
{"dimension": 55, "dual_coxeter": 6, "family": "C", "rank": 5, "root_count": 50, "two_root_lengths": true},
{"dimension": 78, "dual_coxeter": 7, "family": "C", "rank": 6, "root_count": 72, "two_root_lengths": true},
{"dimension": 105, "dual_coxeter": 8, "family": "C", "rank": 7, "root_count": 98, "two_root_lengths": true},
{"dimension": 136, "dual_coxeter": 9, "family": "C", "rank": 8, "root_count": 128, "two_root_lengths": true},
{"dimension": 171, "dual_coxeter": 10, "family": "C", "rank": 9, "root_count": 162, "two_root_lengths": true},
{"dimension": 210, "dual_coxeter": 11, "family": "C", "rank": 10, "root_count": 200, "two_root_lengths": true},
{"dimension": 28, "dual_coxeter": 6, "family": "D", "rank": 4, "root_count": 24, "two_root_lengths": false},
{"dimension": 45, "dual_coxeter": 8, "family": "D", "rank": 5, "root_count": 40, "two_root_lengths": false},
{"dimension": 66, "dual_coxeter": 10, "family": "D", "rank": 6, "root_count": 60, "two_root_lengths": false},
{"dimension": 91, "dual_coxeter": 12, "family": "D", "rank": 7, "root_count": 84, "two_root_lengths": false},
{"dimension": 120, "dual_coxeter": 14, "family": "D", "rank": 8, "root_count": 112, "two_root_lengths": false},
{"dimension": 153, "dual_coxeter": 16, "family": "D", "rank": 9, "root_count": 144, "two_root_lengths": false},
{"dimension": 190, "dual_coxeter": 18, "family": "D", "rank": 10, "root_count": 180, "two_root_lengths": false},
{"dimension": 231, "dual_coxeter": 20, "family": "D", "rank": 11, "root_count": 220, "two_root_lengths": false},
{"dimension": 78, "dual_coxeter": 12, "family": "E", "rank": 6, "root_count": 72, "two_root_lengths": false},
{"dimension": 133, "dual_coxeter": 18, "family": "E", "rank": 7, "root_count": 126, "two_root_lengths": false},
{"dimension": 248, "dual_coxeter": 30, "family": "E", "rank": 8, "root_count": 240, "two_root_lengths": false},
{"dimension": 52, "dual_coxeter": 9, "family": "F", "rank": 4, "root_count": 48, "two_root_lengths": true},
{"dimension": 14, "dual_coxeter": 4, "family": "G", "rank": 2, "root_count": 12, "two_root_lengths": true}
]}
"""
# SHA-256 of the UTF-8 table text above; the tests recompute it.
TABLE_SHA256 = "e2fd2461333f4b44e8d5c1cdf59f94969215c4bae81caf4a1d5641e700b52a98"


class LieDataError(Exception):
    """Lookup or arithmetic outside what the embedded table supports."""


class SimpleLieData(NamedTuple):
    """One simple type: dimension, dual Coxeter number, root data."""

    family: str
    rank: int
    dimension: int
    dual_coxeter: int
    root_count: int
    two_root_lengths: bool

    @property
    def symbol(self) -> str:
        return f"{self.family}{self.rank}"


def table_checksum() -> str:
    """SHA-256 of the embedded table text, for report pinning: the stated
    ``TABLE_SHA256``, which the tests recompute from the text."""
    return TABLE_SHA256


def all_types() -> tuple[SimpleLieData, ...]:
    return _TYPES


def lookup(family: str, rank: int) -> SimpleLieData:
    key = (family, rank)
    if key not in _BY_KEY:
        raise LieDataError(f"no simple type {family}{rank} in the table "
                           "(canonical aliases: B2 for C2, A3 for D3)")
    return _BY_KEY[key]


def _load() -> tuple[SimpleLieData, ...]:
    types = tuple(SimpleLieData(**row) for row in json.loads(_TABLE_JSON)["types"])
    for t in types:
        if t.dimension != t.rank + t.root_count:
            raise LieDataError(f"table row {t.symbol} is inconsistent")
    return types


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
# The largest weight-one dimension on Schellekens' list (D24,1); counting
# takes time and memory linear in the dimension, so larger ones are refused.
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
    ``MAX_DIMENSION`` raises ``LieDataError``."""
    if dim > MAX_DIMENSION:
        raise LieDataError(f"dimension {dim} is above {MAX_DIMENSION}, the "
                           "largest weight-one dimension on Schellekens' list")
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
