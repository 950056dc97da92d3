"""Simple Lie type table, level arithmetic, candidate enumeration, and
matching against the stored weight-one classification rows."""

import gc
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import latorb
from latorb import liealg
from latorb.catalog import niemeier_bundle
from latorb.exactmat import IntMatrix
from latorb.lattice import Lattice
from latorb.liealg import (
    LieDataError,
    SemisimpleType,
    all_types,
    candidate_count,
    lattice_voa_weight_one,
    level_from_dim,
    lookup,
    parse_type_string,
    schellekens_match,
    schellekens_rows,
    semisimple_candidates,
    table_checksum,
)
from latorb.roots import enumerate_roots

TABLE_SHA256 = "e2fd2461333f4b44e8d5c1cdf59f94969215c4bae81caf4a1d5641e700b52a98"


def test_table_checksum_is_pinned(monkeypatch):
    def digest():
        return hashlib.sha256(liealg._TABLE_JSON.encode("utf-8")).hexdigest()

    assert table_checksum() == liealg.TABLE_SHA256 == digest() == TABLE_SHA256
    # The stated digest is checked against the text: one edited character fails.
    text = liealg._TABLE_JSON
    edited = text.replace('"rank": 1,', '"rank": 7,', 1)
    assert sum(a != b for a, b in zip(text, edited)) == 1 and len(edited) == len(text)
    monkeypatch.setattr(liealg, "_TABLE_JSON", edited)
    assert digest() != table_checksum()


def test_table_row_invariants():
    types = all_types()
    assert len(types) == 44
    assert len({(t.family, t.rank) for t in types}) == 44
    for t in types:
        assert t.dimension == t.rank + t.root_count
        assert 0 < t.dimension <= 250
        assert t.dual_coxeter >= 2
        assert t.two_root_lengths == (t.family in "BCFG")


def test_table_canonical_aliases():
    # B2 stands for C2 and A3 for D3; the alias spellings are absent.
    lookup("B", 2)
    lookup("A", 3)
    for family, rank in [("C", 2), ("D", 3), ("D", 2), ("B", 1), ("C", 1)]:
        with pytest.raises(LieDataError):
            lookup(family, rank)


def test_table_spot_values():
    cases = {
        ("A", 1): (3, 2), ("A", 2): (8, 3), ("A", 5): (35, 6),
        ("B", 2): (10, 3), ("C", 3): (21, 4), ("D", 4): (28, 6),
        ("D", 7): (91, 12), ("E", 6): (78, 12), ("E", 7): (133, 18),
        ("E", 8): (248, 30), ("F", 4): (52, 9), ("G", 2): (14, 4),
    }
    for (family, rank), (dim, hv) in cases.items():
        t = lookup(family, rank)
        assert (t.dimension, t.dual_coxeter) == (dim, hv)


def test_level_from_dim():
    assert level_from_dim(3, 48) == 3
    assert level_from_dim(12, 120) == 3
    assert level_from_dim(2, 72) == 1
    assert level_from_dim(5, 60) is None
    with pytest.raises(LieDataError):
        level_from_dim(3, 24)


def test_candidates_dim78_coxeter_div4():
    cands = semisimple_candidates(78, hcoxeter_divisor=4)
    assert [c.type_string() for c in cands] == [
        "A7 A3", "C3 A3 G2^3", "C3^3 A3", "E6"]
    for c in cands:
        assert c.dimension == 78
        for t, _ in c.components:
            assert t.dual_coxeter % 4 == 0


def test_candidates_dim42_coxeter_div4():
    cands = semisimple_candidates(42, hcoxeter_divisor=4)
    assert [c.type_string() for c in cands] == ["C3^2", "G2^3"]


def test_candidates_dim35_coxeter_div2():
    cands = semisimple_candidates(35, hcoxeter_divisor=2)
    assert [c.type_string() for c in cands] == [
        "A3 G2 A1^2", "A5", "C3 G2", "G2 A1^7"]


def test_candidates_dim28_coxeter_div2():
    cands = semisimple_candidates(28, hcoxeter_divisor=2)
    assert [c.type_string() for c in cands] == ["D4", "G2^2"]


def test_candidates_dim24_rank6():
    # The rank-6 dimension-24 run has three solutions; A3 A1^3 is the one
    # the stored classification does not list, and it must not be dropped.
    cands = semisimple_candidates(24, rank=6)
    strings = [c.type_string() for c in cands]
    assert strings == ["A2^3", "A3 A1^3", "B2 A2 A1^2"]
    assert all(c.rank == 6 and c.dimension == 24 for c in cands)


def test_candidate_level_rendering():
    cands = semisimple_candidates(78, hcoxeter_divisor=4)
    e6 = next(c for c in cands if c.type_string() == "E6")
    assert e6.type_string({("E", 6): 3}) == "E6,3"


def test_candidates_edge_cases():
    assert semisimple_candidates(0) == []
    assert semisimple_candidates(1) == []
    assert semisimple_candidates(3) != []  # A1 alone
    assert semisimple_candidates(3, rank=2) == []


def reference_candidates(dim, rank=None, hcoxeter_divisor=1):
    """The per-component search the enumerator replaced, kept as a reference.

    One recursion level per component; equal neighbours are grouped into
    (type, count) pairs at the end and the list is sorted by type string.
    """
    if dim <= 0:
        return []
    pool = sorted((t for t in all_types()
                   if t.dimension <= dim and t.dual_coxeter % hcoxeter_divisor == 0),
                  key=lambda t: (-t.dimension, t.family, -t.rank))
    found = []
    chosen = []

    def search(start, dim_left, rank_left):
        if dim_left == 0:
            if rank_left in (None, 0):
                counts = []
                for t in chosen:
                    if counts and counts[-1][0] == t:
                        counts[-1] = (t, counts[-1][1] + 1)
                    else:
                        counts.append((t, 1))
                found.append(tuple(counts))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.dimension > dim_left:
                continue
            if rank_left is not None and t.rank > rank_left:
                continue
            chosen.append(t)
            search(i, dim_left - t.dimension,
                   None if rank_left is None else rank_left - t.rank)
            chosen.pop()

    search(0, dim, rank)
    found.sort(key=rebuilt_type_string)
    return found


def rebuilt_type_string(components, levels=None):
    names = [t.symbol if levels is None else f"{t.symbol},{levels[t.family, t.rank]}"
             for t, _ in components]
    return " ".join(name if c == 1 else f"{name}^{c}"
                    for name, (_, c) in zip(names, components))


DIFFERENTIAL_GRID = (
    [(dim, rank, divisor) for dim in range(1, 91)
     for rank in (None, 2, 6, 12, dim // 3, dim // 4) for divisor in (1, 2, 3, 4)]
    + [(120, None, 1), (150, None, 1)])


def test_candidates_match_reference_search():
    rng = random.Random(7)
    levels = {(t.family, t.rank): rng.randint(1, 30) for t in all_types()}
    for dim, rank, divisor in DIFFERENTIAL_GRID:
        got = semisimple_candidates(dim, rank=rank, hcoxeter_divisor=divisor)
        want = reference_candidates(dim, rank=rank, hcoxeter_divisor=divisor)
        assert [c.components for c in got] == want, (dim, rank, divisor)
        assert candidate_count(dim, rank, divisor) == len(got), (dim, rank, divisor)
        for cand in got:
            assert cand.type_string() == rebuilt_type_string(cand.components)
            assert cand.type_string(levels) == rebuilt_type_string(cand.components, levels)


def count_search_calls(dim, rank=None, hcoxeter_divisor=1):
    """Calls of the enumerator's recursive search for one query, and the
    (start, dimension left) arguments of each call that fills its memo.

    On each return of ``search`` and ``complete`` it also checks the early
    exit against a (dimension, rank) knapsack over the pool, built here:
    ``search`` stops at the first pool index from where its loop began that
    cannot reach the dimension and rank left (the dimension alone without a
    rank bound), and ``complete`` at the first that cannot reach the
    dimension left."""
    calls, fills, sums = 0, [], None

    def profile(frame, event, arg):
        nonlocal calls, sums
        code = frame.f_code
        if code.co_filename != liealg.__file__ or code.co_name not in ("search", "complete"):
            return
        local = frame.f_locals
        pool, left = local["pool"], local["dim_left"]
        if event == "call" and code.co_name == "search":
            calls += 1
        elif event == "call":
            fills.append((local["start"], left))
        elif event == "return":
            if sums is None:
                # sums[j][s]: the ranks of the multisets of dimension s from pool[j:].
                sums = [[{0}] + [set() for _ in range(dim)]]
                for t in reversed(pool):
                    row = [set(ranks) for ranks in sums[-1]]
                    for s in range(t.dimension, dim + 1):
                        row[s] |= {r + t.rank for r in row[s - t.dimension]}
                    sums.append(row)
                sums.reverse()
            exact = rank is not None and code.co_name == "search"
            begin = next((j for j in range(local["start"], len(pool))
                          if pool[j].dimension <= left), len(pool))
            dead = next((j for j in range(begin, len(pool)) if not sums[j][left]
                         or exact and local["rank_left"] not in sums[j][left]), None)
            assert dead is None or local["i"] == dead, (code.co_name, local["start"], left)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        semisimple_candidates(dim, rank=rank, hcoxeter_divisor=hcoxeter_divisor)
    finally:
        sys.setprofile(previous)
    return calls, fills


@pytest.mark.parametrize("dim, divisor", [(60, 1), (90, 1), (90, 2), (78, 4)])
def test_search_calls_follow_output(dim, divisor):
    # The search recurses only while more than MEMO_DIMENSION is left, and
    # only into a prefix that the rest of the pool completes to a candidate
    # of the query, rank bound included: every call extends a proper prefix
    # of a candidate of that query with more than MEMO_DIMENSION left, each
    # such prefix is searched once, and a query with no candidate searches
    # nothing.  Smaller rests come from the memo, whose entries are each
    # filled once, so there are at most len(pool) * MEMO_DIMENSION of them.
    pool = [t for t in all_types() if t.dimension <= dim and t.dual_coxeter % divisor == 0]
    for rank in (None, 4, 9, 10, dim // 3):
        cands = semisimple_candidates(dim, rank=rank, hcoxeter_divisor=divisor)
        prefixes = {c.components[:j] for c in cands for j in range(1, len(c.components))}
        want = 0
        if cands:
            want = 1 + sum(1 for p in prefixes
                           if dim - sum(t.dimension * m for t, m in p) > liealg.MEMO_DIMENSION)
        calls, fills = count_search_calls(dim, rank=rank, hcoxeter_divisor=divisor)
        assert calls == want, rank
        assert len(set(fills)) == len(fills) <= len(pool) * liealg.MEMO_DIMENSION
        assert all(0 < left <= liealg.MEMO_DIMENSION for _, left in fills)


def test_candidates_leave_one_tracked_object_each():
    # Components are stored as int codes, and the cyclic GC stops tracking a
    # tuple of ints at the first collection, so each candidate leaves only
    # its own object (two each when they held (type, count) tuples).
    gc.collect()
    before = len(gc.get_objects())
    cands = semisimple_candidates(120)
    gc.collect()
    assert len(gc.get_objects()) - before <= len(cands) + 100


def test_semisimple_type_of_root_system_components():
    g = SemisimpleType.of([("A", 1), ("E", 6), ("A", 1), ("D", 4), ("A", 1)])
    assert g.type_string() == "E6 D4 A1^3"
    assert [(t.symbol, c) for t, c in g.components] == [("E6", 1), ("D4", 1), ("A1", 3)]
    assert (g.dimension, g.rank) == (115, 13)
    assert g == next(c for c in semisimple_candidates(115, rank=13) if c.text == g.text)


def test_candidate_limit_raises(monkeypatch):
    count = len(semisimple_candidates(30))
    monkeypatch.setattr(liealg, "MAX_CANDIDATES", count)
    assert len(semisimple_candidates(30)) == count
    monkeypatch.setattr(liealg, "MAX_CANDIDATES", count - 1)
    with pytest.raises(LieDataError, match="more than"):
        semisimple_candidates(30)


def test_counting_work_is_bounded_by_the_input(monkeypatch):
    # A dimension past Schellekens' list is refused before the knapsack is
    # built.  Every simple type has dimension >= 3 rank, so a rank above a
    # third of the dimension admits no type at all, and a third admits A1 only.
    with pytest.raises(LieDataError, match="above 1128"):
        candidate_count(liealg.MAX_DIMENSION + 1)
    assert candidate_count(liealg.MAX_DIMENSION) > liealg.MAX_CANDIDATES
    assert candidate_count(24, rank=6) == len(semisimple_candidates(24, rank=6))
    assert [c.text for c in semisimple_candidates(600, rank=200)] == ["A1^200"]
    # The rest return before the type table is read for a knapsack.
    monkeypatch.setattr(liealg, "_TYPES", None)
    assert candidate_count(24, rank=10 ** 6) == 0 == len(semisimple_candidates(24, rank=24))
    assert candidate_count(24, rank=-1) == 0 == len(semisimple_candidates(24, rank=-1))
    assert candidate_count(1128, rank=377) == 0 == len(semisimple_candidates(600, rank=201))


def test_refused_query_builds_no_candidate(monkeypatch):
    built = []
    monkeypatch.setattr(liealg, "SemisimpleType", lambda *fields: built.append(fields))
    monkeypatch.setattr(liealg, "MAX_CANDIDATES", candidate_count(30) - 1)
    with pytest.raises(LieDataError, match="more than"):
        semisimple_candidates(30)
    assert built == []
    assert candidate_count(0) == candidate_count(-5) == 0


def test_liealg_imports_no_other_latorb_module():
    src = str(Path(latorb.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    loaded = ("sorted(m for m in sys.modules if m.startswith('latorb') "
              "or m in ('fractions', 'dataclasses', 'hashlib', '_hashlib'))")
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, latorb.liealg; print({loaded}); "
         f"latorb.liealg.table_checksum(); print({loaded})"],
        env=env, capture_output=True, text=True, check=True).stdout
    # The table checksum is a stated value: asking for it loads no hashlib.
    assert out.splitlines() == ["['latorb', 'latorb.liealg']"] * 2


def test_parse_type_string():
    parsed = parse_type_string("A5,3 D4,3 A1,1^3")
    assert [(t.symbol, level, count) for t, level, count in parsed] == [
        ("A5", 3, 1), ("D4", 3, 1), ("A1", 1, 3)]
    with pytest.raises(LieDataError):
        parse_type_string("A5 D4")
    for text in ("A2,3^-1", "A2,3^0", "A2,0", "A2,-3"):
        with pytest.raises(LieDataError, match="at least 1"):
            parse_type_string(text)
    # int() would take a sign, an underscore or a fullwidth digit.
    for text in ("A+2,3^6", "A2,3^+6", "A2,3^0_6", "A\uff12,3^6"):
        with pytest.raises(LieDataError, match="is not X<rank>,<level>"):
            parse_type_string(text)


def test_schellekens_rows_are_consistent():
    rows = schellekens_rows()
    assert [r.number for r in rows] == [
        3, 4, 6, 8, 9, 11, 14, 17, 20, 21, 27, 28, 32, 34, 45]
    for row in rows:
        parsed = parse_type_string(row.type_string)
        total = sum(t.dimension * count for t, _, count in parsed)
        assert total == row.dim_v1
        for t, level, _ in parsed:
            assert level_from_dim(t.dual_coxeter, row.dim_v1) == level


def test_schellekens_match():
    assert schellekens_match(48, "A2,3^6") == [6]
    assert schellekens_match(120, "E6,3 G2,1^3") == [32]
    assert schellekens_match(72, "A5,3 D4,3 A1,1^3") == [17]
    assert schellekens_match(72, "D4,3") == [17]  # partial type
    assert schellekens_match(96) == [27, 28]
    assert schellekens_match(48, "E6,3") == []
    assert schellekens_match(49) == []


def test_lattice_voa_weight_one_semisimple():
    cases = {
        "A2_12": ("A2,1^12", 96),
        "D4_6": ("D4,1^6", 168),
        "A5_4_D4": ("A5,1^4 D4,1", 168),
        "E6_4": ("E6,1^4", 312),
    }
    for key, (type_string, dim) in cases.items():
        out = lattice_voa_weight_one(niemeier_bundle(key).root_system)
        assert out == {"kind": "semisimple", "type": type_string,
                       "dimension": dim}


def test_lattice_voa_weight_one_abelian():
    rootless = Lattice(gram=IntMatrix.from_rows([[4]], cols=1))
    out = lattice_voa_weight_one(enumerate_roots(rootless))
    assert out == {"kind": "abelian", "dimension": 1}
