"""lie_sweep: the candidate queries latorb serves, replayed in seeded order.

Each operation is one sweep over a fixed set of
``liealg.semisimple_candidates`` queries (dimension, rank bound, dual
Coxeter divisor d), each processed the way latorb's own code processes it:

* ``CATALOG``: the five queries ``verify-all`` issues, copied from
  ``orbifold._CANDIDATE_QUERIES``.  As ``orbifold._candidate_entries``
  does, every candidate is levelled with ``level_from_dim`` at the
  weight-one dimension 24 (d + 1); as the verify step does, its levelled
  type is looked up with ``schellekens_match``.
* ``SCALING``: ``latorb candidates --dim N`` at d = 1 for N = 150 and 180,
  two of the points at which enumeration time was measured when the
  benchmark was defined (0.7 and 3.6 s; it grows about fivefold per 30
  dimensions).  As ``cli.cmd_candidates`` does, every candidate gets its
  type string with and without the levels h / d.  The third point, 200,
  is left out: on a 2-core host one such query took 13-15 s and the run
  peaked at 785 MB, so a 55 s run held a single sweep.  So is the
  unbounded ``--dim 250`` case.

The seed fixes the order of the seven queries in every sweep.  The
candidate count of every query is checked against an independent count.
"""

from __future__ import annotations

import random
import statistics

from common import (Op, Outcome, closed_loop, cold_imports, peak_rss_mb,
                    timed)
from tracer import InProcessTrace

CATALOG = ((24, 6, 1), (78, None, 4), (28, None, 2), (35, None, 2), (42, None, 4))
SCALING = ((150, None, 1), (180, None, 1))
# Cold imports timed before and after the measured loop; setup_s is their
# median, so drift during the run moves it less than a burst at the start.
SETUP_REPEATS = 8


def count_candidates(types, dim: int, rank: int | None, divisor: int) -> int:
    """Multisets of simple types of total dimension ``dim`` (and rank), by DP.

    Independent of ``semisimple_candidates``: a knapsack count over
    ``liealg.all_types()`` filtered by the divisor.
    """
    pool = [(t.dimension, t.rank) for t in types if t.dual_coxeter % divisor == 0]
    max_rank = rank if rank is not None else 0
    ways = [[0] * (max_rank + 1) for _ in range(dim + 1)]
    ways[0][0] = 1
    for d, r in pool:
        step_r = r if rank is not None else 0
        for total in range(d, dim + 1):
            src, dst = ways[total - d], ways[total]
            for k in range(step_r, max_rank + 1):
                dst[k] += src[k - step_r]
    return ways[dim][max_rank]


def catalog_query(liealg, dim: int, rank: int | None, divisor: int):
    """Enumerate, level every component, match the levelled type."""
    total = 24 * (divisor + 1)
    out = []
    for cand in liealg.semisimple_candidates(dim, rank=rank, hcoxeter_divisor=divisor):
        levels = {(t.family, t.rank): liealg.level_from_dim(t.dual_coxeter, total)
                  for t, _ in cand.components}
        out.append((cand, levels, liealg.schellekens_match(total, cand.type_string(levels))))
    return out


def scaling_query(liealg, dim: int, rank: int | None, divisor: int):
    """Enumerate and write each type string with and without levels h / d."""
    out = []
    for cand in liealg.semisimple_candidates(dim, rank=rank, hcoxeter_divisor=divisor):
        levels = {(t.family, t.rank): t.dual_coxeter // divisor for t, _ in cand.components}
        out.append((cand, levels, (cand.type_string(), cand.type_string(levels))))
    return out


def sweep(liealg, queries):
    """The operation: every query in the given order."""
    return [(fn, q, fn(liealg, *q)) for fn, q in queries]


def check(liealg, q, result, expected_count: int) -> list[str]:
    dim, rank, divisor = q
    errors = []
    if len(result) != expected_count:
        errors.append(f"{q}: {len(result)} candidates, independent count {expected_count}")
    rows = {r.number: r for r in liealg.schellekens_rows()}
    seen = set()
    for cand, levels, extra in result:
        key = tuple((t.family, t.rank, m) for t, m in cand.components)
        if key in seen:
            errors.append(f"{q}: duplicate candidate {cand.type_string()}")
        seen.add(key)
        if cand.dimension != dim or (rank is not None and cand.rank != rank):
            errors.append(f"{q}: {cand.type_string()} has dimension {cand.dimension}, "
                          f"rank {cand.rank}")
        for t, _ in cand.components:
            if t.dual_coxeter % divisor or levels[(t.family, t.rank)] != t.dual_coxeter // divisor:
                errors.append(f"{q}: {cand.type_string()} breaks the level rule at {t.symbol}")
        if q in CATALOG and any(rows[n].dim_v1 != 24 * (divisor + 1) for n in extra):
            errors.append(f"{q}: {cand.type_string()} matched a row of another dimension")
        if errors:
            break
    return errors


class LieSweep:
    def run(self, seconds: float, seed: int, trace: bool) -> Outcome:
        setup_times = cold_imports("latorb.liealg", SETUP_REPEATS)
        from latorb import liealg
        types = liealg.all_types()
        queries = [(catalog_query, q) for q in CATALOG] + [(scaling_query, q) for q in SCALING]
        expected = {q: count_candidates(types, *q) for _, q in queries}
        rng = random.Random(seed)
        tracing = InProcessTrace() if trace else None
        candidates, busy = 0, 0.0

        def step(i: int) -> Op:
            nonlocal candidates, busy
            order = rng.sample(queries, len(queries))
            traced = tracing is not None and i % 2 == 1
            args = (sweep, liealg, order)
            seconds_, result, error = tracing.call(i, *args) if traced else timed(*args)
            if error is not None:
                return Op(seconds_, [error], traced)
            errors = []
            for _, q, found in result:
                errors += check(liealg, q, found, expected[q])
            if not traced:
                candidates += sum(len(found) for _, _, found in result)
                busy += seconds_
            return Op(seconds_, errors, traced)

        ops = closed_loop(seconds, step, min_ops=2 if trace else 1, fit=True)
        setup_times += cold_imports("latorb.liealg", SETUP_REPEATS)
        report = {"setup_samples_s": setup_times, "candidates": candidates,
                  "expected_per_sweep": sum(expected.values())}
        if tracing is not None:
            return Outcome(ops, tracing.metrics(ops), report, tracing.tracer.export())
        return Outcome(ops, {"setup_s": statistics.median(setup_times),
                             "peak_rss_mb": peak_rss_mb(),
                             "candidates_per_s": candidates / busy}, report)
