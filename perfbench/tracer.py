"""Span tracer that wraps latorb's public functions from outside the package.

Installing a :class:`Tracer` replaces every public module-level function of
the eight latorb modules, plus the handful of methods listed in ``METHODS``,
with a wrapper that records a span ``[name, parent, start, end, op]``.  Names
re-imported into other modules (``orbifold.hnf`` is ``exactmat.hnf``) are
replaced too, so every call path is seen.  Counters computed from arguments
and results are kept next to the spans.  Nothing inside ``src/`` changes;
``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

from common import Op, timed, trace_overhead

# Spans kept for the written record per run; aggregates cover every call.
SPAN_CAP = 50_000

LAYERS = ("terncode", "exactmat", "lattice", "roots", "catalog", "orbifold",
          "liealg", "cli")

# (module, class, attribute, span name) for methods traced besides the
# module-level public functions.
METHODS = (
    ("exactmat", "IntMatrix", "__matmul__", "exactmat.int_matmul"),
    ("exactmat", "RatMatrix", "__matmul__", "exactmat.rat_matmul"),
    ("lattice", "Lattice", "__init__", "lattice.Lattice.init"),
    ("lattice", "Lattice", "inner", "lattice.inner"),
    ("lattice", "Isometry", "create", "lattice.Isometry.create"),
    ("terncode", "TernaryCode", "from_generators",
     "terncode.TernaryCode.from_generators"),
)


def _max_bits(rows) -> int:
    return max((abs(e).bit_length() for row in rows for e in row), default=0)


def _matmul_work(args, result):
    a, b = args[0], args[1]
    return {"mul_adds": a.rows * a.cols * b.cols}


def _glued_roots(args, result):
    words = args[2]
    return {"glue_cosets": len(words) if hasattr(words, "__len__") else 0,
            "roots_found": len(result)}


def _coset_filter(args, result):
    index_nm, index_nr = result
    return {"index_nm": index_nm, "radical_cosets": index_nm // index_nr}


# Span name -> function(args, result) giving counter increments.
COUNTERS = {
    "exactmat.rat_matmul": _matmul_work,
    "exactmat.int_matmul": _matmul_work,
    "exactmat.hnf": lambda args, r: {"max_bits": _max_bits(r.entries)},
    "exactmat.snf": lambda args, r: {"max_bits": max(_max_bits(r.u.entries),
                                                     _max_bits(r.v.entries))},
    "roots.glued_root_vectors": _glued_roots,
    "roots.build_root_system": lambda args, r: {"components": len(r.components)},
    "roots.orbit_count": lambda args, r: {"orbits": r[0]},
    "catalog.construct_niemeier": lambda args, r: {"glue_group_size": len(r.glue_group)},
    "orbifold.coset_filter_index": _coset_filter,
    "liealg.semisimple_candidates": lambda args, r: {"candidates": len(r)},
}


def _keeps_max(counter: str) -> bool:
    """``max_bits`` counters keep their maximum; all others are summed."""
    return counter.endswith(".max_bits")


# Every counter the hooks above can produce, so a run that never reaches a
# hook still reports it (as zero).
COUNT_NAMES = (
    "exactmat.rat_matmul.mul_adds", "exactmat.int_matmul.mul_adds",
    "exactmat.hnf.max_bits", "exactmat.snf.max_bits",
    "roots.glued_root_vectors.glue_cosets", "roots.glued_root_vectors.roots_found",
    "roots.build_root_system.components", "roots.orbit_count.orbits",
    "catalog.construct_niemeier.glue_group_size",
    "orbifold.coset_filter_index.index_nm",
    "orbifold.coset_filter_index.radical_cosets",
    "liealg.semisimple_candidates.candidates",
)


def load_modules() -> dict:
    return {layer: importlib.import_module(f"latorb.{layer}") for layer in LAYERS}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """Collects spans, per-span aggregates and counters while installed.

    Self time (a span's duration minus its direct children's) is summed per
    span name as calls return, so the aggregates stay exact when the span
    record stops growing at ``SPAN_CAP``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.names: set[str] = set()
        self.op = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, stats = self.spans, self._stack, self.stats
        stats.setdefault(name, [0, 0.0])
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # [index in spans or -1, time covered by direct children]
            frame = [len(spans) if len(spans) < SPAN_CAP else -1, 0.0]
            start = perf_counter()
            if frame[0] >= 0:
                spans.append([name, parent[0] if parent else -1, start, start, tracer.op])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if frame[0] >= 0:
                    spans[frame[0]][3] = end
                if parent is not None:
                    parent[1] += end - start
                agg = stats[name]
                agg[0] += 1
                agg[1] += end - start - frame[1]
            if counter is not None:
                tracer._count(name, counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, increments: dict) -> None:
        for key, value in increments.items():
            full = f"{name}.{key}"
            if _keeps_max(full):
                self.counts[full] = max(self.counts.get(full, 0), value)
            else:
                self.counts[full] = self.counts.get(full, 0) + value

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = load_modules()
        self.names.update(span for *_, span in METHODS)
        replaced = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                replaced[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                self.names.add(f"{layer}.{name}")
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(span, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(span, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        return {"spans": self.spans, "stats": self.stats, "counts": self.counts,
                "names": sorted(self.names)}


def merge(into: dict, doc: dict) -> None:
    """Add one exported trace (say, from a child process) to ``into``."""
    offset = len(into["spans"])
    room = max(SPAN_CAP - offset, 0)
    into["spans"].extend([n, p + offset if p >= 0 else -1, s, e, op]
                         for n, p, s, e, op in doc["spans"][:room])
    for name, (calls, own) in doc["stats"].items():
        agg = into["stats"].setdefault(name, [0, 0.0])
        agg[0] += calls
        agg[1] += own
    for key, value in doc["counts"].items():
        old = into["counts"].get(key, 0)
        into["counts"][key] = max(old, value) if _keeps_max(key) else old + value
    into["names"] = sorted(set(into["names"]) | set(doc["names"]))


def cache_stats(module) -> tuple[int, int]:
    """Summed (hits, misses) of the module's ``functools.lru_cache`` functions."""
    hits = misses = 0
    for obj in vars(module).values():
        info = getattr(obj, "cache_info", None)
        if callable(info) and getattr(obj, "__module__", None) == module.__name__:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def layer_metrics(doc: dict, ops: int) -> dict:
    """Per-op averages of calls, self time and counters, by layer and span.

    Every traced span name gets ``.calls`` and ``.self_s`` even when it never
    ran.  ``max_bits`` counters keep their maximum instead of an average.
    """
    out: dict[str, float] = {}
    for key in [*LAYERS, *doc["names"]]:
        out[f"{key}.calls"] = 0
        out[f"{key}.self_s"] = 0.0
    for name, (calls, own) in doc["stats"].items():
        for key in (name.split(".", 1)[0], name):
            out[f"{key}.calls"] += calls
            out[f"{key}.self_s"] += own
    for name in COUNT_NAMES:
        out[name] = doc["counts"].get(name, 0)
    per_op = max(ops, 1)
    out = {k: (v if _keeps_max(k) else v / per_op) for k, v in out.items()}
    found = out["roots.glued_root_vectors.roots_found"]
    cosets = out["roots.glued_root_vectors.glue_cosets"]
    out["roots.glued_root_vectors.roots_per_coset"] = found / cosets if cosets else 0.0
    index_nm = out["orbifold.coset_filter_index.index_nm"]
    radical = out["orbifold.coset_filter_index.radical_cosets"]
    out["orbifold.coset_filter_index.radical_share"] = radical / index_nm if index_nm else 0.0
    out["trace.spans"] = sum(calls for calls, _ in doc["stats"].values()) / per_op
    return out


def trace_metrics(doc: dict, traced: int, cache: tuple[int, int],
                  output_bytes: int, ops: list[Op]) -> dict:
    """All per-layer metrics of a traced run, averaged over its traced ops."""
    out = layer_metrics(doc, traced)
    out["catalog.cache_hits"] = cache[0] / max(traced, 1)
    out["catalog.cache_misses"] = cache[1] / max(traced, 1)
    out["cli.output_bytes"] = output_bytes / max(traced, 1)
    out["trace.overhead_s"] = trace_overhead(ops)
    return out


class InProcessTrace:
    """Runs in-process operations with the tracer installed, one at a time."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.traced = 0
        self.cache = (0, 0)
        self._catalog = importlib.import_module("latorb.catalog")

    def call(self, op: int, fn, *args):
        """``common.timed(fn, *args)`` with spans recorded under ``op``."""
        hits, misses = cache_stats(self._catalog)
        self.tracer.op = op
        self.tracer.install()
        try:
            return timed(fn, *args)
        finally:
            self.tracer.uninstall()
            after = cache_stats(self._catalog)
            self.cache = (self.cache[0] + after[0] - hits,
                          self.cache[1] + after[1] - misses)
            self.traced += 1

    def metrics(self, ops: list[Op]) -> dict:
        return trace_metrics(self.tracer.export(), self.traced, self.cache, 0, ops)
