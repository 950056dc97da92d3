"""Timing loop, statistics, run metadata and the Fraction reference loop."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


@dataclass
class Op:
    """One closed-loop operation: its timed duration and any check failures."""

    seconds: float
    errors: list[str] = field(default_factory=list)
    traced: bool = False


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` holds end-to-end values (untraced run) or per-layer values
    (traced run); ``report`` holds facts printed for the reader only;
    ``spans`` is the traced run's span record, written out at the end.
    """

    ops: list[Op]
    metrics: dict
    report: dict = field(default_factory=dict)
    spans: dict | None = None


def closed_loop(seconds: float, step, min_ops: int = 1, fit: bool = False) -> list[Op]:
    """Run ``step(i)`` back to back until ``seconds`` have passed.

    One client, one operation at a time: the next operation starts only after
    the previous one returned.  At least ``min_ops`` operations run.  With
    ``fit``, an operation starts only if one as long as the previous step
    still ends within ``seconds``, so a run of long operations ends near
    ``seconds`` rather than up to one operation past it.
    """
    start = perf_counter()
    ops: list[Op] = []
    last = 0.0
    while len(ops) < min_ops or perf_counter() - start + (last if fit else 0.0) < seconds:
        t0 = perf_counter()
        ops.append(step(len(ops)))
        last = perf_counter() - t0
    return ops


def timed(fn, *args):
    """(seconds, result, error) for one call; an exception becomes the error."""
    t0 = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) of the highest percentile with ten samples
    above it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(ops: list[Op]) -> dict:
    """Timing metrics of the untraced operations and the failure ratio of all."""
    times = [op.seconds for op in ops if not op.traced]
    failed = sum(1 for op in ops if op.errors)
    return {
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "fail_ratio": failed / len(ops),
        "op_tail": tail(times),
    }


def trace_overhead(ops: list[Op]) -> float:
    """Median traced operation minus median untraced operation, in seconds."""
    traced = [op.seconds for op in ops if op.traced]
    plain = [op.seconds for op in ops if not op.traced]
    return statistics.median(traced) - statistics.median(plain)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def src_env() -> dict:
    """Environment for a child interpreter that imports latorb from ``src``.

    Bytecode caching is left on, as for an installed package, so a cold
    start does not recompile latorb every time.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cold_import_s(module: str) -> float:
    """Seconds for a fresh interpreter to start and import ``module``.

    No timeout: ``subprocess`` polls a child with a timeout in steps of up
    to 50 ms, which would swamp a 0.2 s measurement.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT,
                   env=src_env(), check=True)
    return perf_counter() - t0


def cold_imports(module: str, n: int) -> list[float]:
    """``n`` timed cold imports of ``module``, after one untimed import that
    writes the bytecode cache on a fresh checkout."""
    cold_import_s(module)
    return [cold_import_s(module) for _ in range(n)]


def reference_loop() -> float:
    """Seconds for a fixed pure-Python Fraction workload.

    Timed at the start and end of each run to show host drift; it is
    reported next to the metrics and never used to scale them.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 201):
        for j in range(1, 201):
            acc += Fraction(i, j + 1) * Fraction(j, i + 1)
    if acc <= 0:
        raise AssertionError("reference loop lost its value")
    return perf_counter() - t0


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata() -> dict:
    """Git sha, interpreter, processor count and the size of ``src/latorb``."""
    files = sorted((SRC / "latorb").glob("*.py"))
    lines = {f.name: len(f.read_bytes().splitlines()) for f in files}
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }
