"""verify_cold: repeated cold ``python -m latorb verify-all --json`` runs.

This is what a user runs and the end-to-end unit of the roadmap.  Each
operation is a fresh interpreter, so nothing is cached between operations.
The seed is not used: the command takes no input.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from common import OUT, ROOT, Op, Outcome, closed_loop, cold_imports, peak_rss_mb, src_env
from tracer import merge, trace_metrics

COMMAND = ("verify-all", "--json")
# Cold imports timed before and after the measured loop; setup_s is their
# median, so drift during the run moves it less than a burst at the start.
SETUP_REPEATS = 8
# A run measures for at most 60 s; one more operation must still end well
# inside the 180 s a whole run may take.
OP_TIMEOUT_S = 90


def check_output(returncode: int, stdout: bytes, reference: dict) -> list[str]:
    """Gate one verify-all run: exit 0, "pass": true, and per isometry the
    lattice, fixed, twisted, total, |N/M| and |N/R| of the reference."""
    errors = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
        if doc["pass"] is not True:
            errors.append('"pass" is not true')
        reports = {r["sigma"]: r for r in doc["reports"]}
        for sigma, exp in reference["isometries"].items():
            if sigma not in reports:
                errors.append(f"{sigma}: no report")
                continue
            rep = reports[sigma]
            got = {"lattice": rep["lattice"], "fixed": rep["dims"]["fixed"],
                   "twisted_each": rep["dims"]["twisted_each"],
                   "total": rep["dims"]["total"],
                   "N_over_M": rep["indices"]["N_over_M"],
                   "N_over_R": rep["indices"]["N_over_R"]}
            for key, value in got.items():
                if value != exp[key]:
                    errors.append(f"{sigma} {key}: {value!r}, reference {exp[key]!r}")
        extra = sorted(set(reports) - set(reference["isometries"]))
        if extra:
            errors.append(f"reports not in the reference: {extra}")
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return errors


class VerifyCold:
    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def run(self, seconds: float, seed: int, trace: bool) -> Outcome:
        setup_times = cold_imports("latorb.cli", SETUP_REPEATS)
        env = src_env()
        OUT.mkdir(parents=True, exist_ok=True)
        record = {"spans": [], "stats": {}, "counts": {}, "names": []}
        cache = [0, 0]
        out_bytes = traced_ops = 0
        digests = set()

        def step(i: int) -> Op:
            nonlocal out_bytes, traced_ops
            traced = trace and i % 2 == 1
            spans_file = OUT / f"child-{os.getpid()}-{i}.json"
            if traced:
                cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
                       str(spans_file), *COMMAND]
            else:
                cmd = [sys.executable, "-m", "latorb", *COMMAND]
            t0 = perf_counter()
            try:
                done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                      timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return Op(perf_counter() - t0, [f"timed out after {OP_TIMEOUT_S} s"], traced)
            elapsed = perf_counter() - t0
            digests.add(hashlib.sha256(done.stdout).hexdigest())
            errors = check_output(done.returncode, done.stdout, self.reference)
            if traced:
                traced_ops += 1
                out_bytes += len(done.stdout)
            if traced and spans_file.exists():
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                spans_file.unlink()
                for span in doc["spans"]:
                    span[4] = i
                merge(record, doc)
                cache[0] += doc["cache"][0]
                cache[1] += doc["cache"][1]
            return Op(elapsed, errors, traced)

        ops = closed_loop(seconds, step, min_ops=2 if trace else 1)
        setup_times += cold_imports("latorb.cli", SETUP_REPEATS)
        report = {
            "seed_used": False,
            "setup_samples_s": setup_times,
            "output_sha256": sorted(digests),
            "output_sha256_is_reference": digests == {self.reference["verify_all_sha256"]},
        }
        if trace:
            return Outcome(ops, trace_metrics(record, traced_ops, tuple(cache),
                                              out_bytes, ops), report, record)
        return Outcome(ops, {"setup_s": statistics.median(setup_times),
                             "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)},
                       report)
