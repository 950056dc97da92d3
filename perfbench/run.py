"""latorb benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload verify_cold|lie_sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a latorb checkout; the package is imported from
``src``.  The run prints its metadata (git sha, Python, processor count,
source line counts, a Fraction reference loop timed at start and end), then
every metric by name with its unit, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list, timed
without tracing; with ``--trace 1`` they are its ``per_layer`` list, taken
from spans recorded around latorb's public functions, and the spans are
written to ``perfbench/out/``.  Without ``src/latorb`` it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT, ROOT, SRC, end_to_end, metadata, reference_loop

WORKLOADS = ("verify_cold", "lie_sweep")

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "fail_ratio": "ratio", "peak_rss_mb": "MB", "candidates_per_s": "1/s"}


def make_workload(name: str, reference: dict):
    if name == "verify_cold":
        from verify_cold import VerifyCold
        return VerifyCold(reference)
    from lie_sweep import LieSweep
    return LieSweep()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latorb" / "cli.py").is_file():
        print(f"no latorb sources under {SRC}; run from a latorb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **metadata(), "ref_loop_start_s": reference_loop()}
    outcome = make_workload(args.workload, reference).run(args.seconds, args.seed,
                                                          bool(args.trace))
    meta["ref_loop_end_s"] = reference_loop()
    print("meta " + json.dumps(meta, sort_keys=True))
    print("report " + json.dumps(outcome.report, sort_keys=True))

    failed = [op for op in outcome.ops if op.errors]
    for op in failed[:5]:
        print("FAILED: " + "; ".join(op.errors[:3]), file=sys.stderr)
    metrics = dict(outcome.metrics)
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(outcome.spans), encoding="utf-8")
        wanted = spec["per_layer"]
        for entry in wanted:
            print(f"{entry['name']} {metrics[entry['name']]!r} {entry['unit']}")
    else:
        e2e = end_to_end(outcome.ops)
        tail = e2e.pop("op_tail")
        metrics.update(e2e)
        wanted = spec["end_to_end"]
        for name, value in metrics.items():
            print(f"{name} {value!r} {UNITS[name]}")
        if tail is None:
            print("op_tail_s n/a s (fewer than 11 untraced samples)")
        else:
            print(f"op_tail_s {tail[0]!r} s (p{tail[1]:.1f} of {tail[2]} samples)")
    result = {
        "correct": not failed,
        "attempted": len(outcome.ops),
        "failed": len(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
