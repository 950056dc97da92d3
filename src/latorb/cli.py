"""Command-line front end: reports, verification, and golden-file surface.

Every subcommand accepts --json and prints canonical output (sorted keys,
compact separators, rationals as p/q strings), so identical invocations are
byte-identical.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
error, 3 internal invariant violation.  Importing this module loads only the
construction table; each subcommand imports the layers it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .constructions import CONSTRUCTIONS, LATTICE_KEYS, SIGMA_KEYS

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_GOLAY_WEIGHTS = {0: 1, 6: 264, 9: 440, 12: 24}
_GOLAY_CYCLES = "(∞)(4)(7)(012)(35X)(689)"

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _finish(rows: list[dict], payload: dict, json_mode: bool, summary: str = "") -> int:
    """Print the check rows, as the payload with "checks" and "pass" added or
    as one line per row and then ``summary`` (by default "all checks pass" or
    "checks FAILED"), and return the exit code they give."""
    ok = all(row["ok"] for row in rows)
    if json_mode:
        sys.stdout.write(canonical_json({**payload, "checks": rows, "pass": ok}))
    else:
        for row in rows:
            print(f"PASS {row['name']}: {row['computed']}" if row["ok"] else
                  f"FAIL {row['name']}: computed {row['computed']}, "
                  f"expected {row['expected']} ({row['source']})")
        print(summary or ("all checks pass" if ok else "checks FAILED"))
    return EXIT_OK if ok else EXIT_CHECK


def _row(name: str, computed, expected, source: str = "stated") -> dict:
    return {"name": name, "computed": computed, "expected": expected,
            "source": source, "ok": computed == expected}


def _golay_checks():
    """The Golay code, its residue permutation, and the dimension, weight
    distribution and residue cycle rows that `golay` and `verify-all` share."""
    from . import terncode
    code = terncode.golay_code()
    sigma = terncode.residue_perm()
    return code, sigma, [
        _row("golay dimension", code.dim, 6),
        _row("golay weight distribution", terncode.weight_distribution(code),
             _GOLAY_WEIGHTS, "computed"),
        _row("golay residue cycles", sigma.cycle_string(), _GOLAY_CYCLES),
    ]


def cmd_golay(args) -> int:
    from . import terncode
    code, sigma, rows = _golay_checks()
    weights = rows[1]["computed"]  # the weight distribution row
    rows += [
        _row("golay codewords", sum(weights.values()), 729),
        _row("golay self-dual", terncode.is_self_dual(code), True),
        _row("golay stable under shift",
             terncode.stable_under(code, terncode.shift_perm()), True),
        _row("golay stable under swap",
             terncode.stable_under(code, terncode.swap_perm()), True),
        _row("golay stable under residue",
             terncode.stable_under(code, sigma), True),
        _row("golay residue order", sigma.order(), 3),
    ]
    payload = {"code": code.to_json(),
               "weight_distribution": {str(k): v for k, v in sorted(weights.items())},
               "residue_cycles": sigma.cycle_string()}
    return _finish(rows, payload, args.json)


def _root_rows(key: str, rs) -> list[dict]:
    """Root count and type of a lattice's root system against the type of its
    table row's parts, whose root count is dimension minus rank."""
    from . import liealg, roots
    g = liealg.SemisimpleType.of(CONSTRUCTIONS["lattices"][key]["parts"])
    return [
        _row(f"{key} root count", rs.count, g.dimension - g.rank, "computed"),
        _row(f"{key} root type", liealg.SemisimpleType.of(roots.classify(rs)).type_string(),
             g.type_string()),
    ]


def cmd_lattice_build(args) -> int:
    from .catalog import construct_niemeier
    from .exactmat import RatMatrix
    from .lattice import is_even_unimodular, rat_str
    bundle = construct_niemeier(args.key)
    spec = CONSTRUCTIONS["lattices"][args.key]
    lattice, ext = bundle.lattice, bundle.extension
    even, unimodular = is_even_unimodular(lattice)
    rows = [
        _row(f"{args.key} even", even, True),
        _row(f"{args.key} unimodular", unimodular, True),
        _row(f"{args.key} rank", lattice.rank, 24),
        _row(f"{args.key} glue index", ext.index, len(bundle.glue_group), "computed"),
        *_root_rows(args.key, bundle.root_system),
    ]
    embedding = RatMatrix(ext.basis_in_base, ext.den) @ RatMatrix(bundle.ambient)
    doc = {**lattice.to_json(),
           "embedding": [[rat_str(e, embedding.den) for e in row]
                         for row in embedding.num.entries]}
    payload = {"key": args.key, "description": spec["description"], "lattice": doc}
    return _finish(rows, payload, args.json)


def cmd_lattice_roots(args) -> int:
    from . import catalog, liealg, roots
    rs = catalog.niemeier_bundle(args.key).root_system
    payload = {"key": args.key, "roots": roots.root_system_to_json(rs),
               "weight_one": liealg.lattice_voa_weight_one(rs)}
    return _finish(_root_rows(args.key, rs), payload, args.json)


def _report_fields(report: dict) -> dict:
    return {
        "eigen": report["eigen"],
        "rho": report["rho"],
        "fixed": report["dims"]["fixed"],
        "twisted_each": report["dims"]["twisted_each"],
        "total": report["dims"]["total"],
        "N_over_R": report["indices"]["N_over_R"],
        "R_equals_M": report["R_equals_M"],
        "schellekens": report["schellekens"],
        "candidate_types": [c["type"] for c in report["candidates"]],
        "flagged_candidates": [c["type"] for c in report["candidates"]
                               if c["flagged"]],
    }


def verify_report(sigma_key: str, report: dict) -> list[dict]:
    """Compare one report against its table row, field by field."""
    fields = _report_fields(report)
    rows = [_row(f"{sigma_key} {name}", fields[name], value, source)
            for name, (value, source)
            in CONSTRUCTIONS["isometries"][sigma_key]["expect"].items()]
    for check, passed in sorted(report["checks"].items()):
        rows.append(_row(f"{sigma_key} check {check}", passed, True))
    return rows


def cmd_orbifold(args) -> int:
    acts_on = CONSTRUCTIONS["isometries"][args.sigma]["lattice"]
    if acts_on != args.lattice:
        print(f"usage error: {args.sigma} acts on {acts_on}, not {args.lattice}",
              file=sys.stderr)
        return EXIT_USAGE
    from . import orbifold
    report = orbifold.assemble_report(args.sigma)
    rows = verify_report(args.sigma, report)
    return _finish(rows, {"report": report}, args.json)


def cmd_candidates(args) -> int:
    from . import liealg
    if args.dim <= 0 or args.hdvd <= 0 or (args.rank or 0) < 0:
        print("usage error: --dim and --hdvd must be positive, --rank not "
              "negative", file=sys.stderr)
        return EXIT_USAGE
    try:
        entries = liealg.candidate_entries(args.dim, args.rank, args.hdvd)
    except liealg.LieDataError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        sys.stdout.write(canonical_json(
            {"dim": args.dim, "rank": args.rank, "hcoxeter_divisor": args.hdvd,
             "candidates": entries}))
    else:
        for e in entries:
            print(f"{e['type']}  (levels {e['with_levels']}, rank {e['rank']})")
        print(f"{len(entries)} candidate(s) of dimension {args.dim}")
    return EXIT_OK


def cmd_schellekens(args) -> int:
    from . import liealg
    try:
        numbers = liealg.schellekens_match(args.dim, args.type)
    except liealg.LieDataError as exc:
        print(f"usage error: --type: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows_by_number = {r.number: r for r in liealg.schellekens_rows()}
    entries = [{"number": n, "dim_v1": rows_by_number[n].dim_v1,
                "type": rows_by_number[n].type_string} for n in numbers]
    if args.json:
        sys.stdout.write(canonical_json(
            {"dim": args.dim, "type": args.type, "matches": entries}))
    else:
        for e in entries:
            print(f"No. {e['number']}: dim {e['dim_v1']}, type {e['type']}")
        print(f"{len(entries)} row(s) match")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from . import liealg, orbifold
    wanted = args.filter or ""
    rows: list[dict] = []
    reports: dict[str, dict] = {}
    if wanted in "golay":
        rows += _golay_checks()[2]
    for sigma_key in SIGMA_KEYS:
        if wanted not in sigma_key:
            continue
        report = orbifold.assemble_report(sigma_key)
        reports[sigma_key] = report
        rows.extend(verify_report(sigma_key, report))
        h0, h1, h2 = report["eigen"]
        rows.append(_row(f"{sigma_key} conjugate eigenspaces equal",
                         h1 == h2, True, "computed"))
        square = report["indices"]["N_over_R"]
        rows.append(_row(f"{sigma_key} index N/R is a perfect square",
                         math.isqrt(square) ** 2 == square, True, "computed"))
    if not rows:
        print(f"usage error: --filter {wanted!r} matches no construction",
              file=sys.stderr)
        return EXIT_USAGE
    if args.emit_dir is not None:
        from pathlib import Path
        out = Path(args.emit_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for sigma_key, report in sorted(reports.items()):
                (out / f"{sigma_key}.json").write_text(canonical_json(report),
                                                       encoding="utf-8")
        except OSError as exc:
            print(f"usage error: --emit-dir {args.emit_dir}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    passed = sum(1 for r in rows if r["ok"])
    bundle = {
        "tool_version": TOOL_VERSION,
        "table_checksum": liealg.TABLE_SHA256,
        "reports": [reports[k] for k in sorted(reports)],
        "summary": {"passed": passed, "failed": len(rows) - passed},
    }
    return _finish(rows, bundle, args.json, f"{passed}/{len(rows)} checks pass "
                   f"(tool {TOOL_VERSION}, table {liealg.TABLE_SHA256[:12]})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latorb",
        description="Exact checks for four Niemeier lattices, six order-3 "
                    "isometries, and their orbifold weight-one numerology.")
    sub = parser.add_subparsers(dest="command", required=True)

    golay = sub.add_parser("golay", help="ternary code checks")
    golay.add_argument("--json", action="store_true")
    golay.set_defaults(func=cmd_golay)

    lattice = sub.add_parser("lattice", help="lattice construction reports")
    lat_sub = lattice.add_subparsers(dest="subcommand", required=True)
    build = lat_sub.add_parser("build", help="construct and verify one lattice")
    build.add_argument("key", choices=LATTICE_KEYS)
    build.add_argument("--json", action="store_true")
    build.set_defaults(func=cmd_lattice_build)
    roots = lat_sub.add_parser("roots", help="root system of one lattice")
    roots.add_argument("key", choices=LATTICE_KEYS)
    roots.add_argument("--json", action="store_true")
    roots.set_defaults(func=cmd_lattice_roots)

    orb = sub.add_parser("orbifold", help="full orbifold report for one pair")
    orb.add_argument("lattice", choices=LATTICE_KEYS)
    orb.add_argument("sigma", choices=SIGMA_KEYS)
    orb.add_argument("--json", action="store_true")
    orb.set_defaults(func=cmd_orbifold)

    cand = sub.add_parser("candidates",
                          help="semisimple types of a given dimension")
    cand.add_argument("--dim", type=int, required=True)
    cand.add_argument("--rank", type=int, default=None)
    cand.add_argument("--hdvd", type=int, default=1,
                      help="dual Coxeter number divisor")
    cand.add_argument("--json", action="store_true")
    cand.set_defaults(func=cmd_candidates)

    sch = sub.add_parser("schellekens", help="match stored classification rows")
    sch.add_argument("--dim", type=int, required=True)
    sch.add_argument("--type", default=None)
    sch.add_argument("--json", action="store_true")
    sch.set_defaults(func=cmd_schellekens)

    verify = sub.add_parser("verify-all", help="golay plus all six reports")
    verify.add_argument("--filter", default="",
                        help="substring filter on construction keys")
    verify.add_argument("--emit-dir", default=None,
                        help="write per-isometry reports into this directory")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - exit-code boundary
        return _exit_code(exc)


def _exit_code(exc: Exception) -> int:
    """Print a subcommand's error; the first class it matches sets the code."""
    from . import catalog, lattice, orbifold, roots
    for classes, code, prefix in (
            (orbifold.UnsupportedTwistWeight, EXIT_CHECK, "FAIL"),
            (orbifold.OrbifoldError, EXIT_INTERNAL, "internal invariant violation"),
            ((catalog.CatalogError, lattice.LatticeError, lattice.GlueError,
              lattice.IsometryError, roots.RootsError), EXIT_CHECK, "FAIL")):
        if isinstance(exc, classes):
            break
    else:
        code, prefix = EXIT_INTERNAL, "internal error"
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
