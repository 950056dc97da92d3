"""End-to-end checks for the command-line surface.

Most tests drive main() in process and capture stdout; golden files under
tests/golden/ were produced by separate interpreter runs, so comparing
against them byte for byte also pins cross-process determinism.
"""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latorb import cli, liealg, orbifold, terncode
from latorb.catalog import CatalogError, StabilizationError, niemeier_bundle
from latorb.cli import (
    EXIT_CHECK,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    TOOL_VERSION,
    canonical_json,
    main,
)
from latorb.constructions import CONSTRUCTIONS, SIGMA_KEYS
from latorb.exactmat import NoSolution
from latorb.lattice import GlueError, IsometryError, LatticeError
from latorb.roots import RootsError, UnknownRootSystem

from test_catalog import MALFORMED_WORDS, corrupted_words

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_readme_table_matches_catalog_and_expectations():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in readme.splitlines() if line.startswith("| sigma")]
    assert [row[0] for row in rows] == list(SIGMA_KEYS)
    for sigma, lattice, fixed, twisted, total, number in rows:
        row = CONSTRUCTIONS["isometries"][sigma]
        exp = {name: value for name, (value, _) in row["expect"].items()}
        assert lattice == row["lattice"]
        assert [int(fixed), int(twisted), int(total)] == [
            exp["fixed"], exp["twisted_each"], exp["total"]]
        assert [int(number)] == exp["schellekens"]


def test_golay_json_matches_golden(capsys):
    code, out, _ = run(capsys, "golay", "--json")
    assert code == EXIT_OK
    assert out == golden_text("golay.json")


def test_golay_human_output(capsys):
    code, out, _ = run(capsys, "golay")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "PASS golay dimension: 6" in lines
    assert "PASS golay residue order: 3" in lines
    assert lines[-1] == "all checks pass"


def test_golay_and_verify_all_print_the_same_golay_rows(capsys):
    # Text lines, not parsed JSON, which would read int and str keys alike.
    golay_lines = run(capsys, "golay")[1].splitlines()
    verify_lines = run(capsys, "verify-all", "--filter", "golay")[1].splitlines()
    assert golay_lines[:3] == verify_lines[:3]
    assert golay_lines[1] == "PASS golay weight distribution: {0: 1, 6: 264, 9: 440, 12: 24}"


# Read before any test patches the generators.
GOLAY_GENERATORS = terncode.golay_generators()
GOLAY_BASIS = terncode.golay_code().basis


def bumped_golay_generators():
    """The Golay generators with the first entry of the first word bumped:
    a word outside the code joins them, so they span dimension 7."""
    gens = GOLAY_GENERATORS
    return [((gens[0][0] + 1) % 3, *gens[0][1:]), *gens[1:]]


def test_golay_corrupt_generator_fails(capsys, monkeypatch):
    monkeypatch.setattr(terncode, "golay_generators", bumped_golay_generators)
    code, out, _ = run(capsys, "golay")
    assert code == EXIT_CHECK
    assert "FAIL golay dimension: computed 7" in out
    assert out.splitlines()[-1] == "checks FAILED"


def test_lattice_build_all_keys(capsys):
    for key in ("A2_12", "D4_6", "A5_4_D4", "E6_4"):
        code, out, _ = run(capsys, "lattice", "build", key, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["key"] == key
        assert all(row["ok"] for row in payload["checks"])


@pytest.mark.parametrize("key", ["A2_12", "D4_6", "A5_4_D4", "E6_4"])
def test_lattice_build_matches_golden(capsys, key):
    # Pins the embedding, the glued basis times the stated ambient rows of
    # the root lattices (the identity for E6), and the description, byte for
    # byte.
    code, out, _ = run(capsys, "lattice", "build", key, "--json")
    assert code == EXIT_OK
    assert out == golden_text(f"lattice_build_{key}.json")


def test_lattice_build_corrupt_generator(capsys, monkeypatch):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words", corrupted_words("D4_6"))
    code, out, err = run(capsys, "lattice", "build", "D4_6")
    assert (code, out) == (EXIT_CHECK, "")
    assert err == "FAIL: D4_6: glue code is not isotropic: generators 0 and 1 pair to 7/2\n"


def test_no_option_is_hidden_from_help():
    # Faults are injected by the tests, never through a hidden flag.
    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    hidden = [(p.prog, a.option_strings or a.dest) for p in parsers(cli.build_parser())
              for a in p._actions if a.help == argparse.SUPPRESS]
    assert hidden == []


@pytest.mark.parametrize("word,message", MALFORMED_WORDS)
def test_lattice_build_rejects_malformed_glue_word(capsys, monkeypatch, word, message):
    monkeypatch.setitem(CONSTRUCTIONS["lattices"]["D4_6"], "words", (word,))
    code, out, err = run(capsys, "lattice", "build", "D4_6")
    assert code == EXIT_CHECK
    assert out == ""
    assert err.startswith("FAIL: ") and message in err


def test_lattice_roots_matches_golden(capsys):
    code, out, _ = run(capsys, "lattice", "roots", "E6_4", "--json")
    assert code == EXIT_OK
    assert out == golden_text("roots_E6_4.json")


def test_orbifold_report_matches_golden(capsys):
    code, out, _ = run(capsys, "orbifold", "A2_12", "sigma1", "--json")
    assert code == EXIT_OK
    assert out == golden_text("orbifold_sigma1.json")


def test_orbifold_pair_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "orbifold", "A2_12", "sigma3")
    assert code == EXIT_USAGE
    assert "sigma3 acts on D4_6" in err


def test_orbifold_invalid_choice_is_usage_error(capsys):
    assert run(capsys, "orbifold", "E6_4", "nope")[0] == EXIT_USAGE
    assert run(capsys, "orbifold", "Z9_9", "sigma1")[0] == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "lattice")[0] == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "verify-all" in out


def test_candidates_matches_golden(capsys):
    code, out, _ = run(capsys, "candidates", "--dim", "24", "--rank", "6",
                       "--json")
    assert code == EXIT_OK
    assert out == golden_text("candidates_dim24_rank6.json")


# sha256 of `latorb candidates --dim 150 --json`, 27,647 candidates.
CANDIDATES_DIM150_SHA256 = "e71e940a87064bd5fcbc837c8923828c8d7aa407d6662fb20a7fc6c739bfe6d7"


def test_candidates_dim150_output_is_pinned(capsys):
    code, out, _ = run(capsys, "candidates", "--dim", "150", "--json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CANDIDATES_DIM150_SHA256


def test_candidates_human_output(capsys):
    code, out, _ = run(capsys, "candidates", "--dim", "24", "--rank", "6")
    assert code == EXIT_OK
    assert "A2^3  (levels A2,3^3, rank 6)" in out
    assert out.splitlines()[-1] == "3 candidate(s) of dimension 24"


def test_candidates_rejects_nonpositive_dim(capsys):
    assert run(capsys, "candidates", "--dim", "0")[0] == EXIT_USAGE
    assert run(capsys, "candidates", "--dim", "24", "--hdvd", "-1")[0] \
        == EXIT_USAGE
    code, out, err = run(capsys, "candidates", "--dim", "24", "--rank", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error:") and "--rank" in err
    # 2,195,038 candidates: refused by the count, before any is built.
    code, out, err = run(capsys, "candidates", "--dim", "250")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: more than")


def test_candidates_refuses_dimensions_past_schellekens_list(capsys):
    # Refused by the type table's bound, not by counting: the knapsack would
    # need a row per dimension, about 10^9 of them for 999999999.  A15 (255),
    # B11 and C11 (253) and D24 (1128) fit the ranked queries but lie past
    # the table, so any list printed would be incomplete.
    for query in (["251"], ["1129"], ["999999999"], ["255", "--rank", "15"],
                  ["253", "--rank", "11"], ["1128", "--rank", "24"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "candidates", "--dim", *query)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"usage error: dimension {query[0]} is above 250")
        assert "a type it lacks could be a component" in err
        assert time.perf_counter() - start < 0.5


def test_schellekens_matches_golden(capsys):
    code, out, _ = run(capsys, "schellekens", "--dim", "96", "--json")
    assert code == EXIT_OK
    assert out == golden_text("schellekens_dim96.json")


def test_schellekens_with_type_filter(capsys):
    code, out, _ = run(capsys, "schellekens", "--dim", "72", "--type", "D4,3")
    assert code == EXIT_OK
    assert "No. 17: dim 72, type A5,3 D4,3 A1,1^3" in out
    assert out.splitlines()[-1] == "1 row(s) match"


@pytest.mark.parametrize("argv", [
    ("schellekens", "--dim", "48", "--type", "Z9,1"),
    ("schellekens", "--dim", "48", "--type", "A2"),
    ("schellekens", "--dim", "48", "--type", "A2,x"),
    ("verify-all", "--filter", "nomatch"),
    # A count or level below 1 names no component.
    ("schellekens", "--dim", "48", "--type", "A2,3^-1"),
    ("schellekens", "--dim", "48", "--type", "A2,3^0"),
    ("schellekens", "--dim", "48", "--type", "A2,0"),
    ("schellekens", "--dim", "48", "--type", "A2,-3"),
    # Rank, level and count are ASCII digits, though int() takes more.
    ("schellekens", "--dim", "48", "--type", "A+2,3^6"),
    ("schellekens", "--dim", "48", "--type", "A2,3^+6"),
    ("schellekens", "--dim", "48", "--type", "A2,3^0_6"),
    ("schellekens", "--dim", "48", "--type", "A\uff12,3^6"),
])
def test_malformed_query_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")
    assert out == ""


def test_verify_all_filtered_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--filter", "sigma1", "--json")
    assert code == EXIT_OK
    bundle = json.loads(out)
    assert bundle["pass"] is True
    assert bundle["tool_version"] == TOOL_VERSION
    assert bundle["table_checksum"] == liealg.TABLE_SHA256
    assert len(bundle["reports"]) == 1
    assert bundle["reports"][0]["sigma"] == "sigma1"
    assert bundle["summary"]["failed"] == 0
    assert bundle["summary"]["passed"] == len(bundle["checks"])


def test_verify_all_json_matches_golden(capsys):
    # All six reports and every check, byte for byte as a separate run wrote them.
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == EXIT_OK
    assert out == golden_text("verify_all.json")


def test_verify_all_golay_filter_skips_reports(capsys):
    code, out, _ = run(capsys, "verify-all", "--filter", "golay", "--json")
    assert code == EXIT_OK
    bundle = json.loads(out)
    assert bundle["reports"] == []
    assert bundle["summary"]["passed"] == 3


def golay_basis_with_last_entry_bumped():
    """Six independent words, one outside the Golay code: dimension 6 with a
    different weight distribution."""
    basis = GOLAY_BASIS
    return [(*basis[0][:-1], (basis[0][-1] + 1) % 3), *basis[1:]]


@pytest.mark.parametrize(("patch", "failing"), [
    (("golay_generators", bumped_golay_generators),
     ["golay dimension", "golay weight distribution"]),
    (("golay_generators", golay_basis_with_last_entry_bumped),
     ["golay weight distribution"]),
    (("residue_perm", terncode.shift_perm), ["golay residue cycles"]),
], ids=["dimension", "weight-distribution", "residue-cycles"])
def test_verify_all_golay_rows_fail_on_their_corruption(capsys, monkeypatch, patch, failing):
    """Each golay row of verify-all reads the code or the residue permutation
    itself; the lattices are built first, so no isometry row sees the fault."""
    for key in CONSTRUCTIONS["lattices"]:
        niemeier_bundle(key)
    monkeypatch.setattr(terncode, *patch)
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == EXIT_CHECK
    checks = json.loads(out)["checks"]
    assert [row["name"] for row in checks if not row["ok"]] == failing
    assert len(checks) == len(json.loads(golden_text("verify_all.json"))["checks"])


def test_verify_all_emit_dir(capsys, tmp_path):
    code, _, _ = run(capsys, "verify-all", "--filter", "sigma4",
                     "--emit-dir", str(tmp_path))
    assert code == EXIT_OK
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["sigma4.json"]
    written = (tmp_path / "sigma4.json").read_text(encoding="utf-8")
    assert written == canonical_json(orbifold.assemble_report("sigma4"))


def test_verify_all_unwritable_emit_dir_is_usage_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "verify-all", "--filter", "sigma4",
                         "--emit-dir", str(blocker / "reports"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: --emit-dir")


def test_verify_all_human_summary_line(capsys):
    code, out, _ = run(capsys, "verify-all", "--filter", "sigma5")
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("15/15 checks pass")


def test_expectations_cover_every_isometry():
    rows = CONSTRUCTIONS["isometries"]
    assert sorted(rows) == ["sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "sigma6"]
    for row in rows.values():
        assert list(row["expect"]) == [
            "eigen", "rho", "fixed", "twisted_each", "total", "N_over_R",
            "R_equals_M", "schellekens", "candidate_types", "flagged_candidates"]
        for _, source in row["expect"].values():
            assert source in ("stated", "computed")


def test_module_entry_point_subprocess():
    # Each in a fresh interpreter, as a cold run sees it: no lru_cache or
    # lazily imported layer left over from the in-process tests.
    for command, golden in (("golay", "golay.json"), ("verify-all", "verify_all.json")):
        proc = subprocess.run(
            [sys.executable, "-m", "latorb", command, "--json"],
            capture_output=True, text=True, check=False)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == golden_text(golden)


def test_unsupported_twist_is_check_failure(capsys, monkeypatch):
    def raise_unsupported(_):
        raise orbifold.UnsupportedTwistWeight("no closed form applies")

    monkeypatch.setattr(orbifold, "assemble_report", raise_unsupported)
    code, _, err = run(capsys, "orbifold", "A2_12", "sigma1")
    assert code == EXIT_CHECK
    assert "no closed form applies" in err


def test_internal_error_maps_to_exit_three(capsys, monkeypatch):
    def raise_internal(_):
        raise orbifold.OrbifoldError("routes disagree")

    monkeypatch.setattr(orbifold, "assemble_report", raise_internal)
    code, _, err = run(capsys, "orbifold", "A2_12", "sigma1")
    assert code == EXIT_INTERNAL
    assert "internal invariant violation" in err


@pytest.mark.parametrize(("error", "code", "prefix"), [
    (orbifold.UnsupportedTwistWeight, EXIT_CHECK, "FAIL"),
    (orbifold.OrbifoldError, EXIT_INTERNAL, "internal invariant violation"),
    (CatalogError, EXIT_CHECK, "FAIL"),
    (StabilizationError, EXIT_CHECK, "FAIL"),
    (LatticeError, EXIT_CHECK, "FAIL"),
    (GlueError, EXIT_CHECK, "FAIL"),
    (IsometryError, EXIT_CHECK, "FAIL"),
    (RootsError, EXIT_CHECK, "FAIL"),
    (UnknownRootSystem, EXIT_CHECK, "FAIL"),
    (liealg.LieDataError, EXIT_INTERNAL, "internal error"),
    (NoSolution, EXIT_INTERNAL, "internal error"),
    (ValueError, EXIT_INTERNAL, "internal error"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_exit_code_of_each_error_class(capsys, monkeypatch, error, code, prefix):
    """Every class main maps, raised from a subcommand, gives its exit code."""
    def raise_error(_):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_golay", raise_error)
    assert run(capsys, "golay") == (code, "", f"{prefix}: boom\n")


# Standard-library modules that compute nothing latorb needs: ``dataclasses``
# with the ``inspect`` it pulls in, and ``hashlib`` with OpenSSL.
_UNUSED = ("dataclasses", "inspect", "hashlib", "_hashlib")

# Prints, on stderr, the latorb modules and those of ``_UNUSED`` loaded by
# ``import latorb.cli`` and then ``main(sys.argv[1:])``.
_PROBE = ("import sys, latorb.cli\n"
          "if sys.argv[1:]:\n"
          "    latorb.cli.main(sys.argv[1:])\n"
          "print(sorted(m for m in sys.modules if m.startswith('latorb') "
          f"or m in {_UNUSED!r}), file=sys.stderr)\n")

_CONSTRUCTION = ["latorb.catalog", "latorb.exactmat", "latorb.lattice", "latorb.liealg",
                 "latorb.roots", "latorb.terncode"]


@pytest.mark.parametrize(("argv", "added"), [
    ([], []),
    (["candidates", "--dim", "24", "--json"], ["latorb.liealg"]),
    (["schellekens", "--dim", "96", "--type", "E6,4", "--json"], ["latorb.liealg"]),
    (["golay", "--json"], ["latorb.terncode"]),
    (["lattice", "build", "A2_12", "--json"], _CONSTRUCTION),
    (["verify-all", "--json"], [*_CONSTRUCTION, "latorb.orbifold"]),
], ids=["import", "candidates", "schellekens", "golay", "lattice-build", "verify-all"])
def test_subcommands_import_only_their_layers(argv, added):
    """A cold ``import latorb.cli`` loads the construction table alone, and a
    subcommand adds only the layers it runs; no path loads ``dataclasses``,
    ``inspect`` or ``hashlib``."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    loaded = ast.literal_eval(subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, *argv],
        env=env, capture_output=True, text=True, check=True).stderr)
    want = ["latorb", "latorb.cli", "latorb.constructions", *added]
    assert [m for m in loaded if m.startswith("latorb")] == sorted(want)
    assert [m for m in loaded if m in _UNUSED] == []
