"""Each correctness gate of the benchmark can fail.

Run from the repository root (under a minute; it runs real operations):

    python3 perfbench/test_gates.py
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import lie_sweep  # noqa: E402
from common import end_to_end  # noqa: E402
from verify_cold import VerifyCold, check_output  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def corrupted(sigma: str, key: str) -> dict:
    ref = copy.deepcopy(REFERENCE)
    ref["isometries"][sigma][key] += 1
    return ref


def fake_output(reference: dict, passed: bool = True) -> bytes:
    reports = [{"sigma": s, "lattice": v["lattice"],
                "dims": {k: v[k] for k in ("fixed", "twisted_each", "total")},
                "indices": {k: v[k] for k in ("N_over_M", "N_over_R")}}
               for s, v in reference["isometries"].items()]
    return json.dumps({"pass": passed, "reports": reports}).encode()


class VerifyColdGate(unittest.TestCase):
    def test_matching_output_passes(self):
        self.assertEqual(check_output(0, fake_output(REFERENCE), REFERENCE), [])

    def test_each_field_can_fail(self):
        good = fake_output(REFERENCE)
        for key in ("fixed", "twisted_each", "total", "N_over_M", "N_over_R"):
            self.assertTrue(check_output(0, good, corrupted("sigma3", key)), key)
        moved = copy.deepcopy(REFERENCE)
        moved["isometries"]["sigma4"]["lattice"] = "A5_4_D4"
        self.assertTrue(check_output(0, good, moved))

    def test_exit_code_pass_flag_and_format_can_fail(self):
        self.assertTrue(check_output(1, fake_output(REFERENCE), REFERENCE))
        self.assertTrue(check_output(0, fake_output(REFERENCE, passed=False), REFERENCE))
        self.assertTrue(check_output(0, b"not json", REFERENCE))
        self.assertTrue(check_output(0, b'{"pass": true, "reports": []}', REFERENCE))

    def test_corrupted_reference_raises_fail_ratio(self):
        outcome = VerifyCold(corrupted("sigma1", "total")).run(0, 1, False)
        self.assertEqual(end_to_end(outcome.ops)["fail_ratio"], 1.0)


class LieSweepGate(unittest.TestCase):
    def test_count_matches_small_enumeration(self):
        from latorb import liealg
        types = liealg.all_types()
        for dim, rank, divisor in ((24, 6, 1), (78, None, 4), (40, None, 1), (60, 12, 2)):
            found = liealg.semisimple_candidates(dim, rank=rank, hcoxeter_divisor=divisor)
            self.assertEqual(lie_sweep.count_candidates(types, dim, rank, divisor),
                             len(found))

    def test_wrong_count_raises_fail_ratio(self):
        real = lie_sweep.count_candidates
        with mock.patch.object(lie_sweep, "count_candidates", lambda *q: real(*q) + 1):
            outcome = lie_sweep.LieSweep().run(0.5, 1, False)
        self.assertEqual(end_to_end(outcome.ops)["fail_ratio"], 1.0)

    def test_check_rejects_wrong_levels(self):
        from latorb import liealg
        result = lie_sweep.catalog_query(liealg, 28, None, 2)
        cand, levels, matches = result[0]
        bad = [(cand, {k: v + 1 for k, v in levels.items()}, matches)] + result[1:]
        self.assertTrue(lie_sweep.check(liealg, (28, None, 2), bad, len(result)))


if __name__ == "__main__":
    unittest.main()
