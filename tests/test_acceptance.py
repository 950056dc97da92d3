"""Acceptance gate: nine criteria, one test and one printed verdict each.

Every test recomputes its quantities through the public API rather than
trusting constants frozen elsewhere in the suite, and prints a single
PASS line (visible under -s; pytest's own status line is the fail signal).
All arithmetic is exact; no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import isqrt

from latorb import liealg, orbifold, terncode
from latorb.catalog import build_root_lattice, build_sigma, niemeier_bundle
from latorb.constructions import CONSTRUCTIONS, LATTICE_KEYS, SIGMA_KEYS
from latorb.exactmat import IntMatrix, det, hnf, snf
from latorb.lattice import direct_sum, is_even_unimodular
from latorb.roots import classify, enumerate_roots

from test_lattice import sublattice_contains

EXPECTED_CLASSIFICATION = {
    "A2_12": ((("A", 2),) * 12, 72),
    "D4_6": ((("D", 4),) * 6, 144),
    "A5_4_D4": ((("A", 5),) * 4 + (("D", 4),), 144),
    "E6_4": ((("E", 6),) * 4, 288),
}

EXPECTED_FIXED_RANK = {"sigma1": 6, "sigma2": 0, "sigma3": 6, "sigma4": 6,
                       "sigma5": 6, "sigma6": 6}
EXPECTED_RHO = {"sigma1": Fraction(1), "sigma2": Fraction(4, 3),
                "sigma3": Fraction(1), "sigma4": Fraction(1),
                "sigma5": Fraction(1), "sigma6": Fraction(1)}
EXPECTED_FIXED_DIM = {"sigma1": 30, "sigma2": 48, "sigma3": 66, "sigma4": 54,
                      "sigma5": 54, "sigma6": 102}
EXPECTED_INDEX_NR = {"sigma1": 81, "sigma3": 729, "sigma4": 81, "sigma5": 81,
                     "sigma6": 81}
EXPECTED_TWISTED = {"sigma1": 9, "sigma2": 0, "sigma3": 27, "sigma4": 9,
                    "sigma5": 9, "sigma6": 9}
EXPECTED_TOTAL = {"sigma1": 48, "sigma2": 48, "sigma3": 120, "sigma4": 72,
                  "sigma5": 72, "sigma6": 120}
EXPECTED_MATCHES = {"sigma1": [6], "sigma2": [6], "sigma3": [32],
                    "sigma4": [17], "sigma5": [17], "sigma6": [32]}


def test_criterion_1_ternary_code():
    code = terncode.golay_code()
    assert code.dim == 6
    assert len(code.words()) == 729
    assert terncode.weight_distribution(code) == {0: 1, 6: 264, 9: 440, 12: 24}
    assert terncode.stable_under(code, terncode.shift_perm())
    assert terncode.stable_under(code, terncode.swap_perm())
    sigma = terncode.residue_perm()
    assert terncode.stable_under(code, sigma)
    assert sigma.cycle_string() == "(∞)(4)(7)(012)(35X)(689)"
    assert sigma.order() == 3
    print("PASS criterion 1: ternary code dimension, weights, and symmetries")


def test_criterion_2_even_unimodular_lattices():
    for key in LATTICE_KEYS:
        bundle = niemeier_bundle(key)
        even, unimodular = is_even_unimodular(bundle.lattice)
        assert even and unimodular
        assert bundle.lattice.determinant() == 1
        assert bundle.lattice.rank == 24
        expected_types, expected_count = EXPECTED_CLASSIFICATION[key]
        assert classify(bundle.root_system) == expected_types
        assert bundle.root_system.count == expected_count
    print("PASS criterion 2: four even unimodular rank-24 lattices classified")


def test_criterion_3_isometry_orders_and_top_weights():
    for key in SIGMA_KEYS:
        iso = build_sigma(key)
        cube = iso.matrix @ iso.matrix @ iso.matrix
        assert cube.is_identity() and not iso.matrix.is_identity()
        m = iso.matrix
        assert m @ iso.lattice.gram @ m.transpose() == iso.lattice.gram
        assert iso.fixed_rank == EXPECTED_FIXED_RANK[key]
        assert orbifold.rho(orbifold.eigen_dims(iso)) == EXPECTED_RHO[key]
    print("PASS criterion 3: six order-3 isometries with exact fixed ranks "
          "and top weights")


def _fixed_dim(sigma_key: str) -> int:
    rs = niemeier_bundle(CONSTRUCTIONS["isometries"][sigma_key]["lattice"]).root_system
    iso = build_sigma(sigma_key)
    return orbifold.fixed_weight_one_dim(iso, rs, orbifold.eigen_dims(iso)[0])


def test_criterion_4_fixed_weight_one_dimensions():
    for key in SIGMA_KEYS:
        assert _fixed_dim(key) == EXPECTED_FIXED_DIM[key]
    print("PASS criterion 4: fixed-sector weight-one dimensions "
          "(30, 48, 66, 54, 54, 102)")


def test_criterion_5_twisted_sector_data():
    for key in SIGMA_KEYS:
        iso = build_sigma(key)
        td = orbifold.twist_data(iso)
        if key in EXPECTED_INDEX_NR:
            assert td.index_nr == EXPECTED_INDEX_NR[key]
        assert orbifold.twisted_weight_one_dim(td) == EXPECTED_TWISTED[key]
        # the two independent index routes, re-run from scratch
        n = orbifold.sublattice_n(iso)
        c = orbifold._pairing_on(iso, n)
        _, kernel_route = orbifold.sublattice_r(n, c)
        _, coset_route = orbifold.coset_filter_index(n, orbifold.sublattice_m(iso), c)
        assert kernel_route == coset_route == td.index_nr
    first = orbifold.twist_data(build_sigma("sigma1"))
    assert first.index_nm == first.index_nr
    print("PASS criterion 5: twisted indices (81, -, 729, 81, 81, 81), "
          "dims (9, 0, 27, 9, 9, 9), dual routes agree")


def test_criterion_6_totals_and_classification_matches():
    for key in SIGMA_KEYS:
        iso = build_sigma(key)
        td = orbifold.twist_data(iso)
        total = (_fixed_dim(key)
                 + 2 * orbifold.twisted_weight_one_dim(td))
        assert total == EXPECTED_TOTAL[key]
        report = orbifold.assemble_report(key)
        assert report["dims"]["total"] == total
        assert report["schellekens"] == EXPECTED_MATCHES[key]
    print("PASS criterion 6: totals (48, 48, 120, 72, 72, 120) match rows "
          "[6], [6], [32], [17], [17], [32]")


def test_criterion_7_candidate_enumerations():
    def types(dim, rank=None, hdvd=1):
        found = liealg.semisimple_candidates(dim, rank=rank,
                                             hcoxeter_divisor=hdvd)
        return {c.type_string() for c in found}

    assert {"E6", "A7 A3", "C3^3 A3"} <= types(78, hdvd=4)
    assert {"A5", "C3 G2"} <= types(35, hdvd=2)
    assert {"D4", "G2^2"} <= types(28, hdvd=2)
    assert {"G2^3", "C3^2"} <= types(42, hdvd=4)
    assert {"A2^3", "B2 A2 A1^2"} <= types(24, rank=6)
    flagged = [c["type"] for c in orbifold.assemble_report("sigma1")["candidates"]
               if c["flagged"]]
    assert flagged == ["A3 A1^3"]
    print("PASS criterion 7: candidate lists contain the expected types; "
          "A3 A1^3 flagged")


def test_criterion_8_level_arithmetic():
    rows = liealg.schellekens_rows()
    assert len(rows) == 15
    for row in rows:
        ratio = Fraction(row.dim_v1 - 24, 24)
        for data, level, _count in liealg.parse_type_string(row.type_string):
            assert Fraction(data.dual_coxeter, level) == ratio
    print("PASS criterion 8: every component of all 15 stored rows satisfies "
          "the level identity exactly")


def _matvec(c: IntMatrix, y: list[int]) -> list[int]:
    return [sum(r * yj for r, yj in zip(row, y)) for row in c.entries]


def _dot6(x: list[int], w: list[int]) -> int:
    return sum(a * b for a, b in zip(x, w)) % 6


def _reduces_to_zero(h: IntMatrix, target) -> bool:
    """Whether target is an integer combination of the normal-form rows.

    Greedy pivot reduction is exact here because the pivots of successive
    rows move strictly rightward.
    """
    rest = list(target)
    for row in h.entries:
        col = next(j for j, e in enumerate(row) if e != 0)
        if rest[col] % row[col] != 0:
            return False
        q = rest[col] // row[col]
        rest = [a - q * b for a, b in zip(rest, row)]
    return all(a == 0 for a in rest)


def test_criterion_9_property_suites():
    # commutator form: alternating and bilinear mod 6, 1000 pairs per isometry
    for pos, key in enumerate(SIGMA_KEYS):
        iso = build_sigma(key)
        c = orbifold.commutator_gram(iso)
        rng = random.Random(7100 + pos)
        for _ in range(1000):
            x = [rng.randint(-3, 3) for _ in range(24)]
            y = [rng.randint(-3, 3) for _ in range(24)]
            z = [rng.randint(-3, 3) for _ in range(24)]
            image_x = _matvec(c, x)
            image_y = _matvec(c, y)
            assert _dot6(x, image_x) == 0
            assert (_dot6(x, image_y) + _dot6(y, image_x)) % 6 == 0
            combined = [a + b for a, b in zip(x, z)]
            assert _dot6(combined, image_y) \
                == (_dot6(x, image_y) + _dot6(z, image_y)) % 6
        td = orbifold.twist_data(iso)
        for inner, outer in ((td.m, td.r), (td.r, td.n)):
            for row in inner.entries:
                assert sublattice_contains(outer, list(row))
        assert isqrt(td.index_nr) ** 2 == td.index_nr
        eigen = orbifold.eigen_dims(iso)
        assert eigen[1] == eigen[2]

    # normal forms: span and divisibility invariants, 1000 random matrices
    rng = random.Random(9100)
    for _ in range(1000):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
            cols=cols)
        h = hnf(m)
        for row in m.entries:
            assert _reduces_to_zero(h, row)
        assert hnf(h) == h
        dec = snf(m)
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        diag = dec.u @ m @ dec.v
        bound = min(m.rows, m.cols)
        for i in range(diag.rows):
            for j in range(diag.cols):
                expected = dec.invariant_factors[i] if i == j and i < bound \
                    else 0
                assert diag.entries[i][j] == expected
        factors = [f for f in dec.invariant_factors if f]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        if m.rows == m.cols:
            product = 1
            for f in dec.invariant_factors:
                product *= f
            assert abs(det(m)) == product

    # classification is additive over direct sums of catalog parts
    pool = [("A", 2), ("A", 5), ("D", 4), ("E", 6)]
    rng = random.Random(9200)
    checked: set[tuple] = set()
    for _ in range(12):
        first = rng.choice(pool)
        second = rng.choice(pool)
        if (first, second) in checked:
            continue
        checked.add((first, second))
        summed = direct_sum([build_root_lattice(*first).lattice,
                             build_root_lattice(*second).lattice])
        assert classify(enumerate_roots(summed)) \
            == tuple(sorted((first, second)))
    assert len(checked) >= 6
    print("PASS criterion 9: randomized form, normal-form, and "
          "classification properties hold with exact arithmetic")
