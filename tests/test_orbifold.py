"""Orbifold invariants: eigenspace data, rho, the N/M/R chain, the mod-6
commutator pairing, twisted and fixed weight-one dimensions, reports."""

import json
import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from latorb import cli, lattice, liealg, orbifold
from latorb.catalog import build_component_auto, build_root_lattice, build_sigma, niemeier_bundle
from latorb.constructions import CONSTRUCTIONS, SIGMA_KEYS
from latorb.exactmat import IntMatrix, det, snf
from latorb.lattice import Isometry, Lattice
from latorb.orbifold import (
    OrbifoldError,
    TwistData,
    _pairing_on,
    UnsupportedTwistWeight,
    assemble_report,
    commutator_gram,
    coset_filter_index,
    eigen_dims,
    fixed_weight_one_dim,
    rho,
    rho_is_admissible,
    stabilizes,
    sublattice_m,
    sublattice_n,
    sublattice_r,
    twist_data,
    twisted_weight_one_dim,
)
from latorb.roots import enumerate_roots

from test_lattice import sublattice_contains

EIGEN_EXPECTED = {
    "sigma1": (6, 9, 9),
    "sigma2": (0, 12, 12),
    "sigma3": (6, 9, 9),
    "sigma4": (6, 9, 9),
    "sigma5": (6, 9, 9),
    "sigma6": (6, 9, 9),
}

RHO_EXPECTED = {
    "sigma1": Fraction(1),
    "sigma2": Fraction(4, 3),
    "sigma3": Fraction(1),
    "sigma4": Fraction(1),
    "sigma5": Fraction(1),
    "sigma6": Fraction(1),
}

# (|N/M|, |N/R|, twisted weight-one dim); every pair here has R = M.
TWIST_EXPECTED = {
    "sigma1": (81, 81, 9),
    "sigma2": (531441, 531441, 0),
    "sigma3": (729, 729, 27),
    "sigma4": (81, 81, 9),
    "sigma5": (81, 81, 9),
    "sigma6": (81, 81, 9),
}

FIXED_EXPECTED = {
    "sigma1": 30,
    "sigma2": 48,
    "sigma3": 66,
    "sigma4": 54,
    "sigma5": 54,
    "sigma6": 102,
}

TOTAL_EXPECTED = {
    "sigma1": 48,
    "sigma2": 48,
    "sigma3": 120,
    "sigma4": 72,
    "sigma5": 72,
    "sigma6": 120,
}

SCHELLEKENS_EXPECTED = {
    "sigma1": [6],
    "sigma2": [6],
    "sigma3": [32],
    "sigma4": [17],
    "sigma5": [17],
    "sigma6": [32],
}


def identity_on(l):
    return Isometry.create(l, IntMatrix.identity(l.rank), 1)


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_eigen_dims(key):
    eigen = eigen_dims(build_sigma(key))
    assert eigen == EIGEN_EXPECTED[key]
    assert eigen[1] == eigen[2]


def test_eigen_dims_identity_and_rejects():
    d4 = build_root_lattice("D", 4).lattice
    assert eigen_dims(identity_on(d4)) == (4, 0, 0)
    minus = Isometry.create(d4, IntMatrix.identity(4).scale(-1), 2)
    with pytest.raises(OrbifoldError):
        eigen_dims(minus)
    # An unchecked order-3 claim on A1^3: diag(1, 1, -1) fixes rank 2, and
    # the rank 1 left cannot split into two conjugate eigenspaces.
    a1 = build_root_lattice("A", 1).lattice
    flip = Isometry(lattice.direct_sum([a1] * 3),
                    IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), 3)
    with pytest.raises(OrbifoldError) as excinfo:
        eigen_dims(flip)
    assert str(excinfo.value) == ("conjugate eigenspaces differ in dimension; "
                                  "the isometry matrix is inconsistent")


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_rho(key):
    assert rho(eigen_dims(build_sigma(key))) == RHO_EXPECTED[key]


def test_rho_degenerate_and_admissibility():
    assert rho((24, 0, 0)) == 0
    assert rho_is_admissible(Fraction(4, 3))
    assert rho_is_admissible(Fraction(1))
    assert not rho_is_admissible(Fraction(1, 9))


def test_sublattice_n_special_cases():
    # sigma2 is fixed-point-free, so 1 + s + s^2 = 0 and N is all of L.
    n2 = sublattice_n(build_sigma("sigma2"))
    assert n2 == IntMatrix.identity(24)
    assert sublattice_n(build_sigma("sigma1")).rows == 18
    d4 = build_root_lattice("D", 4).lattice
    assert sublattice_n(identity_on(d4)).rows == 0


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_sublattice_ranks(key):
    iso = build_sigma(key)
    eigen = eigen_dims(iso)
    n = sublattice_n(iso)
    m = sublattice_m(iso)
    assert n.rows == eigen[1] + eigen[2] == 24 - eigen[0]
    assert m.rows == n.rows
    for row in m.entries:
        assert sublattice_contains(n, row)


def test_sublattice_m_full_rank_index():
    # For the fixed-point-free isometry M has full rank in L and
    # |L/M| = |det(1 - s)|.
    iso = build_sigma("sigma2")
    m = sublattice_m(iso)
    expected = int(abs(det(IntMatrix.identity(24) - iso.matrix)))
    assert expected == 3 ** 12
    assert prod(snf(m).invariant_factors) == expected


def c0(iso, alpha, beta):
    """c0(alpha, beta) = a C b^T mod 6 with C from commutator_gram."""
    a = IntMatrix.from_rows([alpha])
    b = IntMatrix.from_rows([beta])
    return (a @ commutator_gram(iso) @ b.transpose()).entries[0][0] % 6


def act(iso, row):
    """The image row @ matrix of one coordinate row."""
    return (IntMatrix.from_rows([row]) @ iso.matrix).entries[0]


def test_commutator_cycled_block_pairs_vanish():
    # On each component turned in place by the code-fixing isometry, the
    # successive images of a root pair to -1 and their commutator is 0.
    iso = build_sigma("sigma1")
    ext = niemeier_bundle("A2_12").extension
    for position in (0, 5, 8):
        base_row = ext.base_in_lattice.entries[2 * position]
        a1 = act(iso, base_row)
        a2 = act(iso, a1)
        chain = (base_row, a1, a2)
        for r in range(3):
            first, second = chain[r], chain[(r + 1) % 3]
            assert iso.lattice.inner(first, second) == -1
            assert c0(iso, first, second) == 0


def test_commutator_coordinate_cycle_example():
    # Block 0 of sigma4's lattice carries the coordinate 3-cycle; for
    # alpha = e1-e2 and beta = e1-e4 the three inner products are 1, -1, 0,
    # so c0 = 3*1 + 5*(-1) + 7*0 = -2 = 4 mod 6.
    iso = build_sigma("sigma4")
    rows = niemeier_bundle("D4_6").extension.base_in_lattice.entries
    alpha = rows[0]
    beta = [a + b + c for a, b, c in zip(rows[0], rows[1], rows[2])]
    assert iso.lattice.inner(alpha, beta) == 1
    images = [alpha, act(iso, alpha), act(iso, act(iso, alpha))]
    assert [iso.lattice.inner(v, beta) for v in images] == [1, -1, 0]
    assert c0(iso, alpha, beta) == 4
    assert c0(iso, alpha, alpha) == 0
    assert c0(iso, beta, beta) == 0


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_twist_data(key):
    td = twist_data(build_sigma(key))
    index_nm, index_nr, wt1 = TWIST_EXPECTED[key]
    assert td.index_nm == index_nm
    assert td.index_nr == index_nr
    assert isqrt(td.index_nr) ** 2 == td.index_nr
    assert twisted_weight_one_dim(td) == wt1
    assert td.index_nm % td.index_nr == 0
    # chain M inside R inside N, checked row by row in parent coordinates
    for row in td.m.entries:
        assert sublattice_contains(td.r, row)
    for row in td.r.entries:
        assert sublattice_contains(td.n, row)


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_index_routes_agree(key):
    # The congruence-kernel route and the coset-filter route are computed
    # independently here, not just inside twist_data.
    iso = build_sigma(key)
    n = sublattice_n(iso)
    c = _pairing_on(iso, n)
    _, via_kernel = sublattice_r(n, c)
    _, via_filter = coset_filter_index(n, sublattice_m(iso), c)
    assert via_kernel == via_filter == TWIST_EXPECTED[key][1]


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_sublattice_r_reads_the_pairing_mod_6(key):
    # x C = 0 mod 6 depends on C mod 6 alone: C + 6K gives the same R and |N/R|.
    iso = build_sigma(key)
    n = sublattice_n(iso)
    c = _pairing_on(iso, n)
    rng = random.Random(f"sublattice_r {key}")
    shifted = c + IntMatrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(c.cols)] for _ in range(c.rows)],
        cols=c.cols).scale(6)
    assert shifted != c
    assert sublattice_r(n, shifted) == sublattice_r(n, c)


def test_twist_data_needs_an_even_lattice():
    # Z^3 with its coordinates cycled: order 3, but the mod-6 pairing is
    # defined on even lattices only.
    z3 = Lattice(IntMatrix.identity(3))
    cycle = Isometry.create(z3, IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 3)
    with pytest.raises(OrbifoldError, match="needs an even lattice"):
        twist_data(cycle)


def test_coset_filter_rejects_an_n_missing_m():
    # |N/M| = 81 for sigma1, so M does not lie in 2N: solving for M in the
    # doubled rows gives half-integers, and the filter refuses them.
    iso = build_sigma("sigma1")
    n = sublattice_n(iso)
    doubled = n.scale(2)
    with pytest.raises(OrbifoldError, match="M does not embed in N integrally"):
        coset_filter_index(doubled, sublattice_m(iso), _pairing_on(iso, doubled))


def test_twist_data_rejects_a_radical_missing_m(monkeypatch):
    # Route one returns 3R with the true index: the routes still agree, but
    # M no longer lies in the R that twist_data checks.
    true_route = orbifold.sublattice_r

    def tripled(n, c):
        r, index = true_route(n, c)
        return r.scale(3), index

    monkeypatch.setattr(orbifold, "sublattice_r", tripled)
    with pytest.raises(OrbifoldError, match="M is not contained in R"):
        twist_data(build_sigma("sigma1"))


def without_last_row(matrix: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(matrix.entries[:-1], cols=matrix.cols)


def test_twist_data_rejects_disagreeing_index_routes(monkeypatch):
    # Route two alone four times too large: 81 against 324.
    true_filter = orbifold.coset_filter_index

    def filter_times_four(n, m, c):
        index_nm, index_nr = true_filter(n, m, c)
        return index_nm, 4 * index_nr

    monkeypatch.setattr(orbifold, "coset_filter_index", filter_times_four)
    with pytest.raises(OrbifoldError, match=(
            "routes disagree: congruence kernel 81, coset filter 324")):
        twist_data(build_sigma("sigma1"))


def test_twist_data_rejects_a_non_square_index(monkeypatch):
    # Both routes three times too large: they agree on 243, which is no square.
    true_r, true_filter = orbifold.sublattice_r, orbifold.coset_filter_index

    def r_times_three(n, c):
        r, index = true_r(n, c)
        return r, 3 * index

    def filter_times_three(n, m, c):
        index_nm, index_nr = true_filter(n, m, c)
        return index_nm, 3 * index_nr

    monkeypatch.setattr(orbifold, "sublattice_r", r_times_three)
    monkeypatch.setattr(orbifold, "coset_filter_index", filter_times_three)
    with pytest.raises(OrbifoldError, match=r"\|N/R\| = 243 is not a perfect square"):
        twist_data(build_sigma("sigma1"))


def test_twist_data_rejects_an_n_of_the_wrong_rank(monkeypatch):
    true_n = orbifold.sublattice_n
    monkeypatch.setattr(orbifold, "sublattice_n", lambda iso: without_last_row(true_n(iso)))
    with pytest.raises(OrbifoldError, match="rank N disagrees with the eigenspace dimensions"):
        twist_data(build_sigma("sigma1"))


def test_twist_data_rejects_an_m_of_another_rank(monkeypatch):
    true_m = orbifold.sublattice_m
    monkeypatch.setattr(orbifold, "sublattice_m", lambda iso: without_last_row(true_m(iso)))
    with pytest.raises(OrbifoldError, match="N/M is infinite; ranks differ"):
        twist_data(build_sigma("sigma1"))


def test_coset_filter_rejects_an_m_outside_the_radical():
    # C + I pairs M's rows with N off zero mod 6, so c0 no longer descends.
    iso = build_sigma("sigma1")
    n = sublattice_n(iso)
    c = _pairing_on(iso, n) + IntMatrix.identity(n.rows)
    with pytest.raises(OrbifoldError, match="M is not in the radical"):
        coset_filter_index(n, sublattice_m(iso), c)


def test_coset_filter_rejects_an_m_of_lower_rank():
    iso = build_sigma("sigma1")
    n, m = sublattice_n(iso), sublattice_m(iso)
    c = _pairing_on(iso, n)
    with pytest.raises(OrbifoldError, match="N/M is infinite; ranks differ"):
        coset_filter_index(n, without_last_row(m), c)
    # M's last row replaced by its first: as many rows as N, all in N, but
    # of rank one less, so N/M has an invariant factor 0.
    repeated = IntMatrix.from_rows(m.entries[:-1] + m.entries[:1], cols=m.cols)
    with pytest.raises(OrbifoldError) as excinfo:
        coset_filter_index(n, repeated, c)
    assert str(excinfo.value) == "M has lower rank than N"


@pytest.mark.parametrize("scale", [0, 2])
def test_coset_filter_rejects_a_non_divisor_count(monkeypatch, scale):
    # Every half-sum count times 0 leaves no radical coset; times 2, sigma1's
    # one radical coset counts 4, which does not divide |N/M| = 81.
    true_sums = orbifold.residue_sums
    monkeypatch.setattr(orbifold, "residue_sums", lambda *args: {
        key: scale * cnt for key, cnt in true_sums(*args).items()})
    iso = build_sigma("sigma1")
    n = sublattice_n(iso)
    with pytest.raises(OrbifoldError) as excinfo:
        coset_filter_index(n, sublattice_m(iso), _pairing_on(iso, n))
    assert str(excinfo.value) == "coset filter produced a non-divisor count"


def test_sigma1_radical_equals_image():
    td = twist_data(build_sigma("sigma1"))
    assert td.index_nm == td.index_nr
    assert td.r == td.m  # both in HNF, so equality is exact


def test_sigma2_index_matches_determinant():
    # N = L for sigma2 and R = M, so |N/R| must equal |det(1 - s)|.
    iso = build_sigma("sigma2")
    td = twist_data(iso)
    assert td.index_nr == int(abs(det(IntMatrix.identity(24) - iso.matrix)))


def test_unsupported_twist_weights():
    d4 = build_root_lattice("D", 4).lattice
    td = twist_data(identity_on(d4))
    assert td.rho == 0
    with pytest.raises(UnsupportedTwistWeight):
        twisted_weight_one_dim(td)
    # order-3 on A2 alone: rho = 1/9 is below 1 and outside (1/3)Z
    phi = build_component_auto("cycle_A2")
    td_phi = twist_data(phi)
    assert td_phi.rho == Fraction(1, 9)
    assert (td_phi.index_nm, td_phi.index_nr) == (3, 1)
    with pytest.raises(UnsupportedTwistWeight):
        twisted_weight_one_dim(td_phi)


@pytest.mark.parametrize("value, expected", [
    (Fraction(1), 9),
    (Fraction(4, 3), 0),
    (Fraction(5, 3), 0),
    (Fraction(10, 9), None),
    (Fraction(2, 3), None),
    (Fraction(1, 3), None),
    (Fraction(0), None),
])
def test_twisted_weight_one_rule(value, expected):
    # The rule reads only rho and |N/R| = 81: sqrt at rho = 1, zero at an
    # admissible rho > 1, and UnsupportedTwistWeight otherwise, worded apart
    # at rho < 1 and at a rho > 1 outside (1/3)Z.
    empty = IntMatrix.identity(0)
    td = TwistData((6, 9, 9), value, empty, empty, empty, 81, 81)
    if expected is None:
        message = (rf"^rho = {value}: weight one is above the top level" if value < 1
                   else rf"^rho = {value} is not in \(1/3\)Z$")
        with pytest.raises(UnsupportedTwistWeight, match=message):
            twisted_weight_one_dim(td)
    else:
        assert twisted_weight_one_dim(td) == expected


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_fixed_weight_one(key):
    iso = build_sigma(key)
    rs = niemeier_bundle(CONSTRUCTIONS["isometries"][key]["lattice"]).root_system
    assert fixed_weight_one_dim(iso, rs, EIGEN_EXPECTED[key][0]) == FIXED_EXPECTED[key]


def test_fixed_weight_one_identity():
    d4 = build_root_lattice("D", 4).lattice
    assert fixed_weight_one_dim(identity_on(d4), enumerate_roots(d4), 4) == 4 + 24
    rs = niemeier_bundle("A2_12").root_system
    iso = identity_on(niemeier_bundle("A2_12").lattice)
    assert fixed_weight_one_dim(iso, rs, 24) == 24 + 72


def test_fixed_weight_one_component_autos():
    cases = {
        "cycle_A2": 2,
        "rotation_D4": 8,
        "triality_D4": 14,
        "coord_cycle_D4": 10,
        "coord_cycle_A5": 11,
        "reflection_product_E6": 24,
    }
    for name, want in cases.items():
        iso = build_component_auto(name)
        h0 = eigen_dims(iso)[0]
        assert fixed_weight_one_dim(iso, enumerate_roots(iso.lattice), h0) == want


def test_report_sigma1_golden():
    assert assemble_report("sigma1") == {
        "lattice": "A2_12",
        "sigma": "sigma1",
        "checks": {"isometry": True, "order": True, "stabilizes": True},
        "eigen": [6, 9, 9],
        "rho": "1",
        "ranks": {"N": 18, "M": 18, "R": 18},
        "indices": {"N_over_M": 81, "N_over_R": 81},
        "R_equals_M": True,
        "dims": {"fixed": 30, "twisted_each": 9, "total": 48},
        "candidates": [
            {"type": "A2^3", "with_levels": "A2,3^3",
             "dimension": 24, "rank": 6, "flagged": False},
            {"type": "A3 A1^3", "with_levels": "A3,4 A1,2^3",
             "dimension": 24, "rank": 6, "flagged": True},
            {"type": "B2 A2 A1^2", "with_levels": "B2,3 A2,3 A1,2^2",
             "dimension": 24, "rank": 6, "flagged": False},
        ],
        "schellekens": [6],
    }


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_report_summary_values(key):
    report = assemble_report(key)
    assert report["lattice"] == CONSTRUCTIONS["isometries"][key]["lattice"]
    assert all(report["checks"].values())
    assert report["eigen"] == list(EIGEN_EXPECTED[key])
    assert report["dims"]["fixed"] == FIXED_EXPECTED[key]
    assert report["dims"]["twisted_each"] == TWIST_EXPECTED[key][2]
    assert report["dims"]["total"] == TOTAL_EXPECTED[key]
    assert report["dims"]["total"] == (report["dims"]["fixed"]
                                       + 2 * report["dims"]["twisted_each"])
    assert (report["dims"]["total"] - 24) % 24 == 0
    assert report["schellekens"] == SCHELLEKENS_EXPECTED[key]
    flagged = [c["type"] for c in report["candidates"] if c["flagged"]]
    assert flagged == (["A3 A1^3"] if key == "sigma1" else [])
    again = assemble_report(key)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_report_checks_the_dimension_formula_on_the_fixed_side(monkeypatch):
    # For rho >= 1, 2 * twisted_each = 3 * fixed - |roots|.  One root orbit
    # too many: fixed 30 -> 31, 3 * 31 - 72 = 21 != 18.  The resolved-type
    # check that follows would raise too; the message shows which fired.
    true_count = orbifold.orbit_count

    def one_more(rs, iso):
        orbits, fixed_roots = true_count(rs, iso)
        return orbits + 1, fixed_roots

    monkeypatch.setattr(orbifold, "orbit_count", one_more)
    with pytest.raises(OrbifoldError, match=(
            r"sigma1: dimension formula fails: 2 \* twisted_each 9 != 3 \* fixed 31")):
        assemble_report("sigma1")


def test_report_checks_the_dimension_formula_on_the_twisted_side(monkeypatch):
    # Both |N/R| routes four times too large: they agree, |N/R| = 324 is a
    # square, and twisted_each 18 breaks 2 * 18 = 3 * 30 - 72.
    true_r, true_filter = orbifold.sublattice_r, orbifold.coset_filter_index

    def r_times_four(n, c):
        r, index = true_r(n, c)
        return r, 4 * index

    def filter_times_four(n, m, c):
        index_nm, index_nr = true_filter(n, m, c)
        return index_nm, 4 * index_nr

    monkeypatch.setattr(orbifold, "sublattice_r", r_times_four)
    monkeypatch.setattr(orbifold, "coset_filter_index", filter_times_four)
    with pytest.raises(OrbifoldError, match=(
            r"sigma1: dimension formula fails: 2 \* twisted_each 18 != 3 \* fixed 30")):
        assemble_report("sigma1")


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_stabilizes_recomputes_from_base_coordinates(key):
    bundle = niemeier_bundle(CONSTRUCTIONS["isometries"][key]["lattice"])
    s = build_sigma(key).matrix
    assert stabilizes(bundle, s)
    # One bumped entry in the glued basis: the map no longer sends the
    # root lattice Q into itself.
    bumped = [list(row) for row in s.entries]
    bumped[1][0] += 1
    assert not stabilizes(bundle, IntMatrix.from_rows(bumped))


def test_stabilizes_needs_a_unimodular_map():
    # 4 * identity maps Q into Q and fixes every 3-torsion glue residue of
    # A2_12, but it is not invertible over Z.
    bundle = niemeier_bundle("A2_12")
    assert not stabilizes(bundle, IntMatrix.identity(24).scale(4))


def test_stabilizes_reads_the_glue_group():
    # With a listed glue group of the zero coset alone, the images of the
    # glue generators no longer land in a listed coset.
    bundle = niemeier_bundle("A2_12")
    zero_only = bundle._replace(glue_group=bundle.glue_group[:1])
    assert not any(zero_only.glue_group[0])
    assert stabilizes(bundle, build_sigma("sigma1").matrix)
    assert not stabilizes(zero_only, build_sigma("sigma1").matrix)


def test_stabilizes_fails_when_cosets_collapse():
    # Twice sigma2 still maps Q into Q, but doubling kills the 2-group of
    # glue cosets of D4_6, so the cosets are not permuted.
    bundle = niemeier_bundle("D4_6")
    assert not stabilizes(bundle, build_sigma("sigma2").matrix.scale(2))


def test_report_forms_the_fixed_space_kernel_once(monkeypatch):
    # h0 is the nullity of s - 1 (Isometry.fixed_rank, lattice's one kernel
    # call); a report reads it from eigen_dims once.
    calls = []
    true_kernel = lattice.kernel_basis

    def counting(m):
        calls.append(m)
        return true_kernel(m)

    monkeypatch.setattr(lattice, "kernel_basis", counting)
    for key in SIGMA_KEYS:
        calls.clear()
        assemble_report(key)
        assert len(calls) == 1, key


def test_verify_all_builds_and_twists_each_sigma_once(monkeypatch, capsys):
    # One verify-all assembles each isometry once and computes its twist
    # data once, so neither step gains from a cache.
    built, twisted = [], []
    true_build, true_twist = orbifold.build_sigma, orbifold.twist_data

    def building(key):
        built.append(key)
        return true_build(key)

    def twisting(iso):
        twisted.append(iso)
        return true_twist(iso)

    monkeypatch.setattr(orbifold, "build_sigma", building)
    monkeypatch.setattr(orbifold, "twist_data", twisting)
    assert cli.main(["verify-all"]) == cli.EXIT_OK
    capsys.readouterr()
    assert built == list(SIGMA_KEYS)
    assert twisted == [build_sigma(key) for key in SIGMA_KEYS]


def test_report_unknown_key():
    with pytest.raises(OrbifoldError):
        assemble_report("sigma9")


@pytest.mark.parametrize("key", SIGMA_KEYS)
def test_commutator_is_alternating_and_bilinear(key):
    iso = build_sigma(key)
    gram = commutator_gram(iso).entries
    rank = iso.lattice.rank
    rng = random.Random(2000 + SIGMA_KEYS.index(key))

    def image(vec):
        return [sum(gram[i][j] * vec[j] for j in range(rank))
                for i in range(rank)]

    def dot6(u, v):
        return sum(a * b for a, b in zip(u, v)) % 6

    for trial in range(1000):
        a = [rng.randint(-3, 3) for _ in range(rank)]
        b = [rng.randint(-3, 3) for _ in range(rank)]
        a2 = [rng.randint(-3, 3) for _ in range(rank)]
        via = image(b)
        value = dot6(a, via)
        assert (value + dot6(b, image(a))) % 6 == 0  # alternating
        assert dot6([x + y for x, y in zip(a, a2)], via) \
            == (value + dot6(a2, via)) % 6  # bilinear in the first slot
        if trial < 10:
            assert c0(iso, a, b) == value
            # definition route: sum of (3 + 2r) <s^r a, b> without the matrix
            direct = 0
            img = a
            for r in range(3):
                direct += (3 + 2 * r) * iso.lattice.inner(img, b)
                img = act(iso, img)
            assert direct % 6 == value


# A corrupted field of one isometry row, and what the report says of it.
CORRUPTED_ROWS = [
    ("sigma1", "resolved", "A2,3^5", "sigma1: resolved type dimension is not 48"),
    ("sigma1", "resolved", "A2,2^6", "sigma1: resolved type violates the level rule"),
    ("sigma1", "resolved", "A2,4^6", "sigma1: resolved type violates the level rule"),
]


@pytest.mark.parametrize("key,field,value,message", CORRUPTED_ROWS)
def test_report_rejects_a_corrupted_row(monkeypatch, key, field, value, message):
    monkeypatch.setitem(CONSTRUCTIONS["isometries"][key], field, value)
    with pytest.raises(OrbifoldError, match=f"^{message}$"):
        assemble_report(key)


def test_candidate_entries_reject_a_total_with_no_divisor(monkeypatch):
    # The divisor d = (total - 24) / 24 of the level rule: 56 leaves a rest
    # of 8, and 24 gives d = 0.  Each total is fixed + 2 twisted_each with
    # 2 twisted_each = 3 fixed - 72, so the dimension formula holds.
    for total, fixed, twisted in ((56, 32, 12), (24, 24, 0)):
        monkeypatch.setattr(orbifold, "fixed_weight_one_dim", lambda *args, f=fixed: f)
        monkeypatch.setattr(orbifold, "twisted_weight_one_dim", lambda td, t=twisted: t)
        with pytest.raises(OrbifoldError, match=f"^sigma1: total {total} is not "
                                                r"24 \(d \+ 1\) for an integer d >= 1$"):
            assemble_report("sigma1")


def test_report_rejects_a_candidate_off_the_level_rule(monkeypatch):
    # A1 has dual Coxeter number 2, no multiple of sigma3's divisor 4: at
    # total 120 its level 2 * 24 / 96 is not an integer, and h // d is 0.
    a1 = liealg.semisimple_candidates(3)
    assert [c.type_string() for c in a1] == ["A1"]
    monkeypatch.setattr(liealg, "semisimple_candidates", lambda *args, **kw: a1)
    report = assemble_report("sigma3")
    assert [c["with_levels"] for c in report["candidates"]] == ["A1,0"]
    failed = [row for row in cli.verify_report("sigma3", report) if not row["ok"]]
    assert failed == [{"name": "sigma3 candidate_types", "computed": ["A1"],
                       "expected": ["A7 A3", "C3 A3 G2^3", "C3^3 A3", "E6"],
                       "source": "computed", "ok": False}]
