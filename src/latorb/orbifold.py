"""Order-3 orbifold invariants for a lattice with a chosen isometry.

Given an even lattice L and an order-3 isometry s, this module computes the
eigenspace dimensions, the weight offset rho, the nested sublattices
M = (1-s)L and N = ker(1+s+s^2) with the radical R of the mod-6 commutator
pairing between them, and the weight-one dimension bookkeeping: fixed part,
twisted part (square root of |N/R| when rho = 1), and their total.  The
index |N/R| is always computed by two independent routes that must agree;
``twist_data`` computes N, M and the pairing on N once and hands them to
both.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from typing import NamedTuple

from . import liealg
from .catalog import NiemeierBundle, build_sigma, niemeier_bundle
from .constructions import CONSTRUCTIONS, SIGMA_KEYS
from .exactmat import IntMatrix, NoSolution, det, hnf, inverse, kernel_basis, snf, solve_exact
from .lattice import Isometry, rat_str
from .roots import RootSystem, orbit_count
from .terncode import residue_sums

TWIST_ORDER = 3

# c0(a, b) = sum_r (TWIST_ORDER + 2r) <s^r a, b> taken mod 2*TWIST_ORDER.
_COMMUTATOR_MOD = 2 * TWIST_ORDER


class OrbifoldError(Exception):
    """An invariant of the orbifold computation failed to hold."""


class UnsupportedTwistWeight(OrbifoldError):
    """rho < 1 (or rho not in (1/3)Z): the twisted weight-one space picks up
    contributions above the top level and no dimension rule is available."""


def eigen_dims(iso: Isometry) -> tuple[int, int, int]:
    """Complex eigenspace dimensions (h0, h1, h2) of an order-1-or-3
    isometry, for the eigenvalues 1, zeta, zeta^2.

    h0 is the exact rational nullity of (s - 1); the two primitive
    eigenspaces are complex conjugates, so they share the remaining rank
    equally.  An odd remainder means the matrix is not what it claims.
    """
    if iso.order not in (1, TWIST_ORDER):
        raise OrbifoldError(f"isometry order {iso.order} is not 1 or {TWIST_ORDER}")
    h0 = iso.fixed_rank
    rest = iso.lattice.rank - h0
    if rest % 2 != 0:
        raise OrbifoldError("conjugate eigenspaces differ in dimension; "
                            "the isometry matrix is inconsistent")
    return h0, rest // 2, rest // 2


def rho(eigen: tuple[int, int, int]) -> Fraction:
    """Twisted-module weight offset: (1/4p^2) sum_r r(p-r) dim_h(r), p = 3."""
    p = TWIST_ORDER
    return Fraction(sum(r * (p - r) * eigen[r] for r in range(p)), 4 * p * p)


def rho_is_admissible(value: Fraction) -> bool:
    """Whether rho lands in (1/3)Z, the range the dimension rules cover."""
    return (TWIST_ORDER * value).denominator == 1


def sublattice_n(iso: Isometry) -> IntMatrix:
    """N = {a in L : (1 + s + s^2)a = 0}: the rows of a saturated basis.

    Equivalently the vectors whose projection to the fixed subspace is zero;
    the kernel form avoids rational fixed-space bases.
    """
    s = iso.matrix
    return kernel_basis(IntMatrix.identity(s.rows) + s + s @ s)


def sublattice_m(iso: Isometry) -> IntMatrix:
    """M = (1 - s)L: the HNF rows of (1 - s).

    M lies in N because (1 - s)(1 + s + s^2) = 1 - s^3 = 0 at order 3;
    ``coset_filter_index`` checks it for each report, solving for M in N.
    """
    return hnf(IntMatrix.identity(iso.lattice.rank) - iso.matrix)


def commutator_gram(iso: Isometry) -> IntMatrix:
    """Integer matrix C with c0(a, b) = a C b^T mod 6 in basis coordinates."""
    if not iso.lattice.is_even:
        raise OrbifoldError("the mod-6 commutator pairing needs an even lattice")
    # C = sum_r (3 + 2r) s^r G, each s^r G one product by s from the last.
    term = iso.lattice.gram
    total = term.scale(TWIST_ORDER)
    for r in range(1, TWIST_ORDER):
        term = iso.matrix @ term
        total = total + term.scale(TWIST_ORDER + 2 * r)
    return total


def _pairing_on(iso: Isometry, n: IntMatrix) -> IntMatrix:
    """N C N^T: the commutator pairing on N's basis rows, an input both
    |N/R| routes read."""
    return n @ commutator_gram(iso) @ n.transpose()


def sublattice_r(n: IntMatrix, c: IntMatrix) -> tuple[IntMatrix, int]:
    """R = {a in N : c0(a, N) = 0 mod 6} and the index |N/R|, c the pairing
    on N (``_pairing_on``).

    Route one of the dual computation: the congruence kernel x C = 0 mod 6
    is solved by an integer kernel of the stacked matrix (C mod 6 over 6I),
    which reads C only mod 6; the projection of that kernel back to N
    coordinates is R, returned as HNF rows in L coordinates; |N/R| is the
    product of the projection's diagonal.
    """
    k = n.rows
    if k == 0:
        return n, 1
    stacked = IntMatrix.from_rows(
        [[e % _COMMUTATOR_MOD for e in row] for row in c.entries]
        + list(IntMatrix.identity(k).scale(_COMMUTATOR_MOD).entries), cols=k)
    # (6 e_i, -(C_i mod 6)) is in the kernel for each i, so proj holds 6Z^k: rank k.
    ker = kernel_basis(stacked)
    proj = hnf(IntMatrix.from_rows([row[:k] for row in ker.entries], cols=k))
    return hnf(proj @ n), prod(proj.entries[i][i] for i in range(k))


def coset_filter_index(n: IntMatrix, m: IntMatrix,
                       c: IntMatrix) -> tuple[int, int]:
    """Route two: (|N/M|, |N/R|) by filtering N/M cosets with c0, c the
    pairing on N (``_pairing_on``).

    Cosets are enumerated in Smith coordinates for N/M; a coset lies in R/M
    exactly when its row pairs to zero mod 6 against all of N.  The count
    splits meet-in-the-middle: ``residue_sums`` counts the pairing rows of
    each half of the nontrivial Smith generators, and the radical cosets are
    the pairs of a left and a right sum that cancel mod 6.
    """
    k = n.rows
    if k == 0:
        return 1, 1
    if m.rows != k:
        raise OrbifoldError("N/M is infinite; ranks differ")
    try:
        xi = solve_exact(n, m)
    except NoSolution:
        raise OrbifoldError("M does not embed in N integrally") from None
    dec = snf(xi)
    divisors = dec.invariant_factors
    if any(d == 0 for d in divisors):
        raise OrbifoldError("M has lower rank than N")
    index_nm = prod(divisors)

    # Pairing rows in Smith coordinates y = x V: condition y (V^-1 C) = 0 mod 6.
    vinv = inverse(dec.v)
    rows = (vinv @ c).entries
    if any(e % _COMMUTATOR_MOD for row in (xi @ c).entries for e in row):
        raise OrbifoldError("M is not in the radical; c0 does not descend to N/M")

    nontrivial = [i for i, d in enumerate(divisors) if d > 1]
    half = len(nontrivial) // 2
    left, right = (residue_sums([rows[i] for i in part], [divisors[i] for i in part],
                                _COMMUTATOR_MOD, k)
                   for part in (nontrivial[:half], nontrivial[half:]))
    negate = tuple(-a % _COMMUTATOR_MOD for a in range(_COMMUTATOR_MOD)).__getitem__
    radical_cosets = sum(cnt * right.get(tuple(map(negate, key)), 0)
                         for key, cnt in left.items())
    if radical_cosets == 0 or index_nm % radical_cosets != 0:
        raise OrbifoldError("coset filter produced a non-divisor count")
    return index_nm, index_nm // radical_cosets


class TwistData(NamedTuple):
    """Everything the twisted-module dimension rule
    (``twisted_weight_one_dim``) consumes; N, M and R are their basis rows in
    L coordinates, and |N/R| is a perfect square."""

    eigen: tuple[int, int, int]
    rho: Fraction
    n: IntMatrix
    m: IntMatrix
    r: IntMatrix
    index_nm: int
    index_nr: int


@lru_cache(maxsize=None)
def twist_data(iso: Isometry) -> TwistData:
    """Assemble eigen data, rho, N/M/R and the indices |N/M| and |N/R|.

    The two |N/R| routes (congruence kernel, coset filter) are both run and
    must agree; the coset filter solves for M in N and a second solve puts
    M inside R; |N/R| must be a perfect square, whose root
    ``twisted_weight_one_dim`` reads.  Any failure raises rather than
    producing a report.
    """
    eigen = eigen_dims(iso)
    offset = rho(eigen)
    n = sublattice_n(iso)
    if n.rows != eigen[1] + eigen[2]:
        raise OrbifoldError("rank N disagrees with the eigenspace dimensions")
    m = sublattice_m(iso)
    c = _pairing_on(iso, n)
    r, index_kernel = sublattice_r(n, c)
    index_nm, index_filter = coset_filter_index(n, m, c)
    if index_kernel != index_filter:
        raise OrbifoldError(
            f"|N/R| routes disagree: congruence kernel {index_kernel}, "
            f"coset filter {index_filter}")
    # R lies in N by construction (its rows are integer combinations of N's).
    try:
        solve_exact(r, m)
    except NoSolution:
        raise OrbifoldError("M is not contained in R") from None
    if isqrt(index_kernel) ** 2 != index_kernel:
        raise OrbifoldError(f"|N/R| = {index_kernel} is not a perfect square")
    return TwistData(eigen, offset, n, m, r, index_nm, index_kernel)


def twisted_weight_one_dim(td: TwistData) -> int:
    """Weight-one dimension of one twisted module: the top dimension
    sqrt|N/R| at rho = 1, zero at an admissible rho > 1, and an explicit
    error otherwise (never a silent zero), worded apart for rho < 1 and for a
    rho > 1 outside (1/3)Z."""
    if td.rho == 1:
        return isqrt(td.index_nr)
    if td.rho < 1:
        raise UnsupportedTwistWeight(
            f"rho = {td.rho}: weight one is above the top level and the "
            "dimension is not determined by |N/R|")
    if not rho_is_admissible(td.rho):
        raise UnsupportedTwistWeight(f"rho = {td.rho} is not in (1/3)Z")
    return 0


def fixed_weight_one_dim(iso: Isometry, rs: RootSystem, h0: int) -> int:
    """dim of the fixed weight-one space: the fixed rank h0 of ``iso``
    (``eigen_dims``) plus its orbits on the roots ``rs`` of its lattice."""
    orbits, _ = orbit_count(rs, iso)
    return h0 + orbits


def _candidate_entries(sigma_key: str, total: int) -> list[dict]:
    """The candidates of the row's query (dimension, rank bound) for its
    unresolved weight-one summand, at the dual Coxeter divisor
    d = (total - 24) / 24 of the level rule h / k = d, each flagged if the
    row flags it; a total that gives no positive integer d raises."""
    row = CONSTRUCTIONS["isometries"][sigma_key]
    if row["query"] is None:
        return []
    divisor, rest = divmod(total - 24, 24)
    if rest or divisor < 1:
        raise OrbifoldError(f"{sigma_key}: total {total} is not 24 (d + 1) for an integer d >= 1")
    flagged, _ = row["expect"]["flagged_candidates"]
    return [{**entry, "flagged": entry["type"] in flagged}
            for entry in liealg.candidate_entries(*row["query"], divisor)]


def _verify_resolved_type(sigma_key: str, total: int) -> str:
    text = CONSTRUCTIONS["isometries"][sigma_key]["resolved"]
    parsed = liealg.parse_type_string(text)
    if sum(t.dimension * count for t, _, count in parsed) != total:
        raise OrbifoldError(f"{sigma_key}: resolved type dimension is not {total}")
    for t, level, _ in parsed:
        if liealg.level_from_dim(t.dual_coxeter, total) != level:
            raise OrbifoldError(f"{sigma_key}: resolved type violates the level rule")
    return text


def stabilizes(bundle: NiemeierBundle, matrix: IntMatrix) -> bool:
    """Whether a glued-basis map, conjugated into base coordinates by the
    glue basis B, is an automorphism of the root lattice Q that sends each
    glue generator (a row of B) into a glue coset: the generators and Q span
    L, so the map then permutes the cosets L/Q (compared as residues).
    B is the HNF h of ``glue_extend`` over the glue denominator, reduced by a
    gcd, so ``b.den`` divides ``glue_den`` and an image's residue row is its
    numerator scaled by ``glue_den // b.den``."""
    ext = bundle.extension
    b = ext.basis_in_base
    # B, its images and s are numerators over b.den; s / den is unimodular.
    images = matrix @ b.num
    s = ext.base_in_lattice @ images
    if any(e % b.den for row in s.entries for e in row) or abs(det(s)) != b.den ** b.rows:
        return False
    glue, den = set(bundle.glue_group), bundle.glue_den
    return all(tuple(e * (den // b.den) % den for e in row) in glue for row in images.entries)


def assemble_report(sigma_key: str) -> dict:
    """Full orbifold report for one catalog construction, JSON-shaped.

    All checks are recomputed here from the isometry matrix; nothing is
    trusted from construction time.
    """
    if sigma_key not in SIGMA_KEYS:
        raise OrbifoldError(f"unknown isometry key {sigma_key!r}")
    lattice_key = CONSTRUCTIONS["isometries"][sigma_key]["lattice"]
    bundle = niemeier_bundle(lattice_key)
    iso = build_sigma(sigma_key)
    g, s = iso.lattice.gram, iso.matrix
    checks = {
        "isometry": s @ g @ s.transpose() == g,
        "order": (s @ s @ s).is_identity() and not s.is_identity(),
        "stabilizes": stabilizes(bundle, s),
    }
    td = twist_data(iso)
    fixed = fixed_weight_one_dim(iso, bundle.root_system, td.eigen[0])
    twisted = twisted_weight_one_dim(td)
    total = fixed + 2 * twisted
    # twisted_weight_one_dim has raised unless rho >= 1, where the dimension
    # formula dim V^orb_1 = 24 + 4 fixed - dim V_1 holds, dim V_1 = 24 + roots.
    roots = bundle.root_system.count
    if 2 * twisted != 3 * fixed - roots:
        raise OrbifoldError(f"{sigma_key}: dimension formula fails: 2 * twisted_each "
                            f"{twisted} != 3 * fixed {fixed} - roots {roots}")
    resolved = _verify_resolved_type(sigma_key, total)
    return {
        "lattice": lattice_key,
        "sigma": sigma_key,
        "checks": checks,
        "eigen": list(td.eigen),
        "rho": rat_str(td.rho),
        "ranks": {"N": td.n.rows, "M": td.m.rows, "R": td.r.rows},
        "indices": {"N_over_M": td.index_nm, "N_over_R": td.index_nr},
        "R_equals_M": td.index_nm == td.index_nr,
        "dims": {"fixed": fixed, "twisted_each": twisted, "total": total},
        "candidates": _candidate_entries(sigma_key, total),
        "schellekens": liealg.schellekens_match(total, resolved),
    }
