"""Tests for the ternary code layer, its index permutations and the
residue-sum enumerator."""

import random
from itertools import product
from math import prod
from operator import mul

import pytest

from latorb.terncode import (
    IndexPermutation,
    TernaryCode,
    compose_perm,
    golay_code,
    golay_generators,
    is_self_dual,
    perm_from_cycles,
    residue_perm,
    residue_sums,
    shift_perm,
    stable_under,
    swap_perm,
    weight_distribution,
)


def test_generator_words():
    words = golay_generators()
    assert len(words) == 12
    assert words[0] == (1,) * 12
    assert words[1] == (1, 2, 2, 1, 2, 2, 2, 1, 1, 1, 2, 1)
    # One shift: the doubled positions move from {0,1,3,4,5,9} to
    # {10,0,2,3,4,8} in digit labels.
    assert words[2] == (1, 2, 1, 2, 2, 2, 1, 1, 1, 2, 1, 2)


def test_code_dimension_and_size():
    c = golay_code()
    assert c.dim == 6
    assert len(c.words()) == 729


def test_weight_distribution():
    assert weight_distribution(golay_code()) == {0: 1, 6: 264, 9: 440, 12: 24}
    # Enumerated in order, the words of this code have weights 0, 11, 11, 1,
    # 12, ...; the distribution lists the weights ascending all the same.
    split = TernaryCode.from_generators([(1,) * 11 + (0,), (0,) * 11 + (1,)])
    assert list(weight_distribution(split).items()) == [(0, 1), (1, 2), (11, 2), (12, 4)]
    zero = TernaryCode.from_generators([])
    assert weight_distribution(zero) == {0: 1}
    repetition = TernaryCode.from_generators([[1] * 12])
    assert weight_distribution(repetition) == {0: 1, 12: 2}


def test_six_word_basis_spans_the_code():
    words = golay_generators()
    subset = [words[0]] + [words[1 + i] for i in (1, 3, 4, 5, 9)]
    assert TernaryCode.from_generators(subset) == golay_code()


def test_stability():
    c = golay_code()
    assert stable_under(c, shift_perm())
    assert stable_under(c, swap_perm())
    assert stable_under(c, residue_perm())
    transposition = perm_from_cycles("(01)")
    assert not stable_under(c, transposition)


def test_residue_perm_cycle_structure():
    sigma = residue_perm()
    assert sigma.cycle_string() == "(∞)(4)(7)(012)(35X)(689)"
    assert sigma.order() == 3
    assert IndexPermutation(tuple(range(12))).order() == 1
    assert shift_perm().order() == 11
    assert swap_perm().order() == 2


def test_composition_and_inverse():
    nu = shift_perm()
    assert compose_perm(nu, nu.inverse()) == IndexPermutation(tuple(range(12)))
    word = golay_generators()[1]
    assert nu.inverse().apply_to_word(nu.apply_to_word(word)) == word
    # Composition acts right-to-left.
    delta = swap_perm()
    x = 3 + 1  # position of digit 3
    assert compose_perm(nu.inverse(), delta).images[x] == nu.inverse().images[delta.images[x]]


def test_cycle_strings_round_trip():
    rng = random.Random(20261020)
    perms = [shift_perm(), swap_perm(), residue_perm()]
    for _ in range(20):
        images = list(range(12))
        rng.shuffle(images)
        perms.append(IndexPermutation(tuple(images)))
    for perm in perms:
        assert perm_from_cycles(perm.cycle_string()) == perm
    with pytest.raises(ValueError, match="^not a bijection of the 12 positions$"):
        perm_from_cycles("(01)(12)")


def test_self_duality():
    assert is_self_dual(golay_code())
    assert not is_self_dual(TernaryCode.from_generators([[1] * 12]))
    # [I6 | I6] has dimension 6 and length 12, but each row has norm 2 mod 3.
    doubled = TernaryCode.from_generators([[int(j % 6 == i) for j in range(12)]
                                           for i in range(6)])
    assert doubled.dim == 6 and not is_self_dual(doubled)


def test_dimension_invariant_under_permutation():
    c = golay_code()
    rng = random.Random(20240814)
    for _ in range(50):
        images = list(range(12))
        rng.shuffle(images)
        perm = IndexPermutation(tuple(images))
        moved = TernaryCode.from_generators(
            [perm.apply_to_word(row) for row in c.basis])
        assert moved.dim == 6


def test_codes_are_values_and_label_maps_bijections():
    c = golay_code()
    again = TernaryCode.from_generators(reversed(golay_generators()))
    assert c == again and hash(c) == hash(again) == hash((12, c.basis))
    assert c != (12, c.basis) and c != TernaryCode.from_generators(golay_generators()[:3])
    with pytest.raises(ValueError, match="not a bijection"):
        perm_from_cycles("(01)(12)")
    with pytest.raises(ValueError, match="generator length mismatch"):
        TernaryCode.from_generators([[1, 1, 1]])


def brute_residue_sums(rows, orders, m, n):
    """The residue_sums reference: every coefficient vector, one at a time."""
    counts = {}
    for t in product(*(range(order) for order in orders)):
        key = tuple(sum(c * row[j] for c, row in zip(t, rows)) % m for j in range(n))
        counts[key] = counts.get(key, 0) + 1
    return counts


def closed_span(rows, m, n):
    """The subgroup of (Z/m)^n the rows generate, closed under adding a row."""
    span, frontier = {(0,) * n}, [(0,) * n]
    while frontier:
        key = frontier.pop()
        for row in rows:
            s = tuple((a + e) % m for a, e in zip(key, row))
            if s not in span:
                span.add(s)
                frontier.append(s)
    return span


def product_span(rows, n):
    """The words sum_i t_i rows_i mod 3 over every coefficient vector t."""
    cols = list(zip(*rows)) if rows else [()] * n
    return {tuple(sum(map(mul, t, col)) % 3 for col in cols)
            for t in product(range(3), repeat=len(rows))}


def test_from_generators_is_the_reduced_echelon_basis_of_the_span():
    # Lengths 0-12, 0-8 rows of entries -4..4, the last row often a
    # combination of the others.  The basis must be reduced row-echelon mod 3
    # and span what every coefficient vector of the generators spans; that
    # form is unique, so this pins the basis.
    rng = random.Random("from_generators")
    for _ in range(120):
        n, k = rng.randint(0, 12), rng.randint(0, 8)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if k >= 3 and rng.random() < 0.5:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        code = TernaryCode.from_generators(rows, n)
        assert code.length == n
        pivots = []
        for row in code.basis:
            assert len(row) == n and set(row) <= {0, 1, 2}
            pivots.append(next(j for j, e in enumerate(row) if e))
            assert row[pivots[-1]] == 1
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(code.basis):
            assert [row[col] for col in pivots] == [int(i == j) for j in range(len(pivots))]
        assert set(residue_sums(code.basis, (3,) * code.dim, 3, n)) == product_span(rows, n)


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("seed", range(8))
def test_residue_sums_matches_brute_force(m, seed):
    # Entries from -2m to 2m (zero and negatives among them), a last row
    # that depends on the others, orders cycling through 1..m, and n = 0 in
    # seeds 0 and 4; seed 3 has no rows at all, so only the zero row of
    # length 3, counted once.
    rng = random.Random(f"residue_sums {m} {seed}")
    n = seed % 4
    rows = [[rng.randint(-2 * m, 2 * m) for _ in range(n)] for _ in range(seed % 3 + 1)]
    rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
    if seed == 3:
        rows = []
    orders = [1 + (seed + i) % m for i in range(len(rows))]
    got = residue_sums(rows, orders, m, n)
    want = brute_residue_sums(rows, orders, m, n)
    assert got == want
    assert sum(got.values()) == prod(orders)
    full = residue_sums(rows, [m] * len(rows), m, n)
    assert full == brute_residue_sums(rows, [m] * len(rows), m, n)
    assert set(full) == closed_span(rows, m, n)
