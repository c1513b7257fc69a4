"""End-to-end acceptance checks.

Each test covers one advertised guarantee at its full documented range and
registers a one-line PASS/FAIL verdict that pytest prints after the run
summary. All comparisons are exact; there are no tolerances anywhere.
"""

import functools
import random
import time

import conftest
from oracles import (
    border_strips_geometric,
    decomposition_moves,
    is_ribbon,
    movable_beads,
    oracle_fold,
    removal_sign_set,
    ribbon_additions,
    ribbon_height,
    strip_height,
    subpartitions_of_size,
    swap_bead,
)
from plethabacus.abacus import (
    BeadMove,
    IncompatibleAbaci,
    abacus_of,
    inversion_sign,
    partition_of,
)
from plethabacus.oracle import oracle_plethystic_mn
from plethabacus.partitions import (
    Box,
    SchurExpansion,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
    partitions_up_to,
)
from plethabacus.ring import newton_check
from plethabacus.strips import (
    RunnerType,
    border_strips,
    order_independent_sign,
    pairing_witness,
    r_decompose,
    runner_profile,
    sgn_r,
    sign_recursion_check,
)
from plethabacus.symfunc import plethystic_mn, plethystic_mn_multi, power_product_pleth

LAM = make_partition([13, 10, 10, 5, 4, 3, 1])
NU = make_partition([11, 7, 4, 3, 1])
MU = make_partition([13, 9, 4, 3, 3, 3, 1])
LAM2 = make_partition([10, 10, 8, 5, 5, 5, 1])
NU2 = make_partition([4, 4, 4, 2, 2])

LABELS = {
    1: "strip catalogue golden values for the 20-box worked shape, under 1 ms",
    2: "greedy 2-strip chains: exact moves, heights and signs on both paths",
    3: "type II pairing golden values: delta, P, inversion sets, cancelling signs",
    4: "plethystic expansions equal the determinant oracle, |nu|<=4, r,m<=3, degree<=12",
    5: "sign recursion holds for all skew shapes with rm<=10, r<=3, |nu|<=4",
    6: "every removal order gives one sign, skew size<=8, r<=3 (exhaustive)",
    7: "abacus strips equal geometric rim search, |lambda|<=12, s<=6",
    8: "strip sign products match bead inversion parity on 1000 random chains",
    9: "Newton identity for complete and power sums, m<=6 in 8 variables",
    10: "single-factor plethystic expansion equals the ribbon rule, |nu|<=6, r<=4",
    11: "plethystic expansions equal the oracle, |nu|<=6, r<=4, m<=5, degree<=18",
    12: "plethystic expansions equal the oracle, |nu|<=2, r in {3,5}, 24<degree<=30",
    13: "plethystic expansions equal the oracle at five shapes of degree 36 to 42",
    14: "plethystic expansions equal the oracle at two shapes of degree 80 and 84",
    15: "product folds equal the oracle's fold, |nu|<=4, degree<=16 and two of 23, 24",
    16: "plethystic expansions equal the oracle at three shapes of degree 80 to 100, r to 20",
    17: "product folds equal the oracle's fold, |nu|<=4, 17<=degree<=24 and two of 36",
    18: "plethystic expansions equal the oracle, |nu|<=8, r<=8, m<=12, degree<=26 and one of 100",
}


def acceptance(number: int):
    """Record FAIL when the test starts and PASS only if it finishes."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            conftest.acceptance_log[number] = (LABELS[number], "FAIL")
            fn()
            conftest.acceptance_log[number] = (LABELS[number], "PASS")

        return run

    return wrap


def _check_worked_strip() -> None:
    a = abacus_of(LAM, 7)
    assert 15 in movable_beads(a, 10)
    assert strip_height(a, 15, 10) == 3
    assert partition_of(swap_bead(a, 15, 10)) == MU
    (strip,) = [s for s in border_strips(LAM, 10) if s.inner == MU]
    assert strip.top_right == Box(2, 10)
    assert strip.bottom_left == Box(5, 4)
    assert strip.height == 3


@acceptance(1)
def test_01_worked_strip_golden_values_fast():
    _check_worked_strip()  # warm caches before timing
    best = float("inf")
    for _ in range(50):
        t0 = time.perf_counter()
        _check_worked_strip()
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"strip lookup took {best * 1e3:.3f} ms"


@acceptance(2)
def test_02_greedy_chain_moves_heights_and_signs():
    dec = r_decompose(make_skew(LAM, NU), 2)
    assert [tuple(m) for m in decomposition_moves(dec)] == [
        (19, 17), (15, 13), (14, 12), (13, 11), (11, 9),
        (9, 7), (7, 5), (5, 3), (4, 2), (2, 0),
    ]
    assert dec.heights == (0, 1, 1, 1, 0, 1, 1, 1, 1, 1)
    assert dec.sign == 1
    assert sgn_r(make_skew(LAM, NU), 2) == 1

    # remove the 10-strip first, then decompose the rest; the two signs
    # multiply to (-1)**6 = +1
    big_strip_height = strip_height(abacus_of(LAM, 7), 15, 10)
    assert big_strip_height == 3
    dec_mu = r_decompose(make_skew(MU, NU), 2)
    assert dec_mu.heights == (0, 0, 1, 1, 1)
    assert [tuple(m) for m in decomposition_moves(dec_mu, 7)] == [
        (19, 17), (14, 12), (5, 3), (4, 2), (2, 0),
    ]
    total = (-1) ** big_strip_height * dec_mu.sign
    assert (-1) ** 6 == 1 == total


@acceptance(3)
def test_03_type_ii_pairing_golden_values():
    a, c = abacus_of(LAM2, 9), abacus_of(NU2, 9)
    assert runner_profile(a, c, 2) == (RunnerType.II, RunnerType.I)

    witnesses = pairing_witness(a, c, 2)
    assert [w.gamma for w in witnesses] == [2, 4]
    for w in witnesses:
        assert (w.delta, w.delta_star, w.alpha, w.alpha_star) == (18, 14, 2, 12)
        assert w.P == frozenset({(18, 2), (14, 2), (18, 4), (14, 4)})

    w4 = witnesses[1]
    assert w4.mu == make_partition([9, 7, 4, 4, 4, 1, 1])
    assert w4.mu_star == make_partition([10, 10, 4, 4, 4, 1, 1])
    assert w4.J == frozenset(
        frozenset(p)
        for p in [(3, 18), (8, 18), (9, 18), (10, 18), (14, 17), (14, 18), (17, 18)]
    )
    assert w4.J_star == frozenset(
        frozenset(p) for p in [(3, 14), (8, 14), (9, 14), (10, 14)]
    )

    # the paired summands carry opposite signs: the two big moves remove
    # single 14-box ribbons of heights 5 and 3
    assert is_ribbon(LAM2, w4.mu) and ribbon_height(LAM2, w4.mu) == 5
    assert is_ribbon(LAM2, w4.mu_star) and ribbon_height(LAM2, w4.mu_star) == 3
    term = (-1) ** 5 * sgn_r(make_skew(w4.mu, NU2), 2)
    term_star = (-1) ** 3 * sgn_r(make_skew(w4.mu_star, NU2), 2)
    assert term_star == 1
    assert term == -1
    assert term_star == -term


@acceptance(4)
def test_04_plethystic_expansion_equals_oracle():
    cases = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                if r * m + nu.size() > 12:
                    continue
                assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (
                    nu, r, m,
                )
                cases += 1
    assert cases == 103


@acceptance(5)
def test_05_sign_recursion_full_sweep():
    cases = type_i_cases = 0
    for r in (1, 2, 3):
        for m in range(1, 10 // r + 1):
            for nu in partitions_up_to(4):
                for lam in partitions_of_size_containing(r * m + nu.size(), nu):
                    report = sign_recursion_check(make_skew(lam, nu), r)
                    assert report.lhs == report.rhs, (lam, nu, r)
                    assert report.m == m
                    # the greedy sign is the order-independent one; every tail
                    # mu/nu a summand signs is itself a case of this loop
                    if report.sgn_r_value:
                        assert report.sgn_r_value == order_independent_sign(lam, nu, r)
                    b = max(len(lam), len(nu), 1)
                    try:
                        profile = runner_profile(abacus_of(lam, b), abacus_of(nu, b), r)
                    except IncompatibleAbaci:
                        profile = None
                    if profile is not None and all(
                        t == RunnerType.I for t in profile
                    ):
                        nonzero = [s for s in report.summands if s.value != 0]
                        assert len(nonzero) == m, (lam, nu, r)
                        assert all(s.value == report.sgn_r_value for s in nonzero)
                        type_i_cases += 1
                    cases += 1
    assert cases == 7259
    assert type_i_cases > 1000


@acceptance(6)
def test_06_removal_order_never_changes_the_sign():
    # exhaustive over outer shapes of size <= 12, which covers every skew
    # shape of size <= 8 whose outer partition has at most 12 boxes
    shapes = reachable = 0
    memos: dict = {}
    for lam in partitions_up_to(12):
        for k in range(max(0, lam.size() - 8), lam.size() + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in (1, 2, 3):
                    if (lam.size() - k) % r:
                        continue
                    memo = memos.setdefault((nu, r), {})
                    signs = removal_sign_set(lam, nu, r, memo)
                    assert len(signs) <= 1, (lam, nu, r, signs)
                    got = order_independent_sign(lam, nu, r)
                    if signs:
                        assert signs == frozenset({got}), (lam, nu, r)
                        reachable += 1
                    else:
                        assert got == 0, (lam, nu, r)
                    shapes += 1
    assert shapes == 14683
    assert reachable == 11299


@acceptance(7)
def test_07_abacus_strips_equal_geometric_search():
    pairs = 0
    for lam in partitions_up_to(12):
        for s in range(1, 7):
            via_abacus = border_strips(lam, s)
            via_geometry = border_strips_geometric(lam, s)
            assert len(via_abacus) == len(via_geometry), (lam, s)
            key = lambda st: (st.inner.parts, st.height, st.top_right, st.bottom_left)
            assert sorted(map(key, via_abacus)) == sorted(map(key, via_geometry))
            pairs += 1
    assert pairs == 1632


@acceptance(8)
def test_08_random_removal_sequences_match_inversion_parity():
    rng = random.Random(20260814)
    for _ in range(1000):
        size = rng.randint(0, 12)
        options = list(partitions_of_size(size))
        lam = options[rng.randrange(len(options))]
        r = rng.randint(1, 4)
        beads = len(lam) + rng.randint(0, 2) if len(lam) else rng.randint(1, 3)
        start = abacus_of(lam, beads)
        current, product, moves = start, 1, []
        while True:
            movable = sorted(movable_beads(current, r))
            if not movable or (moves and rng.random() < 0.2):
                break
            beta = movable[rng.randrange(len(movable))]
            product *= (-1) ** strip_height(current, beta, r)
            moves.append(BeadMove(beta, beta - r))
            current = swap_bead(current, beta, r)
        sign, pairs = inversion_sign(start, moves)
        assert sign == product, (lam, r, moves)
        assert sign == (-1) ** len(pairs)


@acceptance(9)
def test_09_newton_identity():
    for m in range(1, 7):
        assert newton_check(m, 8), m


@acceptance(10)
def test_10_single_factor_reduces_to_classical_rule():
    # p_r applied to h_1 is p_r: one term per r-ribbon added to nu, read
    # off the diagrams with sign (-1)^height
    cases = 0
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            want = SchurExpansion(nu.size() + r, ribbon_additions(nu, r))
            assert plethystic_mn(nu, r, 1) == want, (nu, r)
            cases += 1
    assert cases == 120


@acceptance(11)
def test_11_plethystic_expansion_equals_oracle_to_degree_18():
    cases = 0
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            for m in (1, 2, 3, 4, 5):
                if r * m + nu.size() > 18:
                    continue
                assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (
                    nu, r, m,
                )
                cases += 1
    assert cases == 521


@acceptance(12)
def test_12_plethystic_expansion_equals_oracle_to_degree_30():
    cases = [
        (nu, r, m)
        for nu in partitions_up_to(2)
        for r in (3, 5)
        for m in range(1, 11)
        if 24 < r * m + nu.size() <= 30
    ]
    assert len(cases) == 13
    cases += [(make_partition([3, 2, 1]), 2, 10), (make_partition([4, 3, 2, 1]), 2, 10)]
    for nu, r, m in cases:
        assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (nu, r, m)


@acceptance(13)
def test_13_plethystic_expansion_equals_oracle_to_degree_42():
    cases = [((), 4, 9), ((1,), 4, 9), ((), 4, 10), ((), 6, 7), ((), 12, 3)]
    for nu, r, m in cases:
        nu = make_partition(nu)
        assert 36 <= r * m + nu.size() <= 42
        assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (nu, r, m)


@acceptance(14)
def test_14_plethystic_expansion_equals_oracle_to_degree_84():
    cases = [((4, 3, 2, 1), 7, 10, 13013), ((3, 1), 10, 8, 24310)]
    for nu, r, m, count in cases:
        nu = make_partition(nu)
        want = oracle_plethystic_mn(nu, r, m)
        assert len(want.terms) == count, (nu, r, m)
        assert plethystic_mn(nu, r, m) == want, (nu, r, m)


@acceptance(15)
def test_15_product_folds_equal_the_oracle_fold():
    # each term times one oracle call per factor, in the given order: the
    # coefficients come from determinants alone, for mixed r as well
    multi_ms = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2), (2, 2, 2), (0, 2))
    power_rs = ((1, 2), (2, 2), (2, 3), (1, 2, 3), (1, 1, 2), (3, 4))
    cases = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3, 4):
            for ms in multi_ms:
                if nu.size() + r * sum(ms) <= 16:
                    want = oracle_fold(nu, [(r, m) for m in ms])
                    assert plethystic_mn_multi(nu, r, list(ms)).terms == want, (nu, r, ms)
                    cases += 1
        for rs in power_rs:
            for m in (0, 1, 2, 3):
                if nu.size() + sum(rs) * m <= 16:
                    want = oracle_fold(nu, [(r, m) for r in rs])
                    assert power_product_pleth(nu, list(rs), m).terms == want, (nu, rs, m)
                    cases += 1
    # four values of r in one product, and coefficients up to 3,696
    mixed = power_product_pleth(make_partition([2, 1]), [1, 2, 3, 4], 2)
    assert mixed.terms == oracle_fold(make_partition([2, 1]), [(r, 2) for r in (1, 2, 3, 4)])
    dense = plethystic_mn_multi(make_partition([]), 2, [2] * 6)
    assert dense.terms == oracle_fold(make_partition([]), [(2, 2)] * 6)
    cases += 2
    assert (cases, len(mixed.terms), len(dense.terms)) == (601, 687, 1017)


@acceptance(16)
def test_16_plethystic_expansion_equals_oracle_to_degree_100():
    cases = [((), 8, 10, 19448), ((2, 2, 1), 12, 7, 31824), ((), 20, 5, 42504)]
    for nu, r, m, count in cases:
        nu = make_partition(nu)
        want = oracle_plethystic_mn(nu, r, m)
        assert len(want.terms) == count, (nu, r, m)
        assert plethystic_mn(nu, r, m) == want, (nu, r, m)


@acceptance(17)
def test_17_product_folds_equal_the_oracle_fold_to_degree_36():
    # acceptance 15's loops and factor lists, past its degree bound
    multi_ms = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2), (2, 2, 2), (0, 2))
    power_rs = ((1, 2), (2, 2), (2, 3), (1, 2, 3), (1, 1, 2), (3, 4))
    cases = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3, 4):
            for ms in multi_ms:
                if 17 <= nu.size() + r * sum(ms) <= 24:
                    want = oracle_fold(nu, [(r, m) for m in ms])
                    assert plethystic_mn_multi(nu, r, list(ms)).terms == want, (nu, r, ms)
                    cases += 1
        for rs in power_rs:
            for m in (0, 1, 2, 3):
                if 17 <= nu.size() + sum(rs) * m <= 24:
                    want = oracle_fold(nu, [(r, m) for r in rs])
                    assert power_product_pleth(nu, list(rs), m).terms == want, (nu, rs, m)
                    cases += 1
    # two products of three equal factors at degree 36
    empty = make_partition([])
    r4 = plethystic_mn_multi(empty, 4, [3, 3, 3])
    assert r4.terms == oracle_fold(empty, [(4, 3)] * 3)
    r3 = plethystic_mn_multi(empty, 3, [4, 4, 4])
    assert r3.terms == oracle_fold(empty, [(3, 4)] * 3)
    assert (cases, len(r4.terms), len(r3.terms)) == (105, 3556, 3439)


@acceptance(18)
def test_18_plethystic_expansion_equals_oracle_to_degree_26_and_100():
    # every single factor in range, m = 0 included
    cases = terms = 0
    for nu in partitions_up_to(8):
        for r in range(1, 9):
            for m in range(13):
                if nu.size() + r * m <= 26:
                    want = oracle_plethystic_mn(nu, r, m)
                    assert plethystic_mn(nu, r, m) == want, (nu, r, m)
                    cases += 1
                    terms += len(want.terms)
    # the Baseline case at degree 100 that acceptance 16 leaves out
    empty = make_partition([])
    want = oracle_plethystic_mn(empty, 10, 10)
    assert plethystic_mn(empty, 10, 10) == want
    assert (cases, terms, len(want.terms)) == (3445, 59189, 92378)
