import random
from collections import Counter

import pytest

from oracles import (
    apply_moves,
    border_strip,
    border_strips_geometric,
    brute_force_pair_set,
    decomposition_moves,
    final_strip_chain,
    is_border_strip_pair,
    is_ribbon,
    minimal_distinct_row,
    removal_sign_set,
    ribbon_height,
    ribbon_removals,
    skew_boxes,
    subpartitions_of_size,
    swap_search_runner_type,
)
from plethabacus.abacus import (
    Abacus,
    BadRunner,
    IncompatibleAbaci,
    abacus_of,
    inversion_sign,
    runner_beads,
    single_step_moves,
)
from plethabacus.partitions import Box, make_partition, make_skew, partitions_up_to
from plethabacus.strips import (
    EmptySkew,
    NotDivisible,
    NotTypeIICase,
    RunnerType,
    border_strips,
    classify_runner,
    final_border_strip,
    order_independent_sign,
    pairing_witness,
    r_decompose,
    runner_profile,
    sgn_r,
    sign_recursion_check,
)
from plethabacus.abacus import _beads_of, _partition_of_beads
from plethabacus.strips import _chain_sign, _raise_bead

LAM = make_partition([13, 10, 10, 5, 4, 3, 1])
NU = make_partition([11, 7, 4, 3, 1])
MU = make_partition([13, 9, 4, 3, 3, 3, 1])

# the smallest shape pair with one type II runner next to a type I runner
LAM2 = make_partition([10, 10, 8, 5, 5, 5, 1])
NU2 = make_partition([4, 4, 4, 2, 2])


def skews_up_to(max_outer, max_skew, rs):
    for lam in partitions_up_to(max_outer):
        for k in range(max(0, lam.size() - max_skew), lam.size() + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in rs:
                    if (lam.size() - k) % r == 0:
                        yield lam, nu, r


def test_is_border_strip_pair_basic_cases():
    assert is_border_strip_pair(make_partition([2, 1]), make_partition([]))
    assert is_border_strip_pair(make_partition([2, 2]), make_partition([1]))
    # 2x2 block
    assert not is_border_strip_pair(make_partition([2, 2]), make_partition([]))
    # disconnected boxes (1,3) and (2,1)
    assert not is_border_strip_pair(make_partition([3, 1]), make_partition([2]))
    assert not is_border_strip_pair(make_partition([2]), make_partition([2]))


def test_is_border_strip_pair_matches_box_oracle():
    for lam in partitions_up_to(9):
        for k in range(lam.size()):
            for nu in subpartitions_of_size(lam, k):
                assert is_border_strip_pair(lam, nu) == is_ribbon(lam, nu), (lam, nu)


def test_border_strip_factory_fields():
    st = border_strip(make_partition([2, 2]), make_partition([1]))
    assert st.length == 3
    assert st.height == 1
    assert st.sign == -1
    assert st.top_right == Box(1, 2)
    assert st.bottom_left == Box(2, 1)
    with pytest.raises(ValueError):
        border_strip(make_partition([2, 2]), make_partition([]))


def test_border_strips_worked_shape():
    strips = border_strips(LAM, 10)
    marked = [st for st in strips if st.inner == MU]
    assert len(marked) == 1
    assert marked[0].top_right == Box(2, 10)
    assert marked[0].bottom_left == Box(5, 4)
    assert marked[0].height == 3


def test_border_strips_small_cases():
    only = border_strips(make_partition([1]), 1)
    assert len(only) == 1 and only[0].height == 0
    strips = border_strips(make_partition([2, 2]), 3)
    assert len(strips) == 1
    assert strips[0].inner == make_partition([1])
    assert strips[0].height == 1


def test_border_strips_agree_with_geometric_search():
    # the full sweep lives in the acceptance tests; spot-check small shapes
    for lam in partitions_up_to(7):
        for s in range(1, 5):
            a = border_strips(lam, s)
            g = border_strips_geometric(lam, s)
            key = lambda st: (st.inner.parts, st.height, st.top_right, st.bottom_left)
            assert sorted(map(key, a)) == sorted(map(key, g)), (lam, s)


def test_final_border_strip_worked_shape():
    st = final_border_strip(make_skew(LAM, NU), 2)
    assert st is not None
    assert st.top_right == Box(1, 13)
    assert st.inner == make_partition([11, 10, 10, 5, 4, 3, 1])
    assert st.inner.contains(NU)


def test_final_border_strip_small_cases():
    st = final_border_strip(make_skew(make_partition([1]), make_partition([])), 1)
    assert st.height == 0 and st.inner == make_partition([])
    st = final_border_strip(make_skew(make_partition([2, 2]), make_partition([1])), 2)
    assert st is not None
    assert st.inner == make_partition([1, 1])
    assert st.height == 1


def test_final_border_strip_none_and_errors():
    # no 2-strip through the first distinct row
    assert final_border_strip(make_skew(make_partition([2, 1, 1]), make_partition([])), 2) is None
    # the strip exists but drops below the inner shape
    assert final_border_strip(make_skew(make_partition([2, 2]), make_partition([2, 1])), 2) is None
    with pytest.raises(EmptySkew):
        final_border_strip(make_skew(NU, NU), 2)


def test_final_border_strip_is_unique():
    # at most one removable r-ribbon starts in the first distinct row and
    # stays above the inner shape
    for lam, nu, r in skews_up_to(8, 8, (1, 2, 3)):
        if lam == nu:
            continue
        skew = make_skew(lam, nu)
        d = minimal_distinct_row(skew)
        candidates = [
            mu
            for mu in ribbon_removals(lam, r)
            if mu.contains(nu) and mu.part(d) < lam.part(d)
        ]
        assert len(candidates) <= 1, (lam, nu, r)
        st = final_border_strip(skew, r)
        if candidates:
            assert st is not None and st.inner == candidates[0], (lam, nu, r)
            # the height and the extreme boxes, read off the ribbon's boxes
            assert st.height == ribbon_height(lam, st.inner), (lam, nu, r)
            boxes = skew_boxes(lam, st.inner)
            top_first = lambda box: (box[0], -box[1])
            assert st.top_right == min(boxes, key=top_first), (lam, nu, r)
            assert st.bottom_left == max(boxes, key=top_first), (lam, nu, r)
        else:
            assert st is None, (lam, nu, r)


def test_r_decompose_worked_chain():
    dec = r_decompose(make_skew(LAM, NU), 2)
    assert dec.heights == (0, 1, 1, 1, 0, 1, 1, 1, 1, 1)
    assert dec.sign == 1
    assert dec.chain[0] == LAM and dec.chain[-1] == NU
    assert len(dec.chain) == 11
    for outer, inner in zip(dec.chain, dec.chain[1:]):
        assert is_ribbon(outer, inner)
        assert outer.size() - inner.size() == 2


def test_r_decompose_empty_and_failures():
    dec = r_decompose(make_skew(NU, NU), 3)
    assert dec.chain == (NU,)
    assert dec.heights == ()
    assert dec.sign == 1
    assert r_decompose(make_skew(make_partition([2, 1, 1]), make_partition([])), 2) is None
    # size not divisible by r
    assert r_decompose(make_skew(make_partition([2, 1]), make_partition([])), 2) is None


def test_r_decompose_is_the_iterated_final_strip_chain():
    # the bead walk against its definition, on every skew with |lam| <= 8
    shapes = list(partitions_up_to(8))
    cases = 0
    for lam in shapes:
        for nu in shapes:
            if not lam.contains(nu):
                continue
            for r in (1, 2, 3):
                cases += 1
                skew = make_skew(lam, nu)
                assert r_decompose(skew, r) == final_strip_chain(skew, r), (lam, nu, r)
    assert cases == 3 * 862


def test_greedy_heights_kernel_matches_r_decompose():
    # every lam containing nu with |lam| <= 12, |nu| <= 6, r <= 4 and r | |lam/nu|
    cases = 0
    for lam in partitions_up_to(12):
        for k in range(min(6, lam.size()) + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in (1, 2, 3, 4):
                    if (lam.size() - k) % r:
                        continue
                    cases += 1
                    dec = r_decompose(make_skew(lam, nu), r)
                    # sgn/decompose print the chain's sign; sgn_r must agree
                    sign = 0 if dec is None else dec.sign
                    assert sgn_r(make_skew(lam, nu), r) == sign, (lam, nu, r)
                    for b in (len(lam), len(lam) + 3):
                        beads = sorted(abacus_of(lam, b).bead_positions, reverse=True)
                        inner = sorted(abacus_of(nu, b).bead_positions, reverse=True)
                        assert _chain_sign(beads, inner, r) == sign, (lam, nu, r, b)
                        # the kernel moves beads in place, ending on nu's beads
                        if sign:
                            assert beads == inner, (lam, nu, r, b)
    assert cases == 10614


def test_decomposition_moves_match_chain():
    dec = r_decompose(make_skew(LAM, NU), 2)
    moves = decomposition_moves(dec)
    assert [tuple(m) for m in moves] == [
        (19, 17), (15, 13), (14, 12), (13, 11), (11, 9),
        (9, 7), (7, 5), (5, 3), (4, 2), (2, 0),
    ]
    assert apply_moves(abacus_of(LAM, 7), moves) == abacus_of(NU, 7)
    sign, pairs = inversion_sign(abacus_of(LAM, 7), moves)
    assert sign == dec.sign
    assert len(pairs) == 4


def test_decomposition_to_json():
    dec = r_decompose(make_skew(make_partition([3, 1]), make_partition([])), 2)
    assert dec.to_json() == {
        "chain": [[3, 1], [1, 1], []],
        "heights": [0, 1],
        "sign": -1,
    }


def test_sgn_r_examples():
    assert sgn_r(make_skew(LAM, NU), 2) == 1
    assert sgn_r(make_skew(NU, NU), 4) == 1
    assert sgn_r(make_skew(make_partition([3, 1]), make_partition([])), 2) == -1
    assert sgn_r(make_skew(LAM2, NU2), 2) == 0


def test_sgn_r_rejects_nonpositive_strip_length():
    lam, nu = make_partition([2, 2]), make_partition([])
    for r in (0, -2):
        with pytest.raises(ValueError):
            sgn_r(make_skew(lam, nu), r)
        with pytest.raises(ValueError):
            order_independent_sign(lam, nu, r)
        with pytest.raises(ValueError):
            r_decompose(make_skew(lam, nu), r)
        with pytest.raises(ValueError):
            sign_recursion_check(make_skew(lam, nu), r)
        with pytest.raises(ValueError, match="strip length"):
            final_border_strip(make_skew(lam, nu), r)
        with pytest.raises(ValueError, match="strip length"):
            border_strips(lam, r)


# every strips entry point that takes a strip length, called on (3, 1)/()
STRIP_LENGTH_CALLS = {
    "sgn_r": lambda lam, nu, r: sgn_r(make_skew(lam, nu), r),
    "r_decompose": lambda lam, nu, r: r_decompose(make_skew(lam, nu), r),
    "final_border_strip": lambda lam, nu, r: final_border_strip(make_skew(lam, nu), r),
    "border_strips": lambda lam, nu, r: border_strips(lam, r),
    "sign_recursion_check": lambda lam, nu, r: sign_recursion_check(make_skew(lam, nu), r),
    "order_independent_sign": order_independent_sign,
}


@pytest.mark.parametrize("r", [2.0, "2"])
@pytest.mark.parametrize("name", list(STRIP_LENGTH_CALLS))
def test_strips_reject_a_non_integer_strip_length(name, r):
    # a float or a string is rejected, not used as a length
    call = STRIP_LENGTH_CALLS[name]
    with pytest.raises(ValueError, match="strip length must be an integer"):
        call(make_partition([3, 1]), make_partition([]), r)
    assert call(make_partition([3, 1]), make_partition([]), 2) is not None


# every entry point that takes a runner count r or a runner t, keyed by
# its name and the argument its error names, with that argument set to x
RUNNER_CALLS = {
    "runner_beads r": lambda a, c, x: runner_beads(a, x, 0),
    "runner_beads t": lambda a, c, x: runner_beads(a, 2, x),
    "classify_runner r": lambda a, c, x: classify_runner(a, c, x, 0),
    "classify_runner t": lambda a, c, x: classify_runner(a, c, 2, x),
    "runner_profile r": runner_profile,
    "pairing_witness r": pairing_witness,
    "single_step_moves r": single_step_moves,
}


@pytest.mark.parametrize("value", [2.0, "2"])
@pytest.mark.parametrize("name", list(RUNNER_CALLS))
def test_runner_functions_reject_a_non_integer_argument(name, value):
    # a float was truncated or passed to range; now it fails as a string does
    arg = name.split()[1]
    a, c = abacus_of(LAM2, 9), abacus_of(NU2, 9)
    with pytest.raises(ValueError, match=f"^{arg} must be an integer, got {value!r}$"):
        RUNNER_CALLS[name](a, c, value)


def test_order_independent_sign_examples():
    assert order_independent_sign(LAM, NU, 2) == 1
    # reachable by 2-strips even though the greedy chain gets stuck
    assert order_independent_sign(LAM2, NU2, 2) == 1
    assert order_independent_sign(NU, NU, 2) == 1
    assert order_independent_sign(make_partition([1]), make_partition([]), 2) == 0


def test_order_independent_sign_ignores_empty_runners():
    # an empty skew is reachable with no moves, at any number of runners
    assert order_independent_sign(NU, NU, 10**9) == 1
    assert order_independent_sign(make_partition([]), make_partition([]), 10**9) == 1


def test_order_independent_sign_matches_exhaustive_orders():
    for lam, nu, r in skews_up_to(7, 7, (1, 2, 3)):
        signs = removal_sign_set(lam, nu, r)
        assert len(signs) <= 1, (lam, nu, r)
        got = order_independent_sign(lam, nu, r)
        assert signs == (frozenset({got}) if got else frozenset()), (lam, nu, r)


def test_sgn_r_nonzero_iff_all_runners_decomposable():
    for lam in partitions_up_to(12):
        for k in range(lam.size() + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in (1, 2, 3):
                    if (lam.size() - k) % r:
                        continue
                    b = max(len(lam), len(nu), 1)
                    a, c = abacus_of(lam, b), abacus_of(nu, b)
                    try:
                        alldec = all(
                            classify_runner(a, c, r, t) is RunnerType.I for t in range(r)
                        )
                    except IncompatibleAbaci:
                        alldec = False
                    sign = sgn_r(make_skew(lam, nu), r)
                    assert (sign != 0) == alldec, (lam, nu, r)
                    # the greedy sign is the order-independent one wherever it exists
                    if sign:
                        assert sign == order_independent_sign(lam, nu, r), (lam, nu, r)


def test_runner_is_decomposable_examples():
    def decomposable(a, c, t):
        return classify_runner(a, c, 2, t) is RunnerType.I

    a, c = abacus_of(LAM, 7), abacus_of(NU, 7)
    assert decomposable(a, c, 0)
    assert decomposable(a, c, 1)
    a2, c2 = abacus_of(LAM2, 9), abacus_of(NU2, 9)
    assert not decomposable(a2, c2, 0)
    assert decomposable(a2, c2, 1)
    assert decomposable(a, a, 0)  # identical runners, no moves
    with pytest.raises(IncompatibleAbaci, match=r"^bead counts 7 != 6$"):
        decomposable(a, abacus_of(NU, 6), 0)
    with pytest.raises(IncompatibleAbaci, match=r"^runner 0: 0 beads vs 1$"):
        decomposable(abacus_of(make_partition([1]), 1), abacus_of(make_partition([]), 1), 0)


def test_classify_runner_checks_totals_before_the_runner():
    a = abacus_of(LAM, 7)
    with pytest.raises(BadRunner, match=r"^runner 5 not in 0\.\.1$"):
        classify_runner(a, abacus_of(NU, 7), 2, 5)
    # unequal totals are reported even for a runner outside 0..r-1
    with pytest.raises(IncompatibleAbaci, match=r"^bead counts 7 != 6$"):
        classify_runner(a, abacus_of(NU, 6), 2, 5)


def test_classify_runner_matches_the_swap_search_on_random_runners():
    # one runner (r = 1) of at most 6 beads at positions below 14, in both abaci
    rng = random.Random(20)
    seen = Counter()
    for _ in range(5000):
        n = rng.randint(0, 6)
        a = Abacus(n, rng.sample(range(14), n))
        c = Abacus(n, rng.sample(range(14), n))
        kind = classify_runner(a, c, 1, 0)
        assert kind is swap_search_runner_type(a, c, 1, 0), (a, c)
        seen[kind] += 1
    assert min(seen[kind] for kind in RunnerType) > 100, seen


def test_classify_runner_trichotomy():
    a2, c2 = abacus_of(LAM2, 9), abacus_of(NU2, 9)
    assert classify_runner(a2, c2, 2, 0) == RunnerType.II
    assert classify_runner(a2, c2, 2, 1) == RunnerType.I
    assert runner_profile(a2, c2, 2) == (RunnerType.II, RunnerType.I)
    a = abacus_of(LAM, 7)
    assert classify_runner(a, a, 2, 1) == RunnerType.I
    # unreachable runner that no single swap can fix
    a3, c3 = abacus_of(make_partition([3, 1]), 2), abacus_of(make_partition([2]), 2)
    assert runner_profile(a3, c3, 2) == (RunnerType.I, RunnerType.III)


def test_runners_with_no_bead_are_type_i_without_a_test():
    # only the runners that hold a bead are classified, so a large r costs
    # little more than the profile's r entries
    a = abacus_of(LAM, 7)
    assert runner_profile(a, a, 10**6) == (RunnerType.I,) * 10**6
    with pytest.raises(NotTypeIICase):
        pairing_witness(a, a, 10**5)


def test_type_iii_and_double_type_ii_force_zero():
    assert sgn_r(make_skew(make_partition([3, 1]), make_partition([2])), 2) == 0
    report = sign_recursion_check(make_skew(make_partition([3, 1]), make_partition([2])), 2)
    assert report.lhs == 0 and report.rhs == 0
    # two type II runners: both sides vanish without any pairing
    lam, nu = make_partition([2, 2, 2, 2]), make_partition([])
    assert runner_profile(abacus_of(lam, 4), abacus_of(nu, 4), 2) == (
        RunnerType.II,
        RunnerType.II,
    )
    assert sgn_r(make_skew(lam, nu), 2) == 0
    report = sign_recursion_check(make_skew(lam, nu), 2)
    assert report.lhs == 0 and report.rhs == 0
    with pytest.raises(NotTypeIICase):
        pairing_witness(abacus_of(lam, 4), abacus_of(nu, 4), 2)


def test_pairing_witness_golden_values():
    a, c = abacus_of(LAM2, 9), abacus_of(NU2, 9)
    witnesses = pairing_witness(a, c, 2)
    assert [w.gamma for w in witnesses] == [2, 4]
    for w in witnesses:
        assert w.delta == 18
        assert w.delta_star == 14
        assert w.alpha == 2
        assert w.alpha_star == 12
        assert w.P == frozenset({(18, 2), (14, 2), (18, 4), (14, 4)})
        assert len(w.J) % 2 != len(w.J_star) % 2
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


def test_pairing_witness_requires_type_ii_profile():
    with pytest.raises(NotTypeIICase):
        pairing_witness(abacus_of(LAM, 7), abacus_of(NU, 7), 2)


def test_pairing_witness_summands_cancel():
    # in every small type II configuration the paired removals carry
    # opposite products sgn(lam/mu) * sgn_r(mu/nu)
    checked = 0
    for lam, nu, r in skews_up_to(8, 8, (2, 3)):
        b = max(len(lam), len(nu), 1)
        a, c = abacus_of(lam, b), abacus_of(nu, b)
        try:
            profile = runner_profile(a, c, r)
        except IncompatibleAbaci:
            continue
        if profile.count(RunnerType.II) != 1 or RunnerType.III in profile:
            continue
        pair_set = brute_force_pair_set(a, c, r, profile.index(RunnerType.II))
        for w in pairing_witness(a, c, r):
            assert w.P == pair_set, (lam, nu, r)
            assert len(w.J) % 2 != len(w.J_star) % 2
            for mu in (w.mu, w.mu_star):
                assert is_ribbon(lam, mu)
                assert (lam.size() - mu.size()) % r == 0
            term = (-1) ** ribbon_height(lam, w.mu) * sgn_r(make_skew(w.mu, nu), r)
            term_star = (-1) ** ribbon_height(lam, w.mu_star) * sgn_r(
                make_skew(w.mu_star, nu), r
            )
            assert term + term_star == 0, (lam, nu, r, w.gamma)
            assert abs(term) == 1
        checked += 1
    assert checked > 20


def test_pairing_witnesses_account_for_every_nonzero_summand():
    # the paper's cancellation: where sgn_r(lam/nu) = 0, the nonzero
    # summands of the recursion are exactly the mu and mu_star of the
    # witnesses when one runner is type II and the rest type I, and
    # there are none for any other profile
    counts = Counter()
    for lam in partitions_up_to(10):
        for k in range(min(6, lam.size() - 1) + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in range(1, 6):
                    if (lam.size() - k) % r:
                        continue
                    report = sign_recursion_check(make_skew(lam, nu), r)
                    if report.sgn_r_value:
                        counts["decomposable"] += 1
                        continue
                    nonzero = Counter(s.mu for s in report.summands if s.value)
                    a, c = abacus_of(lam), abacus_of(nu, len(lam))
                    try:
                        profile = runner_profile(a, c, r)
                    except IncompatibleAbaci:
                        profile = ()
                    else:
                        # the closed stuck-run test agrees with the swap search
                        reference = [swap_search_runner_type(a, c, r, t) for t in range(r)]
                        assert list(profile) == reference, (lam, nu, r)
                    if profile.count(RunnerType.II) == 1 and RunnerType.III not in profile:
                        counts["single type II"] += 1
                        paired = Counter()
                        for w in pairing_witness(a, c, r):
                            paired.update((w.mu, w.mu_star))
                        assert nonzero == paired, (lam, nu, r)
                    else:
                        counts["other"] += 1
                        assert not nonzero, (lam, nu, r, profile)
    assert counts == {"decomposable": 1489, "single type II": 1672, "other": 1690}


def test_pairing_witness_json_fields():
    w = pairing_witness(abacus_of(LAM2, 9), abacus_of(NU2, 9), 2)[0]
    data = w.to_json()
    assert data["delta"] == 18 and data["delta_star"] == 14
    assert data["gamma"] == 2
    assert sorted(data) == [
        "J", "J_star", "P", "alpha", "alpha_star",
        "delta", "delta_star", "gamma", "mu", "mu_star",
    ]


def test_sign_recursion_report_worked_shape():
    report = sign_recursion_check(make_skew(LAM, NU), 2)
    assert report.m == 10
    assert report.sgn_r_value == 1
    assert report.lhs == 10
    assert report.rhs == 10
    nonzero = [s for s in report.summands if s.value != 0]
    assert len(nonzero) == 10
    assert all(s.value == 1 for s in nonzero)


def test_sign_recursion_report_type_ii_shape():
    report = sign_recursion_check(make_skew(LAM2, NU2), 2)
    assert report.lhs == 0
    assert report.rhs == 0
    assert any(s.value == 1 for s in report.summands)
    assert any(s.value == -1 for s in report.summands)


def test_sign_recursion_trivial_and_errors():
    report = sign_recursion_check(make_skew(NU, NU), 2)
    assert report.m == 0 and report.lhs == 0 and report.rhs == 0
    assert report.summands == ()
    with pytest.raises(NotDivisible):
        sign_recursion_check(make_skew(make_partition([2, 1]), make_partition([])), 2)


def test_sign_recursion_summands_enumerate_strips():
    lam, nu = make_partition([4, 2]), make_partition([2])
    report = sign_recursion_check(make_skew(lam, nu), 2)
    got = {(s.mu, s.strip_length) for s in report.summands}
    want = set()
    for q in (1, 2):
        for mu, _ in ribbon_removals(lam, 2 * q).items():
            if mu.contains(nu):
                want.add((mu, 2 * q))
    assert got == want
    # deterministic report order
    again = sign_recursion_check(make_skew(lam, nu), 2)
    assert [s.mu for s in again.summands] == [s.mu for s in report.summands]


def test_sign_recursion_holds_on_small_sweep():
    # the acceptance run covers the full documented range; here every
    # summand is also checked against references that build the shapes
    for lam, nu, r in skews_up_to(7, 6, (1, 2, 3)):
        report = sign_recursion_check(make_skew(lam, nu), r)
        assert report.lhs == report.rhs, (lam, nu, r)
        b = max(len(lam), len(nu), 1)
        keys = []
        for s in report.summands:
            top = min(i for i, _ in skew_boxes(lam, s.mu))
            assert s.strip_sign == (-1) ** ribbon_height(lam, s.mu), (lam, nu, r, s.mu)
            dec = r_decompose(make_skew(s.mu, nu), r)
            assert s.tail_sign == (0 if dec is None else dec.sign), (lam, nu, r, s.mu)
            checked = make_partition(s.mu.parts)  # mu is decoded from beads unchecked
            assert checked == s.mu and hash(checked) == hash(s.mu), (lam, nu, r, s.mu)
            # the removal moves the bead of the strip's top row
            beta = lam.part(top) + b - top
            keys.append((beta % r, -beta, s.strip_length // r))
        assert keys == sorted(set(keys)), (lam, nu, r)
        # every removal of a q*r-ribbon that keeps nu appears exactly once
        found = [(s.mu, s.strip_length) for s in report.summands]
        want = {
            (mu, q * r)
            for q in range(1, report.m + 1)
            for mu in ribbon_removals(lam, q * r)
            if mu.contains(nu)
        }
        assert len(found) == len(set(found)) and set(found) == want, (lam, nu, r)


def test_sign_recursion_pruning_keeps_every_summand():
    # the unpruned loop: every (bead, q <= m) on a fresh copy, skipping Nones
    stops = 0
    for lam, nu, r in skews_up_to(8, 6, (1, 2, 3, 4)):
        m = (lam.size() - nu.size()) // r
        b = max(len(lam), len(nu), 1)
        beads = _beads_of(lam.parts, b)
        inner = _beads_of(nu.parts, b)
        want = []
        for i, beta in sorted(enumerate(beads), key=lambda e: e[1] % r):
            failed = False
            for q in range(1, m + 1):
                target = beta - q * r
                moved = beads.copy()
                height = _raise_bead(moved, i, target, inner)
                free = target >= 0 and target not in beads
                # a free target that fails domination fails for every larger q
                assert not (failed and height is not None), (lam, nu, r, beta, q)
                if height is None:
                    stops += free and not failed
                    failed = failed or free
                    continue
                mu = _partition_of_beads(moved)
                sign = sgn_r(make_skew(mu, nu), r)
                want.append((mu, q * r, (-1) ** height, sign))
        report = sign_recursion_check(make_skew(lam, nu), r)
        got = [(s.mu, s.strip_length, s.strip_sign, s.tail_sign) for s in report.summands]
        assert got == want, (lam, nu, r)
    # where sign_recursion_check breaks out of its q loop
    assert stops == 1382
