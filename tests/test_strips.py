import gc
import hashlib
import random
import re
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

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
    InvalidAbacus,
    abacus_of,
    final_positions,
    inversion_sign,
    partition_of,
    runner_beads,
    single_step_moves,
)
from plethabacus.partitions import (
    Box,
    InvalidPartition,
    Partition,
    make_partition,
    make_skew,
    partitions_of_size_containing,
    partitions_up_to,
)
from plethabacus.strips import (
    EmptySkew,
    NotDivisible,
    NotTypeIICase,
    RecursionSummand,
    RunnerType,
    border_strips,
    classify_runner,
    final_border_strip,
    order_independent_sign,
    pairing_witness,
    r_decompose,
    runner_profile,
    runner_types,
    sgn_r,
    sign_recursion_check,
)
import plethabacus.strips as strips_module
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


def test_sgn_r_is_zero_when_r_does_not_divide_the_size():
    lam = make_partition([3, 1])
    assert sgn_r(make_skew(lam, make_partition([])), 3) == 0
    assert sgn_r(make_skew(lam, make_partition([1])), 2) == 0
    # the same outer shape at a dividing r has a sign
    assert sgn_r(make_skew(lam, make_partition([])), 4) == -1


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
    "runner_types r": runner_types,
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


# every entry point that takes a skew or an abacus, keyed by its name: a call
# with that argument set to x, and the name its error gives the argument
RECORD_CALLS = {
    "sgn_r": (lambda x: sgn_r(x, 2), "skew"),
    "r_decompose": (lambda x: r_decompose(x, 2), "skew"),
    "final_border_strip": (lambda x: final_border_strip(x, 2), "skew"),
    "sign_recursion_check": (lambda x: sign_recursion_check(x, 2), "skew"),
    "classify_runner": (lambda x: classify_runner(x, abacus_of(NU2, 9), 2, 0), "first abacus"),
    "runner_types": (lambda x: runner_types(abacus_of(LAM2, 9), x, 2), "second abacus"),
    "runner_profile": (lambda x: runner_profile(x, abacus_of(NU2, 9), 2), "first abacus"),
    "pairing_witness": (lambda x: pairing_witness(abacus_of(LAM2, 9), x, 2), "second abacus"),
    "single_step_moves": (lambda x: single_step_moves(x, abacus_of(NU2, 9), 2), "first abacus"),
    "inversion_sign": (lambda x: inversion_sign(x, []), "abacus"),
    "final_positions": (lambda x: final_positions(x, []), "abacus"),
    "partition_of": (partition_of, "abacus"),
    "runner_beads": (lambda x: runner_beads(x, 2, 0), "abacus"),
}


@pytest.mark.parametrize("form", [tuple, list, lambda record: None])
@pytest.mark.parametrize("name", list(RECORD_CALLS))
def test_record_arguments_reject_other_types(name, form):
    # a plain tuple, list or None fails at the boundary, naming the argument
    # and the builder, where it used to raise AttributeError further in
    call, arg = RECORD_CALLS[name]
    if arg == "skew":
        record = make_skew(LAM2, NU2)
        error, kind, builder = InvalidPartition, "a SkewPartition", "make_skew"
    else:
        # the second abacus is the inner one, as the runner calls take them
        record = abacus_of(NU2 if arg == "second abacus" else LAM2, 9)
        error, kind, builder = InvalidAbacus, "an Abacus", "abacus_of"
    call(record)
    value = form(record)
    message = f"^{arg} must be {kind}, got {re.escape(repr(value))}; build it with {builder}$"
    with pytest.raises(error, match=message):
        call(value)


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


def test_runner_types_match_classify_runner_on_every_occupied_runner():
    for lam in partitions_up_to(7):
        for nu in partitions_up_to(lam.size()):
            b = max(len(lam), len(nu), 1)
            a, c = abacus_of(lam, b), abacus_of(nu, b)
            for r in (1, 2, 3, 5, 7):
                want = {}
                for t in sorted({p % r for p in a.bead_positions | c.bead_positions}):
                    try:
                        want[t] = classify_runner(a, c, r, t)
                    except IncompatibleAbaci:
                        want[t] = None
                got = runner_types(a, c, r)
                assert got == want and list(got) == list(want), (lam, nu, r)
    with pytest.raises(IncompatibleAbaci, match=r"^bead counts 7 != 6$"):
        runner_types(abacus_of(LAM, 7), abacus_of(NU, 6), 2)


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


def test_not_type_ii_message_names_only_the_runners_not_type_i():
    # neither the message nor the work grows with r: at r = 10**12 a
    # per-runner profile could not even be allocated
    a = abacus_of(LAM, 7)
    for r in (10**6, 10**12):
        with pytest.raises(NotTypeIICase) as e:
            pairing_witness(a, a, r)
        assert str(e.value) == (
            "need one type II runner and the rest type I; runners not type I: none"
        )
    lam, nu = make_partition([2, 2, 2, 2]), make_partition([])
    with pytest.raises(NotTypeIICase, match=r"runners not type I: 0 \(II\), 1 \(II\)$"):
        pairing_witness(abacus_of(lam, 4), abacus_of(nu, 4), 2)
    with pytest.raises(NotTypeIICase, match=r"runners not type I: 1 \(III\)$"):
        pairing_witness(abacus_of(make_partition([3, 1]), 2), abacus_of(make_partition([2]), 2), 2)


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
    # the paper's cancellation: where sgn_r(lam/nu) != 0 there are exactly
    # m nonzero summands, each equal to sgn_r; where it is 0, the nonzero
    # summands of the recursion are exactly the mu and mu_star of the
    # witnesses when one runner is type II and the rest type I, and
    # there are none for any other profile
    counts = Counter()
    for lam in partitions_up_to(12):
        for k in range(min(6, lam.size() - 1) + 1):
            for nu in subpartitions_of_size(lam, k):
                for r in range(1, 6):
                    if (lam.size() - k) % r:
                        continue
                    report = sign_recursion_check(make_skew(lam, nu), r)
                    if report.sgn_r_value:
                        counts["decomposable"] += 1
                        values = [s.value for s in report.summands if s.value]
                        assert values == [report.sgn_r_value] * report.m, (lam, nu, r)
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
    assert counts == {"decomposable": 2528, "single type II": 4350, "other": 4562}


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
    # the unpruned loop: every (bead, q <= m) on a fresh copy, skipping Nones;
    # r = 5, 6, 7 leave runners empty between occupied ones
    stops = 0
    for lam, nu, r in skews_up_to(8, 6, (1, 2, 3, 4, 5, 6, 7)):
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
    assert stops == 1420


def test_sign_recursion_walks_only_runners_holding_a_bead():
    # one row of 10**12 boxes: a walk over every runner would never end
    big = 10**12
    report = sign_recursion_check(make_skew(make_partition([big]), make_partition([])), big)
    assert report.lhs == report.rhs == 1
    assert report.summands == ((make_partition([]), big, 1, 1),)
    empty = sign_recursion_check(make_skew(make_partition([big]), make_partition([big])), big)
    assert (empty.m, empty.summands) == (0, ())


def _empty_memo(monkeypatch):
    monkeypatch.setattr(strips_module, "_removals", {})
    monkeypatch.setattr(strips_module, "_tails", {})
    monkeypatch.setattr(strips_module, "_shared", {})
    monkeypatch.setattr(strips_module, "_weight", 0)


def _removal_weight(skip=None):
    # the removal table's weight, recounted from what it holds, without
    # the entry keyed skip
    total = 0
    for key, (groups, order) in strips_module._removals.items():
        assert len(groups) == len(order)
        if key != skip:
            total += strips_module._GROUP_BYTES * (len(groups) + 4) + sum(
                strips_module._PART_BYTES * (len(mu) + 5)
                for group in groups
                for mu, _, _, _ in group
            )
    return total


def _tail_weight(skip=None):
    # the tail table's weight, recounted from what it holds, without the
    # entry keyed skip
    return sum(
        strips_module._GROUP_BYTES * (len(nu) + 4) + strips_module._SLOT_BYTES * len(tails)
        for (nu, r), tails in strips_module._tails.items()
        if (nu, r) != skip
    )


def _summand_weight():
    # the weight of the nonzero-tail summands in the value table; its
    # shapes and zero-tail summands are counted with their removals
    return strips_module._SUMMAND_BYTES * sum(
        type(v) is RecursionSummand and v.tail_sign != 0 for v in strips_module._shared
    )


def _memo_weight():
    # the weight of the three tables, recounted from what they hold
    return _removal_weight() + _tail_weight() + _summand_weight()


def _tails_are_removals():
    # every tail's mu is the very object some removal holds (ids of live
    # objects are distinct, so an id match is an `is` match)
    held = {id(mu) for groups, _ in strips_module._removals.values()
            for group in groups for mu, _, _, _ in group}
    return all(id(mu) in held for tails in strips_module._tails.values() for mu in tails)


def test_tail_table_leaves_reports_unchanged(monkeypatch):
    # a sweep whose tails repeat across skews, run on an empty memo, on
    # the memo it filled, and in reverse order on an empty memo again
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(8, 6, (1, 2, 3))]
    _empty_memo(monkeypatch)
    cold = [sign_recursion_check(skew, r) for skew, r in cases]
    assert sum(map(len, strips_module._tails.values())) > 0
    assert _tails_are_removals()
    full = [sign_recursion_check(skew, r) for skew, r in cases]
    _empty_memo(monkeypatch)
    backwards = [sign_recursion_check(skew, r) for skew, r in reversed(cases)][::-1]
    assert _tails_are_removals()
    assert full == cold and backwards == cold
    assert list(map(repr, full)) == list(map(repr, cold)) == list(map(repr, backwards))
    # every tail sign the memo served is the sign of its own skew
    for (skew, r), report in zip(cases, full):
        for s in report.summands:
            assert s.tail_sign == sgn_r(make_skew(s.mu, skew.inner), r), (skew, r, s.mu)


def test_removal_table_leaves_reports_unchanged(monkeypatch):
    # each (lam, r) meets several inner shapes; run on an empty memo, on the
    # memo it filled, in reverse order, in ascending m (so each outer
    # shape's removals are extended), and on a memo emptied before each call
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(8, 6, (1, 2, 3))]
    _empty_memo(monkeypatch)
    cold = [sign_recursion_check(skew, r) for skew, r in cases]
    assert 0 < _memo_weight() == strips_module._weight
    warm = [sign_recursion_check(skew, r) for skew, r in cases]
    assert _memo_weight() == strips_module._weight
    _empty_memo(monkeypatch)
    backwards = [sign_recursion_check(skew, r) for skew, r in reversed(cases)][::-1]
    _empty_memo(monkeypatch)
    by_m = sorted(range(len(cases)), key=lambda k: cases[k][0].size() // cases[k][1])
    growing = dict(zip(by_m, [sign_recursion_check(*cases[k]) for k in by_m]))
    assert _memo_weight() == strips_module._weight
    alone = []
    for skew, r in cases:
        _empty_memo(monkeypatch)
        alone.append(sign_recursion_check(skew, r))
    want = list(map(repr, cold))
    for got in (warm, backwards, [growing[k] for k in range(len(cases))], alone):
        assert list(map(repr, got)) == want
    for report in warm:
        for s in report.summands:
            assert type(s.mu) is Partition and make_partition(s.mu) == s.mu, (report, s)


# sha256 of the concatenated reprs of the sign_recursion_check reports on
# the 13,585 skews of _report_digest: any change to any report changes it
GOLDEN_REPORT_DIGEST = "ae80bc470ddfe3da56adfeb6d8196aa5c7c098ef0dc61f34ee711ca23c29f6a1"


def _report_digest():
    # r in 1..7, |nu| <= 6, |lam| <= 12 with r dividing |lam| - |nu|
    # (m = 0 included), in this loop order
    digest, count = hashlib.sha256(), 0
    for r in range(1, 8):
        for nu in partitions_up_to(6):
            for size in range(nu.size(), 13, r):
                for lam in partitions_of_size_containing(size, nu):
                    digest.update(repr(sign_recursion_check(make_skew(lam, nu), r)).encode())
                    count += 1
    return count, digest.hexdigest()


def test_reports_match_the_golden_digest(monkeypatch):
    # once on an empty memo, once on the memo that pass filled
    _empty_memo(monkeypatch)
    assert _report_digest() == (13585, GOLDEN_REPORT_DIGEST)
    assert _report_digest() == (13585, GOLDEN_REPORT_DIGEST)


# sha256 of the memo that one pass of _report_digest leaves in an empty
# memo, as _memo_digest reads it
GOLDEN_MEMO_DIGEST = "18fa4514436bc3ee9a36d162a441f490f5c0dab1ebf105c522402cea2788c634"


def _memo_digest():
    # each outer shape's groups (kind and contents) and bead order, each
    # inner shape's tails in sorted order (the walk's fill order is not
    # read anywhere), the weight and the value table's size, by sorted key
    digest = hashlib.sha256()
    for key in sorted(strips_module._removals):
        groups, order = strips_module._removals[key]
        kinds = [(type(group).__name__, list(group)) for group in groups]
        digest.update(repr((key, kinds, order)).encode())
    for key in sorted(strips_module._tails):
        digest.update(repr((key, sorted(strips_module._tails[key].items()))).encode())
    digest.update(repr((strips_module._weight, len(strips_module._shared))).encode())
    return digest.hexdigest()


def test_memo_matches_the_golden_digest(monkeypatch):
    # which removals are built, which groups are finished, which tails are
    # signed and what is counted, once on an empty memo and once on the
    # memo that pass filled, which a second pass leaves as it is
    _empty_memo(monkeypatch)
    assert _report_digest()[0] == 13585
    assert _memo_digest() == GOLDEN_MEMO_DIGEST
    assert _report_digest()[0] == 13585
    assert _memo_digest() == GOLDEN_MEMO_DIGEST


def _acceptance_5_cases():
    # acceptance 5's skews: r <= 3, 1 <= m <= 10 // r, |nu| <= 4
    cases = [
        (lam, nu, r)
        for r in (1, 2, 3)
        for m in range(1, 10 // r + 1)
        for nu in partitions_up_to(4)
        for lam in partitions_of_size_containing(r * m + nu.size(), nu)
    ]
    assert len(cases) == 7259
    return cases


def test_left_side_is_the_greedy_sign_on_any_memo(monkeypatch):
    # the left side is read off the q = 1 removal of the first differing
    # bead: on acceptance 5's 7,259 skews it is sgn_r, zero or not, on an
    # empty and a full memo, and the order-independent sign where it is
    # not 0. That sign is also nonzero on skews that some r-strip chain
    # tiles but the final-strip chain does not, such as (1,1)/() at r = 1
    cases = _acceptance_5_cases()
    _empty_memo(monkeypatch)
    for _ in range(2):
        values = Counter()
        for lam, nu, r in cases:
            skew = make_skew(lam, nu)
            value = sign_recursion_check(skew, r).sgn_r_value
            assert value == sgn_r(skew, r), (lam, nu, r)
            independent = order_independent_sign(lam, nu, r)
            assert not value or value == independent, (lam, nu, r)
            values[value, independent] += 1
        assert values == {(0, 0): 1643, (0, 1): 4016, (0, -1): 529, (1, 1): 764, (-1, -1): 307}


def test_concurrent_calls_leave_reports_and_memo_intact(monkeypatch):
    # four threads sweep the same 1,527 skews (r <= 3, |nu| <= 3, |lam| <= 10,
    # m >= 1) from an empty memo, switching as often as the interpreter can;
    # two unlocked calls extend the same group twice and corrupt the memo
    cases = [
        (make_skew(lam, nu), r)
        for r in range(1, 4)
        for nu in partitions_up_to(3)
        for size in range(nu.size() + r, 11, r)
        for lam in partitions_of_size_containing(size, nu)
    ]
    assert len(cases) == 1527

    def sweep():
        return [repr(sign_recursion_check(skew, r)) for skew, r in cases]

    _empty_memo(monkeypatch)
    want = sweep()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            _empty_memo(monkeypatch)
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(sweep) for _ in range(4)]
                during = [run.result() for run in runs]
            after = sweep()
            wrong = [sum(map(str.__ne__, got, want)) for got in (*during, after)]
            assert wrong == [0] * 5
            assert _memo_weight() == strips_module._weight
    finally:
        sys.setswitchinterval(interval)


def _own_weight(report):
    # the most one call adds: its outer shape's groups, its inner shape's
    # dict, a removal and a tail per summand, and a shared summand per
    # nonzero tail
    lam, nu = report.skew.outer, report.skew.inner
    return (
        strips_module._GROUP_BYTES * (max(len(lam), 1) + 4 + len(nu) + 4)
        + sum(strips_module._PART_BYTES * (len(s.mu) + 5) for s in report.summands)
        + strips_module._SLOT_BYTES * len(report.summands)
        + strips_module._SUMMAND_BYTES * sum(s.tail_sign != 0 for s in report.summands)
    )


def test_memo_is_within_its_cap_at_every_call_entry(monkeypatch):
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(7, 6, (1, 2))]
    _empty_memo(monkeypatch)
    want = [sign_recursion_check(skew, r) for skew, r in cases]
    cap = strips_module._weight // 4
    monkeypatch.setattr(strips_module, "_CAP", cap)
    _empty_memo(monkeypatch)
    got, clears = [], 0
    for skew, r in cases:
        before = strips_module._weight
        report = sign_recursion_check(skew, r)
        got.append(report)
        assert _memo_weight() == strips_module._weight, (skew, r)
        if before > cap:
            # the call emptied the memo first, so it holds this call's entries alone
            clears += 1
            before = 0
            assert set(strips_module._removals) <= {(skew.outer, r)}, (skew, r)
            assert set(strips_module._tails) <= {(skew.inner, r)}, (skew, r)
        assert strips_module._weight <= before + _own_weight(report), (skew, r)
        assert _tails_are_removals(), (skew, r)
    assert clears >= 3
    assert list(map(repr, got)) == list(map(repr, want))


def test_removal_table_never_exceeds_its_cap(monkeypatch):
    # a call touches only its own (lam, r) entry, after emptying the memo
    # if it found it past the cap, so the removals held for other outer
    # shapes never weigh more than the cap
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(7, 6, (1, 2))]
    _empty_memo(monkeypatch)
    want = [sign_recursion_check(skew, r) for skew, r in cases]
    uncapped = _removal_weight()
    cap = uncapped // 4
    monkeypatch.setattr(strips_module, "_CAP", cap)
    _empty_memo(monkeypatch)
    got, peak = [], 0
    for skew, r in cases:
        got.append(sign_recursion_check(skew, r))
        assert _removal_weight(skip=(skew.outer, r)) <= cap, (skew, r)
        peak = max(peak, _removal_weight())
    assert uncapped > peak > cap // 2
    assert got == want and list(map(repr, got)) == list(map(repr, want))


def test_tail_table_never_exceeds_its_cap(monkeypatch):
    # a call touches only its own (nu, r) tails, after emptying the memo if
    # it found it past the cap, so the tails held for other inner shapes
    # never weigh more than the cap
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(7, 6, (1, 2))]
    _empty_memo(monkeypatch)
    want = [sign_recursion_check(skew, r) for skew, r in cases]
    uncapped = _tail_weight()
    cap = uncapped // 4
    monkeypatch.setattr(strips_module, "_CAP", cap)
    _empty_memo(monkeypatch)
    got, peak = [], 0
    for skew, r in cases:
        got.append(sign_recursion_check(skew, r))
        assert _tail_weight(skip=(skew.inner, r)) <= cap, (skew, r)
        assert _tails_are_removals(), (skew, r)
        peak = max(peak, _tail_weight())
    assert uncapped > peak > 0
    assert got == want and list(map(repr, got)) == list(map(repr, want))


def test_an_outer_shape_heavier_than_the_cap_is_kept_for_one_call(monkeypatch):
    heavy = make_skew(make_partition([4, 2]), make_partition([]))
    light = make_skew(make_partition([2]), make_partition([1]))
    _empty_memo(monkeypatch)
    want = repr(sign_recursion_check(heavy, 1))
    heavy_weight = strips_module._weight
    assert sum(map(len, strips_module._removals[heavy.outer, 1][0])) == 6
    _empty_memo(monkeypatch)
    sign_recursion_check(light, 1)
    # light fills the memo to the cap, which heavy alone passes
    cap = strips_module._weight
    assert cap < heavy_weight
    monkeypatch.setattr(strips_module, "_CAP", cap)
    # at the cap, not past it: the memo is kept and heavy joins it
    assert repr(sign_recursion_check(heavy, 1)) == want
    assert list(strips_module._removals) == [(light.outer, 1), (heavy.outer, 1)]
    assert _memo_weight() == strips_module._weight == cap + heavy_weight
    # past the cap, each call empties the memo and builds its own entries
    for _ in range(3):
        assert repr(sign_recursion_check(heavy, 1)) == want
        assert list(strips_module._removals) == [(heavy.outer, 1)]
        assert _memo_weight() == strips_module._weight == heavy_weight
    # an outer shape whose groups alone pass the cap is kept for its call
    many = make_skew(make_partition([1] * 11), make_partition([1] * 10))
    assert sign_recursion_check(many, 1).summands == ((make_partition([1] * 10), 1, 1, 1),)
    assert list(strips_module._removals) == [(many.outer, 1)]
    assert _memo_weight() == strips_module._weight > cap


def test_removal_table_builds_only_the_strips_a_call_can_use(monkeypatch):
    # lam has 10**12 removals of 1-strips, but nu leaves room for one
    _empty_memo(monkeypatch)
    big = 10**12
    lam = make_partition([big])
    report = sign_recursion_check(make_skew(lam, make_partition([big - 1])), 1)
    assert report.summands == ((make_partition([big - 1]), 1, 1, 1),)
    assert strips_module._removals[lam, 1][0] == [[(make_partition([big - 1]), 1, 1, 0)]]
    # a larger m extends the same outer shape's removals
    report = sign_recursion_check(make_skew(lam, make_partition([big - 3])), 1)
    assert [s.strip_length for s in report.summands] == [1, 2, 3]
    assert [len(g) for g in strips_module._removals[lam, 1][0]] == [3]
    # on a cold memo a call keeps exactly the removals of its summands
    for lam, nu, r in skews_up_to(8, 6, (1, 2, 3)):
        _empty_memo(monkeypatch)
        report = sign_recursion_check(make_skew(lam, nu), r)
        # an empty skew (m = 0) makes no entry
        groups = strips_module._removals.get((lam, r), ((),))[0]
        held = [x for group in groups for x in group]
        assert held == [(*s[:3], 0) for s in report.summands], (lam, nu, r)


def _stored_removals():
    return [e for groups, _ in strips_module._removals.values() for g in groups for e in g]


def test_zero_tail_summands_are_the_memo_removals(monkeypatch):
    # a report holds the memo's own removal wherever the tail sign is 0 and
    # builds a summand only for a nonzero tail; on an empty memo, then on
    # the memo that pass filled (the sweep stays far below the cap)
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(8, 6, (1, 2, 3))]
    _empty_memo(monkeypatch)
    for _ in range(2):
        reports = [sign_recursion_check(skew, r) for skew, r in cases]
        assert strips_module._weight <= strips_module._CAP
        stored = _stored_removals()
        assert all(type(e) is RecursionSummand and e.tail_sign == 0 for e in stored)
        # ids of live objects are distinct, so an id match is an `is` match
        stored_ids = {id(e) for e in stored}
        zero = 0
        for (skew, r), report in zip(cases, reports):
            groups = strips_module._removals.get((skew.outer, r), ((),))[0]
            own = {id(e) for g in groups for e in g}
            for s in report.summands:
                if s.tail_sign == 0:
                    zero += 1
                    assert id(s) in own, (skew, r, s)
                else:
                    assert id(s) not in stored_ids, (skew, r, s)
        assert zero == 944


def test_memo_and_reports_hold_one_object_per_value(monkeypatch):
    # on acceptance 5's skews from an empty memo, the stored removals hold
    # one mu object per distinct shape and are one object per distinct
    # removal, and the reports hold one summand object per distinct
    # summand, zero tail or not (ids of live objects are distinct, so an
    # id match is an `is` match)
    _empty_memo(monkeypatch)
    reports = [sign_recursion_check(make_skew(lam, nu), r) for lam, nu, r in _acceptance_5_cases()]
    stored = _stored_removals()
    mus = [e.mu for e in stored]
    assert len(stored) == 9196
    assert len({id(mu) for mu in mus}) == len(set(mus)) == 373
    assert len({id(e) for e in stored}) == len(set(stored)) == 2125
    summands = [s for report in reports for s in report.summands]
    assert len(summands) == 44476
    assert len({id(s) for s in summands}) == len(set(summands)) == 3677
    assert {id(s.mu) for s in summands} == {id(mu) for mu in mus}
    # each nonzero-tail summand is the value table's, counted once and high
    nonzero = {id(s): s for s in summands if s.tail_sign}.values()
    assert len(nonzero) == 1802
    assert all(strips_module._shared[s] is s for s in nonzero)
    assert all(
        sys.getsizeof(s) + strips_module._SLOT_BYTES <= strips_module._SUMMAND_BYTES
        for s in nonzero
    )
    assert _memo_weight() == strips_module._weight


def test_memo_weight_counts_each_stored_removal_high(monkeypatch):
    # a removal's summand, its mu and its slot in the group weigh no more
    # than the count the memo adds for it
    cases = [(make_skew(lam, nu), r) for lam, nu, r in skews_up_to(8, 6, (1, 2, 3))]
    _empty_memo(monkeypatch)
    for skew, r in cases:
        sign_recursion_check(skew, r)
    stored = _stored_removals()
    assert stored
    for e in stored:
        weight = strips_module._PART_BYTES * (len(e.mu) + 5)
        assert sys.getsizeof(e) + sys.getsizeof(e.mu) + 8 <= weight, e


def test_removal_table_weighs_a_many_row_shape_by_its_summands(monkeypatch):
    # 1,000 rows with a bead every 3 places, and nu keeps all but the last
    # 5 rows (m = 30 at r = 1): every upper bead's first removal already
    # fails nu, so the memo holds lam's groups, nu's dict and the
    # summands, no more
    lam = make_partition(range(2000, 0, -2))
    nu = make_partition(lam[:-5])
    _empty_memo(monkeypatch)
    cold = sign_recursion_check(make_skew(lam, nu), 1)
    assert cold.m == 30 and cold.lhs == cold.rhs
    assert len({s.mu for s in cold.summands}) == len(cold.summands)
    assert _memo_weight() == strips_module._weight == _own_weight(cold)
    assert repr(sign_recursion_check(make_skew(lam, nu), 1)) == repr(cold)
    assert strips_module._weight == _own_weight(cold)


def test_memo_stays_near_its_cap_on_many_row_skews(monkeypatch):
    # 40 outer shapes of 300 rows with a bead every 3 places, each nu its
    # lam without the last 5 rows (m = 30 at r = 1), so every tail is a
    # 295-row shape; the memo's real size stays near its small cap
    cap = 1 << 20
    monkeypatch.setattr(strips_module, "_CAP", cap)
    _empty_memo(monkeypatch)
    tracemalloc.start()
    try:
        for j in range(40):
            lam = make_partition([600 + 2 * j, *range(598, 0, -2)])
            report = sign_recursion_check(make_skew(lam, make_partition(lam[:-5])), 1)
            assert report.m == 30 and report.lhs == report.rhs, j
            assert _tails_are_removals(), j
        del lam, report
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        strips_module._removals.clear()
        strips_module._tails.clear()
        strips_module._shared.clear()
        gc.collect()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held <= 2 * cap
