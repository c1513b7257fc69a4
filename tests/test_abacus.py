import re

import pytest

from oracles import (
    NotMovable,
    apply_moves,
    movable_beads,
    ribbon_height,
    ribbon_removals,
    shape_cases,
    strip_height,
    swap_bead,
)
from plethabacus.abacus import (
    Abacus,
    BadRunner,
    BeadCountTooSmall,
    BeadMove,
    IllegalMove,
    IncompatibleAbaci,
    abacus_of,
    final_positions,
    inversion_sign,
    partition_of,
    runner_beads,
    single_step_moves,
)
from plethabacus.abacus import _beads_of, _partition_of_beads
from plethabacus.partitions import make_partition, partitions_up_to

LAM = make_partition([13, 10, 10, 5, 4, 3, 1])
NU = make_partition([11, 7, 4, 3, 1])

# bead moves realizing the greedy 2-strip chain from LAM down to NU at 7 beads
CHAIN_MOVES = [
    BeadMove(19, 17),
    BeadMove(15, 13),
    BeadMove(14, 12),
    BeadMove(13, 11),
    BeadMove(11, 9),
    BeadMove(9, 7),
    BeadMove(7, 5),
    BeadMove(5, 3),
    BeadMove(4, 2),
    BeadMove(2, 0),
]


def test_normalized_abacus_beta_numbers():
    # by default abacus_of gives the normalized abacus: one bead per part
    a = abacus_of(make_partition([2, 1]))
    assert a.bead_count == 2
    assert a.bead_positions == frozenset({1, 3})


def test_normalized_abacus_empty():
    a = abacus_of(make_partition([]))
    assert a.bead_count == 0
    assert a.bead_positions == frozenset()


def test_normalized_abacus_worked_shape():
    assert abacus_of(LAM).bead_positions == frozenset({1, 4, 6, 8, 14, 15, 19})


def test_abacus_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        Abacus(2, frozenset({1}))
    with pytest.raises(ValueError):
        Abacus(1, frozenset({-1}))
    with pytest.raises(ValueError):
        Abacus(1, frozenset({2.5}))


def test_with_bead_count_shifts_and_prepends():
    # each extra bead shifts every bead down one place and packs a new one at 0
    p = make_partition([2, 1])
    assert abacus_of(p, 3).bead_positions == frozenset({0, 2, 4})
    assert abacus_of(p, 4).bead_positions == frozenset({0, 1, 3, 5})
    assert abacus_of(p, 2) == abacus_of(p)
    assert abacus_of(make_partition([]), 2).bead_positions == frozenset({0, 1})
    with pytest.raises(BeadCountTooSmall):
        abacus_of(p, 1)


def test_abacus_of_pads_to_requested_count():
    assert abacus_of(make_partition([2, 1])) == abacus_of(make_partition([2, 1]), 2)
    assert abacus_of(make_partition([2, 1]), 3).bead_positions == frozenset({0, 2, 4})
    with pytest.raises(BeadCountTooSmall):
        abacus_of(make_partition([2, 1]), 1)


def test_abacus_of_equals_the_checked_constructor():
    # abacus_of builds its Abacus unchecked; it must be the value, hash
    # and type that Abacus(...) builds from lam_i + b - i
    for p in partitions_up_to(10):
        for b in range(len(p), len(p) + 4):
            parts = p + (0,) * (b - len(p))
            want = Abacus(b, [x + b - i for i, x in enumerate(parts, 1)])
            got = abacus_of(p, b)
            assert got == want and hash(got) == hash(want), (p, b)
            assert type(got) is Abacus, (p, b)


def test_partition_of_examples():
    assert partition_of(Abacus(2, frozenset({1, 3}))) == make_partition([2, 1])
    assert partition_of(Abacus(4, frozenset({0, 1, 2, 3}))) == make_partition([])
    assert partition_of(Abacus(7, frozenset({1, 4, 6, 8, 14, 15, 19}))) == LAM


def test_roundtrip_all_small_shapes():
    for p in partitions_up_to(12):
        assert partition_of(abacus_of(p)) == p
        assert partition_of(abacus_of(p, len(p) + 3)) == p


def test_partition_of_beads_inverts_beads_of():
    # the decoder builds Partitions without checks; each must equal, and
    # hash like, the validated partition at every bead count
    for p in partitions_up_to(10):
        want = make_partition(p.parts)
        for b in range(len(p), len(p) + 6):
            q = _partition_of_beads(_beads_of(p.parts, b))
            assert q == want and hash(q) == hash(want), (p, b)


def test_roundtrip_is_bead_count_invariant():
    for p in shape_cases():
        for extra in range(5):
            a = abacus_of(p, len(p) + extra)
            assert partition_of(a) == p, (p, extra)
            assert abacus_of(partition_of(a), a.bead_count) == a, (p, extra)


def test_movable_beads_examples():
    a = abacus_of(LAM, 7)
    assert movable_beads(a, 10) == {15, 19}
    assert movable_beads(abacus_of(make_partition([])), 3) == set()
    assert movable_beads(abacus_of(make_partition([1])), 1) == {1}
    with pytest.raises(ValueError):
        movable_beads(a, 0)


def test_movable_beads_count_ribbons():
    # one movable bead per geometric s-ribbon of the shape
    for p in partitions_up_to(8):
        a = abacus_of(p)
        for s in range(1, 5):
            assert len(movable_beads(a, s)) == len(ribbon_removals(p, s)), (p, s)


def test_swap_bead_examples():
    a = abacus_of(LAM, 7)
    assert partition_of(swap_bead(a, 15, 10)) == make_partition([13, 9, 4, 3, 3, 3, 1])
    one = abacus_of(make_partition([1]))
    assert partition_of(swap_bead(one, 1, 1)) == make_partition([])
    with pytest.raises(NotMovable):
        swap_bead(a, 6, 2)  # bead already sits at position 4
    with pytest.raises(NotMovable):
        swap_bead(a, 7, 2)  # no bead at 7


def test_swap_bead_matches_ribbon_removal():
    for p in partitions_up_to(12):
        a = abacus_of(p)
        for s in range(1, 7):
            got = {
                partition_of(swap_bead(a, beta, s)): strip_height(a, beta, s)
                for beta in movable_beads(a, s)
            }
            assert got == {mu: ribbon_height(p, mu) for mu in ribbon_removals(p, s)}, (p, s)


def test_strip_height_examples():
    assert strip_height(abacus_of(LAM, 7), 15, 10) == 3
    assert strip_height(abacus_of(make_partition([1])), 1, 1) == 0
    assert strip_height(abacus_of(make_partition([1, 1])), 2, 2) == 1
    with pytest.raises(NotMovable):
        strip_height(abacus_of(LAM, 7), 6, 2)


def test_runner_beads_split():
    a = abacus_of(LAM, 7)
    assert runner_beads(a, 2, 0) == [4, 6, 8, 14]
    assert runner_beads(a, 2, 1) == [1, 15, 19]
    with pytest.raises(BadRunner):
        runner_beads(a, 2, 5)


def test_apply_moves_identity_and_chain():
    a = abacus_of(LAM, 7)
    assert apply_moves(a, []) == a
    assert apply_moves(a, CHAIN_MOVES) == abacus_of(NU, 7)


def test_apply_moves_rejects_illegal_moves():
    a = abacus_of(LAM, 7)
    with pytest.raises(IllegalMove) as e:
        apply_moves(a, [BeadMove(7, 5)])  # gap at 7
    assert e.value.index == 0
    with pytest.raises(IllegalMove) as e:
        apply_moves(a, [BeadMove(19, 17), BeadMove(15, 17)])  # 17 now occupied
    assert e.value.index == 1


def test_final_positions_tracks_beads_through_chain():
    finals = final_positions(abacus_of(LAM, 7), CHAIN_MOVES)
    assert finals == {1: 1, 4: 0, 6: 6, 8: 8, 14: 12, 15: 3, 19: 17}


def test_final_positions_rejects_a_move_to_a_negative_position():
    a = abacus_of(make_partition([2, 1]), 3)  # beads at 0, 2 and 4
    with pytest.raises(IllegalMove, match=r"^move 1: negative position -2$") as e:
        final_positions(a, [BeadMove(4, 3), BeadMove(0, -2)])
    assert e.value.index == 1


@pytest.mark.parametrize("moves", [[(5, 3.5)], [(5, 3.0)], [5], [(5,)], [(5, 3, 1)], [("5", 3)]])
def test_final_positions_rejects_a_move_that_is_not_two_integer_positions(moves):
    # a float position was applied as given, and a non-pair raised TypeError
    a = abacus_of(make_partition([3, 1]), 3)  # beads at 0, 2 and 5
    message = rf"^move 1: a move is two integer positions, got {re.escape(repr(moves[0]))}$"
    with pytest.raises(IllegalMove, match=message) as e:
        final_positions(a, [BeadMove(0, 1), *moves])
    assert e.value.index == 1


def test_a_move_list_that_cannot_be_iterated_is_rejected_by_name():
    a = abacus_of(make_partition([3, 1]), 3)
    for call in (final_positions, inversion_sign):
        with pytest.raises(ValueError, match=r"^moves must be a list of bead moves, got None$"):
            call(a, None)
    # a string iterates, but its characters are not moves
    with pytest.raises(IllegalMove, match=r"^move 0: a move is two integer positions, got 'a'$"):
        inversion_sign(a, "ab")
    # an int-valued move in any sequence form is applied as a BeadMove is
    assert final_positions(a, [[5, 3]]) == final_positions(a, [BeadMove(5, 3)])
    assert final_positions(a, [[5, 3]]) == {0: 0, 2: 2, 5: 3}


def test_inversion_sign_of_chain():
    sign, pairs = inversion_sign(abacus_of(LAM, 7), CHAIN_MOVES)
    assert sign == 1
    assert pairs == frozenset(
        {
            frozenset({1, 4}),
            frozenset({6, 15}),
            frozenset({8, 15}),
            frozenset({14, 15}),
        }
    )


def test_inversion_sign_empty_sequence():
    sign, pairs = inversion_sign(abacus_of(LAM, 7), [])
    assert sign == 1
    assert pairs == frozenset()


def test_single_step_moves_reach_target():
    a, c = abacus_of(LAM, 7), abacus_of(NU, 7)
    for r in (1, 2):
        moves = single_step_moves(a, c, r)
        assert all(m.from_position - m.to_position == r for m in moves)
        assert apply_moves(a, moves) == c


def test_single_step_moves_incompatibility():
    a = abacus_of(LAM, 7)
    with pytest.raises(IncompatibleAbaci, match=r"^bead counts 7 != 6$"):
        single_step_moves(a, abacus_of(NU, 6), 2)  # bead counts differ
    # runner bead counts differ: (1) vs () at one bead on 2 runners
    with pytest.raises(IncompatibleAbaci, match=r"^runner 0: 0 beads vs 1$"):
        single_step_moves(
            abacus_of(make_partition([1]), 1), abacus_of(make_partition([]), 1), 2
        )
    # target above source on its runner
    with pytest.raises(IncompatibleAbaci, match=r"^runner 0: bead at 2 cannot move down to 3$"):
        single_step_moves(
            abacus_of(make_partition([1]), 2), abacus_of(make_partition([2]), 2), 1
        )


def test_single_step_moves_walk_only_runners_with_beads():
    # a runner with no bead in either abacus is skipped, whatever r is
    a = abacus_of(LAM, 7)
    assert single_step_moves(a, a, 10**9) == []
    empty = abacus_of(make_partition([]))
    assert single_step_moves(empty, empty, 10**9) == []


def test_single_step_sign_matches_strip_signs():
    # each single-step move is an r-strip removal; signs multiply to the
    # inversion sign of the whole sequence
    for p in partitions_up_to(9):
        for r in (1, 2, 3):
            a = abacus_of(p)
            cur, product, moves = a, 1, []
            while True:
                movable = sorted(movable_beads(cur, r))
                if not movable:
                    break
                beta = movable[-1]
                product *= (-1) ** strip_height(cur, beta, r)
                moves.append(BeadMove(beta, beta - r))
                cur = swap_bead(cur, beta, r)
            assert inversion_sign(a, moves)[0] == product, (p, r)
