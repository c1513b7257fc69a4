import numpy as np
import pytest

from oracles import (
    minimal_distinct_row,
    partitions_by_first_part,
    shape_cases,
    shape_pair_cases,
    subpartitions_of_size,
)
from plethabacus.partitions import (
    Box,
    InvalidPartition,
    NotContained,
    Partition,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
    partitions_up_to,
)

# number of partitions of 0, 1, ..., 12
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

SHAPES = shape_cases()
PAIRS = shape_pair_cases()


def test_make_partition_strips_trailing_zeros():
    assert make_partition([3, 2, 2, 0, 0]).parts == (3, 2, 2)


def test_make_partition_empty():
    p = make_partition([])
    assert p.parts == ()
    assert p.size() == 0
    assert len(p) == 0


def test_make_partition_rejects_bad_input():
    with pytest.raises(InvalidPartition):
        make_partition([2, 3])
    with pytest.raises(InvalidPartition):
        make_partition([3, -1])
    with pytest.raises(InvalidPartition):
        make_partition([1, 0, 1])
    with pytest.raises(InvalidPartition):
        make_partition([2.7, 1])
    with pytest.raises(InvalidPartition):
        Partition((2.5,))
    # numpy integers are integers, not truncated floats
    assert make_partition(np.array([2, 1, 0])) == Partition((np.int64(2), 1))


def test_make_partition_equals_checked_constructor():
    # make_partition checks its input once and skips Partition's own checks
    for p in partitions_up_to(8):
        parts = list(p.parts)
        for given in (parts, parts + [0, 0], np.array(parts + [0], dtype=np.int64)):
            made = make_partition(given)
            assert made == Partition(tuple(parts)), given
            assert hash(made) == hash(Partition(tuple(parts))), given
            assert all(type(a) is int for a in made.parts), given
    for bad in ([1.0], [2, 1.5], ["2"], "21", [3, -1], [-1], [2, 3], [1, 0, 1]):
        with pytest.raises(InvalidPartition):
            make_partition(bad)
    with pytest.raises(InvalidPartition):
        Partition((2, 3))


def test_contains_matches_padded_part_definition():
    shapes = list(partitions_up_to(7))
    for p in shapes:
        for q in shapes:
            padded = all(p.part(i) >= q.part(i) for i in range(1, len(q) + 1))
            assert p.contains(q) == padded, (p, q)


def test_part_is_one_based_and_zero_padded():
    p = make_partition([3, 1])
    assert p.part(1) == 3
    assert p.part(2) == 1
    assert p.part(3) == 0
    assert p.part(99) == 0


def test_part_rejects_a_row_below_one():
    p = make_partition([3, 1])
    for i in (0, -1):
        with pytest.raises(IndexError, match="^rows are numbered from 1$"):
            p.part(i)
    # a float or a string row is named, where it raised TypeError
    for i in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match=f"^row must be an integer, got {i!r}$"):
            p.part(i)


@pytest.mark.parametrize(
    "row, column, name",
    [(1, 1.5, "column"), (1, 2.0, "column"), (1.5, 1, "row"), ("1", 1, "row"), (2.0, 1, "row")],
)
def test_has_box_rejects_a_non_integer_index(row, column, name):
    # (1, 1.5) and (1, 2.0) read True, and a float or a string row raised TypeError
    value = column if name == "column" else row
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        make_partition([3, 1]).has_box(row, column)


def test_boxes_match_size_and_has_box():
    p = make_partition([3, 1])
    boxes = list(p.boxes())
    assert len(boxes) == p.size()
    assert set(boxes) == {Box(1, 1), Box(1, 2), Box(1, 3), Box(2, 1)}
    assert p.has_box(1, 3)
    assert not p.has_box(2, 2)
    assert not p.has_box(0, 1)


def test_contains_pads_with_zeros():
    p = make_partition([3, 1])
    assert p.contains(make_partition([3]))
    assert p.contains(make_partition([2, 1]))
    assert p.contains(make_partition([]))
    assert not p.contains(make_partition([4]))
    assert not p.contains(make_partition([2, 2]))
    assert not p.contains(make_partition([1, 1, 1]))


def test_make_skew_worked_shape_has_size_20():
    sk = make_skew(
        make_partition([13, 10, 10, 5, 4, 3, 1]), make_partition([11, 7, 4, 3, 1])
    )
    assert sk.size() == 20
    assert not sk.is_empty()


def test_make_skew_identity_is_empty():
    p = make_partition([4, 2])
    sk = make_skew(p, p)
    assert sk.size() == 0
    assert sk.is_empty()
    assert sk.boxes() == set()


def test_make_skew_rejects_non_contained():
    with pytest.raises(NotContained):
        make_skew(make_partition([2, 1]), make_partition([3]))
    with pytest.raises(NotContained):
        make_skew(make_partition([2]), make_partition([1, 1]))


def test_make_skew_rejects_shapes_that_are_not_partitions():
    # a tuple, a list and an unsorted tuple, as outer and as inner
    p = make_partition([2, 1])
    for bad in ((2, 1), [2, 1], (1, 2)):
        with pytest.raises(InvalidPartition, match=r"^outer must be a Partition.*make_partition"):
            make_skew(bad, p)
        with pytest.raises(InvalidPartition, match=r"^inner must be a Partition.*make_partition"):
            make_skew(p, bad)
    skew = make_skew(p, make_partition([1]))
    with pytest.raises(InvalidPartition, match="^inner must be"):
        skew._replace(inner=(1,))
    with pytest.raises(InvalidPartition, match="^outer must be"):
        type(skew)._make(([2, 1], make_partition([1])))


def test_minimal_distinct_row():
    lam = make_partition([13, 10, 10, 5, 4, 3, 1])
    nu = make_partition([11, 7, 4, 3, 1])
    assert minimal_distinct_row(make_skew(lam, nu)) == 1
    assert minimal_distinct_row(make_skew(nu, nu)) is None
    assert (
        minimal_distinct_row(make_skew(make_partition([3, 3, 1]), make_partition([3, 2])))
        == 2
    )


def test_partitions_of_size_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(list(partitions_of_size(n))) == count


def test_partitions_of_size_is_sorted_and_valid():
    for n in range(10):
        ps = list(partitions_of_size(n))
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert p.size() == n
            assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
        keys = [p.parts for p in ps]
        assert keys == sorted(keys, reverse=True)
        assert ps == list(partitions_by_first_part(n))


def test_partitions_up_to_unions_all_sizes():
    got = list(partitions_up_to(5))
    want = [p for n in range(6) for p in partitions_of_size(n)]
    assert got == want


def test_partitions_of_size_containing_matches_filter():
    # the same shapes in the same (descending lexicographic) order, which
    # verify's first reported failure depends on
    for inner in partitions_up_to(5):
        for n in range(inner.size() + 6):
            got = list(partitions_of_size_containing(n, inner))
            want = [p for p in partitions_by_first_part(n) if p.contains(inner)]
            assert got == want, (inner, n)
            assert all(type(p) is Partition for p in got)


@pytest.mark.parametrize("n", [2.5, "3", None])
def test_partition_enumerators_reject_a_size_that_is_not_an_integer(n):
    # at the call, before any shape is asked for
    for call in (
        partitions_of_size,
        partitions_up_to,
        lambda n: partitions_of_size_containing(n, make_partition([1])),
    ):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            call(n)


def test_partition_enumerators_yield_int_parts_for_a_bool_size():
    # a bool is an int, so True sizes 1, but no yielded part is a bool
    for got, want in (
        (partitions_of_size(True), [(1,)]),
        (partitions_up_to(True), [(), (1,)]),
        (partitions_of_size_containing(True, make_partition([1])), [(1,)]),
        (partitions_of_size_containing(False, make_partition([])), [()]),
    ):
        got = list(got)
        assert got == want
        assert all(type(part) is int for p in got for part in p), got


def test_subpartitions_of_size_matches_filter():
    for outer in partitions_up_to(8):
        for k in range(outer.size() + 1):
            got = sorted(p.parts for p in subpartitions_of_size(outer, k))
            want = sorted(
                p.parts for p in partitions_of_size(k) if outer.contains(p)
            )
            assert got == want
            assert len(got) == len(set(got))


def test_partition_is_hashable_and_usable_as_key():
    d = {make_partition([2, 1]): 5}
    assert d[make_partition([2, 1, 0])] == 5


def test_json_roundtrip():
    for p in SHAPES:
        assert make_partition(p.to_json()).parts == p.parts, p


def test_contains_is_reflexive():
    for p in SHAPES:
        assert p.contains(p), p


def test_contains_is_antisymmetric():
    for p, q in PAIRS:
        if p.contains(q) and q.contains(p):
            assert p == q, (p, q)


def test_skew_size_is_difference():
    for p, q in PAIRS:
        if p.contains(q):
            assert make_skew(p, q).size() == p.size() - q.size(), (p, q)
        else:
            with pytest.raises(NotContained):
                make_skew(p, q)


def test_boxes_agree_with_has_box():
    for p in SHAPES:
        for box in p.boxes():
            assert p.has_box(box.row, box.column), (p, box)
        assert sum(1 for _ in p.boxes()) == p.size(), p
