"""Value semantics of the library's records: tuples, slots, pickling, errors."""

import copy
import pickle

import pytest

from plethabacus.abacus import Abacus, abacus_of
from plethabacus.cli import VerifyConfig
from plethabacus.partitions import (
    InvalidPartition,
    NotContained,
    Partition,
    SchurExpansion,
    make_partition,
    make_skew,
)
from plethabacus.strips import (
    SignRecursionReport,
    border_strips,
    pairing_witness,
    r_decompose,
    sign_recursion_check,
)
from plethabacus.symfunc import plethystic_mn

# the smallest shape pair with one type II runner next to a type I runner
LAM2 = make_partition([10, 10, 8, 5, 5, 5, 1])
NU2 = make_partition([4, 4, 4, 2, 2])


def one_of_each_record():
    """An instance of every value type that has no per-instance dict."""
    lam, nu = make_partition([5, 1]), make_partition([2, 1])
    report = sign_recursion_check(make_skew(lam, nu), 3)
    assert report.summands and report.sgn_r_value
    return [
        lam,
        make_partition([]),
        make_skew(lam, nu),
        plethystic_mn(nu, 2, 2),
        SchurExpansion(0, {}),
        abacus_of(lam, 5),
        border_strips(lam, 3)[0],
        r_decompose(make_skew(lam, nu), 3),
        pairing_witness(abacus_of(LAM2, 9), abacus_of(NU2, 9), 2)[0],
        report.summands[0],
        report,
    ]


def test_records_round_trip_through_pickle_and_copy():
    for value in [*one_of_each_record(), VerifyConfig(max_degree=6)]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value, (value, protocol)
        for clone in (copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value, value


def test_records_write_plain_json():
    lam, nu = make_partition([2, 2]), make_partition([1])
    assert make_skew(lam, nu).to_json() == {"outer": [2, 2], "inner": [1]}
    (strip,) = [st for st in border_strips(lam, 3) if st.inner == nu]
    assert strip.to_json() == {
        "outer": [2, 2],
        "inner": [1],
        "height": 1,
        "top_right": [1, 2],
        "bottom_left": [2, 1],
    }
    a = abacus_of(make_partition([2, 1]), 3)
    assert a.sorted_beads() == [0, 2, 4]
    assert a.to_json() == {"bead_count": 3, "beads": [0, 2, 4]}


def test_schur_expansion_is_unhashable_and_compares_by_terms():
    # its terms are a dict, so the class declares itself unhashable
    for e in (SchurExpansion(0, {}), plethystic_mn(NU2, 2, 1)):
        with pytest.raises(TypeError, match="unhashable type: 'SchurExpansion'"):
            hash(e)
    two, one_one = make_partition([2]), make_partition([1, 1])
    e = SchurExpansion(2, {two: 1, one_one: -1})
    assert e == SchurExpansion(2, {one_one: -1, two: 1, make_partition([1]): 0})
    assert e != SchurExpansion(2, {two: 1})
    assert SchurExpansion(0, {}) == SchurExpansion(0, {})
    assert SchurExpansion(0, {}) != SchurExpansion(1, {})
    assert e != {two: 1, one_one: -1} and e != 2


def test_records_have_no_instance_dict():
    types = set()
    for value in one_of_each_record():
        types.add(type(value).__name__)
        assert not hasattr(value, "__dict__"), type(value)
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
    assert types == {
        "Partition",
        "SkewPartition",
        "SchurExpansion",
        "Abacus",
        "BorderStrip",
        "Decomposition",
        "PairingWitness",
        "RecursionSummand",
        "SignRecursionReport",
    }


def test_partition_is_its_tuple_of_parts():
    p = Partition((2, 1))
    assert isinstance(p, tuple)
    assert p == (2, 1) and hash(p) == hash((2, 1))
    assert p.parts == (2, 1) and type(p.parts) is tuple
    assert make_partition([2, 1, 0]) == p and Partition() == ()
    assert Partition((3, 1)) > p > Partition((1, 1, 1))
    assert sorted([Partition((1, 1)), Partition((2,))]) == [(1, 1), (2,)]
    assert p + (0,) == (2, 1, 0) and type(p + (0,)) is tuple
    assert {p: 1}[(2, 1)] == 1


def test_repr_is_unchanged():
    assert repr(Partition((2, 1))) == "Partition(2, 1)"
    assert repr(Partition((3,))) == "Partition(3,)"
    assert repr(make_partition([])) == "Partition()"
    assert str(make_partition([4, 2])) == "Partition(4, 2)"
    assert repr(make_skew(Partition((2, 1)), Partition((1,)))) == (
        "SkewPartition(outer=Partition(2, 1), inner=Partition(1,))"
    )
    assert repr(Abacus(2, frozenset({0, 3}))) == (
        "Abacus(bead_count=2, bead_positions=frozenset({0, 3}))"
    )


def test_record_fields_cannot_be_assigned_or_deleted():
    e = plethystic_mn(NU2, 2, 1)
    report = sign_recursion_check(make_skew(make_partition([5, 1]), make_partition([2, 1])), 3)
    skew = report.skew
    for value, field in ((e, "degree"), (e, "terms"), (report, "m"), (skew, "outer")):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def test_expansion_and_report_are_not_tuples_and_keep_their_repr():
    # a tuple output reads as an (ours, truth) pair to the benchmark's checks
    two, one_one = make_partition([2]), make_partition([1, 1])
    e = SchurExpansion(2, {two: 1, one_one: -1})
    report = sign_recursion_check(make_skew(make_partition([4]), make_partition([])), 2)
    assert not isinstance(e, tuple) and not isinstance(report, tuple)
    assert repr(e) == "SchurExpansion(degree=2, terms={Partition(2,): 1, Partition(1, 1): -1})"
    assert repr(SchurExpansion(0)) == "SchurExpansion(degree=0, terms={})"
    assert repr(report) == (
        "SignRecursionReport(skew=SkewPartition(outer=Partition(4,), inner=Partition()),"
        " r=2, m=2, sgn_r_value=1, summands=("
        "RecursionSummand(mu=Partition(2,), strip_length=2, strip_sign=1, tail_sign=1),"
        " RecursionSummand(mu=Partition(), strip_length=4, strip_sign=1, tail_sign=1)))"
    )
    fields = (report.skew, report.r, report.m, report.sgn_r_value, report.summands)
    assert report == SignRecursionReport(*fields) and report != fields
    assert hash(report) == hash(SignRecursionReport(*fields))


def test_tuple_records_equal_their_plain_field_tuples():
    lam, nu = make_partition([5, 1]), make_partition([2, 1])
    report = sign_recursion_check(make_skew(lam, nu), 3)
    records = [
        make_skew(lam, nu),
        abacus_of(lam, 5),
        border_strips(lam, 3)[0],
        r_decompose(make_skew(lam, nu), 3),
        pairing_witness(abacus_of(LAM2, 9), abacus_of(NU2, 9), 2)[0],
        report.summands[0],
        VerifyConfig(),
    ]
    for value in records:
        plain = tuple(value)
        assert isinstance(value, tuple) and value == plain and hash(value) == hash(plain)
        assert plain == tuple(getattr(value, name) for name in value._fields)
    assert report.summands[0] == (make_partition([2, 1]), 3, 1, 1)


def test_replace_checks_what_the_constructor_checks():
    skew = make_skew(Partition((2, 1)), Partition((1,)))
    with pytest.raises(NotContained, match=r"Partition\(3,\) is not contained in"):
        skew._replace(inner=Partition((3,)))
    with pytest.raises(NotContained):
        type(skew)._make((Partition((1,)), Partition((2,))))
    assert skew._replace(inner=Partition((2,))) == (Partition((2, 1)), Partition((2,)))
    with pytest.raises(ValueError, match="bead_count 7 != 2 distinct positions"):
        abacus_of(Partition((5, 2)), 2)._replace(bead_count=7)
    with pytest.raises(ValueError, match="non-negative"):
        abacus_of(Partition((5, 2)), 2)._replace(bead_positions=[-1, 3])
    with pytest.raises(ValueError, match="size bounds must be non-negative"):
        VerifyConfig()._replace(max_degree=-1)
    with pytest.raises(ValueError, match=r"bad r range \(2, 1\)"):
        VerifyConfig._make((4, (2, 1), (1, 3), 12))
    assert VerifyConfig()._replace(max_degree=6).max_degree == 6


@pytest.mark.parametrize(
    "bounds, message",
    [
        # unchecked, it reaches range() in run_verify as a TypeError
        ({"r_range": (1.0, 2)}, "r range must be an integer, got 1.0"),
        # unchecked, it is swept as a bound
        ({"max_degree": 2.5}, "max_degree must be an integer, got 2.5"),
        # unchecked, it reaches a comparison as a TypeError
        ({"m_range": (1, "2")}, "m range must be an integer, got '2'"),
        ({"r_range": (1, 2, 3)}, r"r range must be a pair, got \(1, 2, 3\)"),
        ({"m_range": 2}, "m range must be a pair, got 2"),
    ],
)
def test_verify_config_rejects_bounds_that_are_not_integers(bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        VerifyConfig(**bounds)


@pytest.mark.parametrize(
    "build, args, name",
    [
        (abacus_of, (Partition((2, 1)), 3.0), "bead_count"),
        (abacus_of, (Partition((2, 1)), "3"), "bead_count"),
        (Abacus, (2.0, [1, 2]), "bead_count"),
        (Abacus, ("2", [1, 2]), "bead_count"),
        (SchurExpansion, (2.0, {Partition((2,)): 1}), "degree"),
    ],
)
def test_constructors_reject_integer_fields_that_are_not_integers(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        build(*args)


INTEGERS = "parts must be integers: '{}' object cannot be interpreted as an integer"

# the class and message each bad input raised before Partition became a tuple
CONSTRUCTOR_ERRORS = [
    ((2, -1), "parts must be positive: (2, -1)"),
    ((1, 2), "parts must be weakly decreasing: (1, 2)"),
    ((1.5,), INTEGERS.format("float")),
    ((2, 1.0), INTEGERS.format("float")),
    ("21", INTEGERS.format("str")),
    (("2",), INTEGERS.format("str")),
    ((1, -1, 2), "parts must be positive: (1, -1, 2)"),
    ((2, 0), "parts must be positive: (2, 0)"),
    (3, "parts must be integers: 'int' object is not iterable"),
]
MAKE_PARTITION_ERRORS = [
    ([-1], "negative part in [-1]"),
    ([2, -1], "negative part in [2, -1]"),
    ([1, 2], "not weakly decreasing: [1, 2]"),
    ([1.5], INTEGERS.format("float")),
    ([2, 1.0], INTEGERS.format("float")),
    ("21", INTEGERS.format("str")),
    (["2"], INTEGERS.format("str")),
    ([1, -1, 2], "negative part in [1, -1, 2]"),
    ([1, 0, 1], "not weakly decreasing: [1, 0, 1]"),
    (None, "parts must be integers: 'NoneType' object is not iterable"),
]
SKEW_ERRORS = [
    ([1], [2], "Partition(2,) is not contained in Partition(1,)"),
    ([2, 1], [1, 1, 1], "Partition(1, 1, 1) is not contained in Partition(2, 1)"),
    ([], [1], "Partition(1,) is not contained in Partition()"),
    ([3, 1], [2, 2], "Partition(2, 2) is not contained in Partition(3, 1)"),
]


@pytest.mark.parametrize("parts, message", CONSTRUCTOR_ERRORS)
def test_partition_constructor_errors_are_unchanged(parts, message):
    with pytest.raises(InvalidPartition) as err:
        Partition(parts)
    assert type(err.value) is InvalidPartition and str(err.value) == message


@pytest.mark.parametrize("parts, message", MAKE_PARTITION_ERRORS)
def test_make_partition_errors_are_unchanged(parts, message):
    with pytest.raises(InvalidPartition) as err:
        make_partition(parts)
    assert type(err.value) is InvalidPartition and str(err.value) == message


@pytest.mark.parametrize("outer, inner, message", SKEW_ERRORS)
def test_make_skew_errors_are_unchanged(outer, inner, message):
    with pytest.raises(NotContained) as err:
        make_skew(make_partition(outer), make_partition(inner))
    assert type(err.value) is NotContained and str(err.value) == message
