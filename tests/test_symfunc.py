import itertools
import json
import subprocess
import sys

import pytest

from oracles import (
    bead_terms,
    expansion_dict,
    horizontal_strip_additions,
    public_fold,
    quotient_term_count,
    ribbon_additions,
    runner_raise_candidates,
    runner_raises,
)
from plethabacus.oracle import oracle_plethystic_mn
from plethabacus.partitions import (
    InvalidPartition,
    Partition,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
    partitions_up_to,
)
from plethabacus import symfunc
from plethabacus.abacus import _beads_of, abacus_of
from plethabacus.strips import _chain_sign, border_strips, order_independent_sign, r_decompose
from plethabacus.symfunc import (
    SchurExpansion,
    mn_multiply,
    plethystic_mn,
    plethystic_mn_multi,
    power_product_pleth,
)


def test_expansion_drops_zero_coefficients():
    e = SchurExpansion(2, {make_partition([2]): 1, make_partition([1, 1]): 0})
    assert expansion_dict(e) == {(2,): 1}
    assert e.coefficient(make_partition([1, 1])) == 0


def test_expansion_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        SchurExpansion(2, {make_partition([3]): 1})


def test_expansion_terms_sorted_descending_lex():
    e = SchurExpansion(
        4,
        {
            make_partition([2, 2]): 1,
            make_partition([4]): 1,
            make_partition([3, 1]): -1,
            make_partition([1, 1, 1, 1]): 2,
        },
    )
    assert [p.parts for p, _ in e.items()] == [(4,), (3, 1), (2, 2), (1, 1, 1, 1)]


def test_expansion_render():
    assert plethystic_mn(make_partition([]), 2, 2).render() == "+ s[4] - s[3,1] + s[2,2]"
    assert SchurExpansion(3, {}).render() == "0"
    e = SchurExpansion(2, {make_partition([2]): -2, make_partition([1, 1]): 1})
    assert e.render() == "- 2 s[2] + s[1,1]"


def test_expansion_json_roundtrip():
    e = plethystic_mn(make_partition([2, 1]), 2, 1)
    data = e.to_json()
    assert data["degree"] == 5
    assert data["terms"][0] == {"lambda": [4, 1], "coeff": 1}
    assert SchurExpansion.from_json(json.loads(json.dumps(data))) == e


def test_expansion_from_json_rejects_inexact_numbers():
    one = {"lambda": [1], "coeff": 1}
    assert SchurExpansion.from_json({"degree": 1, "terms": [one]}).render() == "+ s[1]"
    for coeff in (0.5, 1.0, "1", None):
        data = {"degree": 1, "terms": [{"lambda": [1], "coeff": coeff}]}
        with pytest.raises(ValueError, match="coeff"):
            SchurExpansion.from_json(data)
    for degree in (1.0, "1", -1):
        with pytest.raises(ValueError, match="degree"):
            SchurExpansion.from_json({"degree": degree, "terms": [one]})


def test_expansion_from_json_rejects_a_repeated_shape():
    for degree, first, second, shape in [
        (1, [1], [1], r"\[1\]"),
        (2, [1, 1], [1, 1, 0], r"\[1, 1\]"),
        (2, [2, 0], [2], r"\[2\]"),
    ]:
        terms = [{"lambda": first, "coeff": 1}, {"lambda": second, "coeff": 2}]
        with pytest.raises(ValueError, match=rf"shape {shape} is repeated"):
            SchurExpansion.from_json({"degree": degree, "terms": terms})
    # a zero coefficient still names its shape once
    terms = [{"lambda": [1], "coeff": 0}, {"lambda": [1], "coeff": 0}]
    with pytest.raises(ValueError, match="repeated"):
        SchurExpansion.from_json({"degree": 1, "terms": terms})


def test_expansion_input_from_outside_is_rejected_by_field():
    one = make_partition([1])
    with pytest.raises(ValueError, match=r"^terms must be a dict of shape -> coeff, got \["):
        SchurExpansion(1, [(one, 1)])
    term = {"lambda": [1], "coeff": 1}
    for data, message in [
        ([], r"^expansion must be a JSON object, got \[\]$"),
        (None, r"^expansion must be a JSON object, got None$"),
        ({"terms": [term]}, r"^expansion has no 'degree' field$"),
        ({"degree": 1}, r"^expansion has no 'terms' field$"),
        ({"degree": 1, "terms": 5}, r"^terms must be a list, got 5$"),
        ({"degree": 1, "terms": [[1]]}, r"^term must be a JSON object, got \[1\]$"),
        ({"degree": 1, "terms": [{"coeff": 1}]}, r"^term has no 'lambda' field$"),
        ({"degree": 1, "terms": [{"lambda": [1]}]}, r"^term has no 'coeff' field$"),
        # JSON true and false are Python bools, which the integer checks take as 1 and 0
        (
            {"degree": True, "terms": [{"lambda": [True], "coeff": True}]},
            r"^degree holds a JSON boolean where an integer belongs, got True$",
        ),
        (
            {"degree": 2, "terms": [{"lambda": [1, True], "coeff": 1}]},
            r"^lambda holds a JSON boolean where an integer belongs, got \[1, True\]$",
        ),
        (
            {"degree": 1, "terms": [{"lambda": [1], "coeff": False}]},
            r"^coeff holds a JSON boolean where an integer belongs, got False$",
        ),
    ]:
        with pytest.raises(ValueError, match=message):
            SchurExpansion.from_json(data)
    assert SchurExpansion.from_json({"degree": 1, "terms": [term]}) == SchurExpansion(1, {one: 1})


def test_expansion_equality_ignores_insertion_order():
    a = SchurExpansion(2, {make_partition([2]): 1, make_partition([1, 1]): -1})
    b = SchurExpansion(2, {make_partition([1, 1]): -1, make_partition([2]): 1})
    assert a == b
    assert a != SchurExpansion(2, {make_partition([2]): 1})


def test_mn_multiply_examples():
    assert expansion_dict(mn_multiply(make_partition([]), 1)) == {(1,): 1}
    assert expansion_dict(mn_multiply(make_partition([]), 2)) == {(2,): 1, (1, 1): -1}
    assert expansion_dict(mn_multiply(make_partition([2, 1]), 2)) == {
        (4, 1): 1,
        (2, 1, 1, 1): -1,
    }
    with pytest.raises(ValueError):
        mn_multiply(make_partition([]), 0)


def test_mn_multiply_matches_ribbon_oracle():
    for nu in partitions_up_to(5):
        for r in range(1, 5):
            got = expansion_dict(mn_multiply(nu, r))
            want = {lam.parts: sign for lam, sign in ribbon_additions(nu, r).items()}
            assert got == want, (nu, r)


def test_plethystic_mn_basic_example():
    assert expansion_dict(plethystic_mn(make_partition([]), 2, 2)) == {
        (4,): 1,
        (3, 1): -1,
        (2, 2): 1,
    }


def test_plethystic_mn_r1_is_pieri():
    for nu in partitions_up_to(4):
        for m in (1, 2, 3):
            got = expansion_dict(plethystic_mn(nu, 1, m))
            want = {
                lam.parts: 1 for lam in horizontal_strip_additions(nu, m)
            }
            assert got == want, (nu, m)


def test_plethystic_mn_worked_shape_coefficient():
    nu = make_partition([11, 7, 4, 3, 1])
    lam = make_partition([13, 10, 10, 5, 4, 3, 1])
    expansion = plethystic_mn(nu, 2, 10)
    assert expansion.coefficient(lam) == 1
    assert expansion.degree == 46


def test_plethystic_mn_coefficients_are_signs():
    for nu in partitions_up_to(3):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                if r * m + nu.size() > 10:
                    continue
                e = plethystic_mn(nu, r, m)
                assert e.degree == r * m + nu.size()
                for p, c in e.items():
                    assert c in (-1, 1)
                    assert p.size() == e.degree
                    assert p.contains(nu)


def test_plethystic_mn_support_is_the_r_decomposable_shapes():
    # every lam containing nu of the degree, signed by the reference chain
    shapes = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                n = nu.size() + r * m
                if n > 12:
                    continue
                e = plethystic_mn(nu, r, m)
                for lam in partitions_of_size_containing(n, nu):
                    shapes += 1
                    dec = r_decompose(make_skew(lam, nu), r)
                    want = 0 if dec is None else dec.sign
                    assert e.coefficient(lam) == want, (lam, nu, r, m)
    assert shapes == 1440


def test_plethystic_mn_matches_oracle_on_larger_inner_shapes():
    # inner shapes of size exactly 5; smaller ones are swept by the
    # acceptance tests
    for nu in partitions_of_size(5):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                if r * m + 5 > 12:
                    continue
                assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (
                    nu,
                    r,
                    m,
                )


def test_expansion_terms_equal_validated_partitions():
    # terms are built from bead lists without Partition's checks, and the
    # expansions without SchurExpansion's; each must equal, and hash like,
    # the same parts sent through make_partition, and each expansion the
    # validated one built from its terms
    terms = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3):
            expansions = [mn_multiply(nu, r)]
            expansions += [
                plethystic_mn(nu, r, m) for m in (1, 2, 3) if nu.size() + r * m <= 12
            ]
            for e in expansions + [plethystic_mn(nu, r, 0)]:
                validated = SchurExpansion(e.degree, dict(e.terms))
                assert validated == e and validated.terms == e.terms, (nu, r)
            for e in expansions:
                for lam in e.terms:
                    checked = make_partition(lam.parts)
                    assert checked == lam and hash(checked) == hash(lam), lam
                    terms += 1
    assert terms == 596


def test_runner_raises_equal_brute_force():
    # every order-preserving raise of up to 4 beads on one runner: bead j
    # moves d_j steps down and stays strictly above bead j + 1's start
    for r, t in ((1, 0), (3, 2)):
        for k in range(5):
            for steps in itertools.combinations(range(7), k):
                want = [[] for _ in range(7)]
                for d in itertools.product(range(7), repeat=k):
                    new = [s + e for s, e in zip(steps, d)]
                    if sum(d) <= 6 and all(a < b for a, b in zip(new, steps[1:])):
                        want[sum(d)].append([t + r * e for e in new])
                beads = [t + r * s for s in steps]
                for m in (0, 1, 6):
                    got = runner_raises(beads, r, m)
                    assert [sorted(b) for b in got] == want[: m + 1], (beads, r, m)


# a start that no Partition check would pass: its three rows share the
# row value lam_j - j = 3, so each of them takes the same step to the
# value 5 and the walk builds a term twice
SHARED_ROW_VALUE = [3, 4, 5]


def test_plethystic_mn_rejects_unsigned_and_repeated_candidates():
    # every term is built along its own greedy chain, so no unsigned
    # candidate can arise; only a start whose rows share a value, as a
    # start list with beads at one position did, can repeat a term
    bad = Partition._trusted(SHARED_ROW_VALUE)
    for m in (1, 2):
        with pytest.raises(AssertionError, match="repeated"):
            plethystic_mn(bad, 2, m)
    nu = make_partition([1, 1, 1])
    assert len(plethystic_mn(nu, 2, 1).terms) > 1
    assert len(plethystic_mn(nu, 2, 2).terms) > 1


def test_plethystic_mn_check_survives_optimize_flag():
    code = (
        "import sys\n"
        "from plethabacus import symfunc\n"
        "from plethabacus.partitions import Partition\n"
        "for m in (1, 2):\n"
        "    try:\n"
        f"        symfunc.plethystic_mn(Partition._trusted({SHARED_ROW_VALUE}), 2, m)\n"
        "    except AssertionError as e:\n"
        "        print('raised', m, sys.flags.optimize, 'repeated' in str(e))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised 1 1 True\nraised 2 1 True\n"


def test_terms_equal_the_bead_walk_in_key_order():
    # the row walk against the bead walk it replaced, over the benchmark's
    # plethystic_mn range with m = 0 added: the same dicts, keys in order
    cases = 0
    for nu in partitions_up_to(8):
        for r in range(1, 6):
            for m in range(6):
                if nu.size() + r * m > 24:
                    continue
                got = symfunc._terms(nu, r, m)
                assert list(got.items()) == list(bead_terms(nu, r, m).items()), (nu, r, m)
                cases += 1
    assert cases == 1833


def test_term_count_is_read_off_the_r_quotient():
    cases = 0
    for nu in partitions_up_to(6):
        for r in range(1, 5):
            for m in range(6):
                assert quotient_term_count(nu, r, m) == len(symfunc._terms(nu, r, m)), (nu, r, m)
                cases += 1
    assert cases == 720
    nu = make_partition([3, 1])
    assert quotient_term_count(nu, 6, 9) == len(symfunc._terms(nu, 6, 9)) == 2002


@pytest.mark.parametrize("nu", [(2, 1), [2, 1]], ids=["tuple", "list"])
@pytest.mark.parametrize(
    "call",
    [
        lambda nu: plethystic_mn(nu, 2, 2),
        lambda nu: mn_multiply(nu, 2),
        lambda nu: plethystic_mn_multi(nu, 2, [1, 1]),
        lambda nu: power_product_pleth(nu, [1, 2], 1),
        lambda nu: oracle_plethystic_mn(nu, 2, 2),
    ],
    ids=["plethystic_mn", "mn_multiply", "plethystic_mn_multi", "power_product_pleth", "oracle"],
)
def test_a_nu_that_is_not_a_partition_is_rejected_by_name(call, nu):
    message = r"^nu must be a Partition, got .*; build it with make_partition$"
    with pytest.raises(InvalidPartition, match=message):
        call(nu)


@pytest.mark.parametrize("shape", [(1, 3), [2, 1], (2, 1)], ids=["unsorted", "list", "tuple"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("shape", lambda p: abacus_of(p, 2)),
        ("shape", lambda p: border_strips(p, 1)),
        ("lam", lambda p: order_independent_sign(p, make_partition([]), 1)),
        ("nu", lambda p: order_independent_sign(make_partition([3]), p, 1)),
        ("inner", lambda p: partitions_of_size_containing(4, p)),
    ],
    ids=["abacus_of", "border_strips", "order_independent_sign-lam",
         "order_independent_sign-nu", "partitions_of_size_containing"],
)
def test_a_shape_that_is_not_a_partition_is_rejected_by_name(name, call, shape):
    message = rf"^{name} must be a Partition, got .*; build it with make_partition$"
    with pytest.raises(InvalidPartition, match=message):
        call(shape)


def test_expansion_constructor_checks_every_term():
    two = make_partition([2])
    for coeff in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=r"^coeff must be an integer, got "):
            SchurExpansion(2, {two: coeff})
    with pytest.raises(InvalidPartition, match=r"^shape must be a Partition, got \(2,\); "):
        SchurExpansion(2, {(2,): 1})

    class Two:
        def __index__(self):
            return 2

    # a coefficient is stored as the int it stands for, and 0 is dropped
    e = SchurExpansion(2, {two: Two(), make_partition([1, 1]): False})
    assert e.terms == {two: 2} and type(e.terms[two]) is int


def test_plethystic_mn_signs_equal_greedy_kernel():
    # the greedy kernel, walked down from each term, must find a chain
    # to nu whose sign is the coefficient plethystic_mn read off the
    # chain it built upward
    cases = terms = 0
    for nu in partitions_up_to(7):
        for r in range(1, 7):
            nu_beads = _beads_of(nu.parts, len(nu) + r)
            for m in range(1, 7):
                if nu.size() + r * m > 22:
                    continue
                for lam, c in plethystic_mn(nu, r, m).items():
                    sign = _chain_sign(_beads_of(lam.parts, len(nu_beads)), nu_beads, r)
                    assert c == sign, (lam, nu, r, m)
                    terms += 1
                cases += 1
    assert (cases, terms) == (1187, 17494)
    assert len(plethystic_mn(make_partition([]), 10, 10).terms) == 92378


def test_plethystic_mn_support_equals_runner_raise_candidates():
    # acceptance 11's range against the runner-by-runner generation
    cases = 0
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            for m in (1, 2, 3, 4, 5):
                if r * m + nu.size() > 18:
                    continue
                want = runner_raise_candidates(nu, r, m)
                assert set(plethystic_mn(nu, r, m).terms) == want, (nu, r, m)
                cases += 1
    assert cases == 521


def test_plethystic_mn_long_chains_and_long_columns():
    # a chain of 5000 one-box strips and a column of 1200 beads, both past
    # the interpreter's recursion limit
    assert expansion_dict(plethystic_mn(make_partition([]), 1, 5000)) == {(5000,): 1}
    column = make_partition([1] * 1200)
    assert expansion_dict(plethystic_mn(column, 1, 1)) == {
        (2,) + (1,) * 1199: 1,
        (1,) * 1201: 1,
    }


def test_plethystic_mn_multi_single_factor():
    for nu in (make_partition([]), make_partition([2, 1])):
        for r, m in ((1, 2), (2, 2), (3, 1)):
            assert plethystic_mn_multi(nu, r, [m]) == plethystic_mn(nu, r, m)


def test_plethystic_mn_multi_examples():
    assert expansion_dict(plethystic_mn_multi(make_partition([]), 1, [1, 1])) == {
        (2,): 1,
        (1, 1): 1,
    }
    # square of the power sum p_2
    assert expansion_dict(plethystic_mn_multi(make_partition([]), 2, [1, 1])) == {
        (4,): 1,
        (3, 1): -1,
        (2, 2): 2,
        (2, 1, 1): -1,
        (1, 1, 1, 1): 1,
    }


def test_plethystic_mn_multi_factor_order_is_irrelevant():
    nu = make_partition([1])
    assert plethystic_mn_multi(nu, 2, [2, 1]) == plethystic_mn_multi(nu, 2, [1, 2])


def test_power_product_pleth_examples():
    nu = make_partition([2])
    assert power_product_pleth(nu, [3], 2) == plethystic_mn(nu, 3, 2)
    assert power_product_pleth(nu, [1, 1], 1) == plethystic_mn_multi(nu, 1, [1, 1])
    assert expansion_dict(power_product_pleth(make_partition([]), [2, 1], 2)) == {
        (6,): 1,
        (4, 2): 1,
        (4, 1, 1): -1,
        (3, 3): -1,
        (2, 2, 2): 1,
    }
    assert power_product_pleth(make_partition([]), [2, 1], 2) == power_product_pleth(
        make_partition([]), [1, 2], 2
    )


def test_no_term_is_longer_than_nu_plus_the_sum_of_the_rs():
    # each p_r o h_m is a signed sum of s_mu with len(mu) <= r, and s_nu * s_mu
    # has no term longer than len(nu) + len(mu): the bound that _terms'
    # padding rows and the determinant oracle's row count rest on. Single
    # factors on acceptance 11's range, the folds on acceptance 4's nu.
    # Every one of these expansions has a term of exactly that length
    cases = []
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            for m in (1, 2, 3, 4, 5):
                if r * m + nu.size() <= 18:
                    cases.append((nu, r, plethystic_mn(nu, r, m)))
    for nu in partitions_up_to(4):
        for ms in ([1, 1], [2, 1], [2, 2, 1]):
            for r in (1, 2, 3):
                cases.append((nu, r * len(ms), plethystic_mn_multi(nu, r, ms)))
        for rs in ([1, 2], [2, 3], [1, 1, 2]):
            for m in (1, 2):
                cases.append((nu, sum(rs), power_product_pleth(nu, rs, m)))
    assert len(cases) == 521 + 180
    for nu, rows, expansion in cases:
        assert max(map(len, expansion.terms)) == len(nu) + rows, (nu, rows, expansion)


def test_recursive_consistency():
    # m * (expansion for h_m) equals the sum over ell of the expansion for
    # h_{m-ell} multiplied by the power sum p_{r*ell}
    for nu in partitions_up_to(3):
        for r in (1, 2):
            for m in (2, 3):
                if r * m + nu.size() > 10:
                    continue
                lhs = {
                    p: m * c for p, c in plethystic_mn(nu, r, m).items()
                }
                rhs: dict = {}
                for ell in range(1, m + 1):
                    if m - ell == 0:
                        base = SchurExpansion(nu.size(), {nu: 1})
                    else:
                        base = plethystic_mn(nu, r, m - ell)
                    for kappa, c in base.items():
                        for p, sign in mn_multiply(kappa, r * ell).items():
                            rhs[p] = rhs.get(p, 0) + c * sign
                rhs = {p: c for p, c in rhs.items() if c}
                assert lhs == rhs, (nu, r, m)


def test_fold_checks_every_factor_before_expanding(monkeypatch):
    nu = make_partition([1])
    expanded = []

    terms = symfunc._terms

    def recording(p, r, m):
        expanded.append((p, r, m))
        return terms(p, r, m)

    monkeypatch.setattr(symfunc, "_terms", recording)
    with pytest.raises(ValueError, match="^r must be >= 1"):
        plethystic_mn_multi(nu, 0, [])
    with pytest.raises(ValueError, match="^m must be >= 0"):
        power_product_pleth(nu, [], -3)
    with pytest.raises(ValueError, match="^r must be >= 1"):
        power_product_pleth(nu, [1, 0], 2)
    with pytest.raises(ValueError, match="^m must be >= 0"):
        plethystic_mn_multi(nu, 2, [1, -1])
    assert expanded == []
    assert power_product_pleth(nu, [1], 2).degree == 3
    assert expanded == [(nu, 1, 2)]


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda nu: plethystic_mn(nu, 2, 1.0), "m"),
        (lambda nu: plethystic_mn(nu, "2", 1), "r"),
        (lambda nu: mn_multiply(nu, 2.0), "r"),
        (lambda nu: mn_multiply(nu, "2"), "r"),
        (lambda nu: oracle_plethystic_mn(nu, 2, 1.0), "m"),
        (lambda nu: oracle_plethystic_mn(nu, "2", 1), "r"),
        (lambda nu: plethystic_mn_multi(nu, 2.0, [1]), "r"),
        (lambda nu: plethystic_mn_multi(nu, 2, [1, "1"]), "m"),
        (lambda nu: power_product_pleth(nu, [2, 1.5], 1), "r"),
        (lambda nu: power_product_pleth(nu, [2], "1"), "m"),
    ],
)
def test_non_integer_r_or_m_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(make_partition([2, 1]))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda nu: plethystic_mn_multi(nu, 2, 3), "ms"),
        (lambda nu: plethystic_mn_multi(nu, 2, None), "ms"),
        (lambda nu: power_product_pleth(nu, 3, 2), "rs"),
        (lambda nu: power_product_pleth(nu, None, 2), "rs"),
    ],
    ids=["ms-int", "ms-None", "rs-int", "rs-None"],
)
def test_a_factor_list_that_cannot_be_iterated_is_rejected_by_name(monkeypatch, call, name):
    def expand(*args):
        raise AssertionError("expanded before the factor list was checked")

    monkeypatch.setattr(symfunc, "_terms", expand)
    with pytest.raises(ValueError, match=f"^{name} must be a list of integers, got "):
        call(make_partition([2, 1]))


def test_plethystic_mn_padding_matches_oracle_at_large_m():
    # m well above r, where the one padding bead of each runner must rise
    # through many runner steps
    cases = [((), 1, 20), ((), 2, 10), ((1,), 3, 7), ((2, 1), 2, 8), ((3, 1), 1, 16)]
    cases += [((), 3, 8), ((2, 2), 2, 9)]
    for nu, r, m in cases:
        nu = make_partition(nu)
        assert plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m), (nu, r, m)


def test_plethystic_mn_terms_have_at_most_one_new_row_per_runner():
    cases = 0
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            for m in (1, 2, 3, 4, 5):
                if r * m + nu.size() > 18:
                    continue
                for lam in plethystic_mn(nu, r, m).terms:
                    assert len(lam) <= len(nu) + r, (lam, nu, r, m)
                cases += 1
    assert cases == 521


def left_to_right_fold(nu, factors):
    acc = {nu: 1}
    for r, m in factors:
        out = {}
        for p, c in acc.items():
            for q, d in plethystic_mn(p, r, m).items():
                out[q] = out.get(q, 0) + c * d
        acc = out
    return {p.parts: c for p, c in acc.items() if c}


def test_fold_result_does_not_depend_on_factor_order():
    folds = 0
    for nu in partitions_up_to(3):
        for ms in ((2, 1, 1), (3, 1), (1, 2)):
            for r in (1, 2, 3):
                want = left_to_right_fold(nu, [(r, m) for m in ms])
                for order in set(itertools.permutations(ms)):
                    assert expansion_dict(plethystic_mn_multi(nu, r, list(order))) == want
                    folds += 1
        for rs in ((1, 2, 3), (3, 1)):
            for m in (1, 2):
                want = left_to_right_fold(nu, [(r, m) for r in rs])
                for order in set(itertools.permutations(rs)):
                    assert expansion_dict(power_product_pleth(nu, list(order), m)) == want
                    folds += 1
    assert folds == 7 * (3 * (3 + 2 + 2) + 2 * (6 + 2))


def ordered(expansion):
    return expansion.degree, list(expansion.terms.items())


def test_folds_match_the_public_fold_in_order():
    # both folds against one public plethystic_mn call per term with a
    # checked expansion per factor: the same terms, coefficients and
    # insertion order, with m = 0 factors and products that cancel
    multi_ms = ([0], [1, 1], [2, 1], [1, 2], [0, 2], [2, 0, 1], [2, 2], [3, 1, 1], [1, 1, 1, 1])
    power_rs = ([1, 2], [2, 1], [3, 1], [1, 1, 2], [2, 2], [1, 3, 2], [4, 1])
    folds = 0
    for nu in partitions_up_to(5):
        for r in (1, 2, 3, 4):
            for ms in multi_ms:
                if nu.size() + r * sum(ms) <= 18:
                    want = ordered(public_fold(nu, [(r, m) for m in ms]))
                    assert ordered(plethystic_mn_multi(nu, r, ms)) == want, (nu, r, ms)
                    folds += 1
        for rs in power_rs:
            for m in (0, 1, 2, 3):
                if nu.size() + sum(rs) * m <= 18:
                    want = ordered(public_fold(nu, [(r, m) for r in rs]))
                    assert ordered(power_product_pleth(nu, rs, m)) == want, (nu, rs, m)
                    folds += 1
    assert folds == 1125
    # p_2 * p_1 = (s_2 - s_11) * s_1: the two s_21 terms cancel
    assert expansion_dict(power_product_pleth(make_partition([]), [2, 1], 1)) == {
        (3,): 1,
        (1, 1, 1): -1,
    }
    big = plethystic_mn_multi(make_partition([]), 4, [3, 3, 3])
    assert ordered(big) == ordered(public_fold(make_partition([]), [(4, 3)] * 3))
    assert len(big.terms) == 3556
    dense = plethystic_mn_multi(make_partition([]), 2, [2] * 6)
    assert ordered(dense) == ordered(public_fold(make_partition([]), [(2, 2)] * 6))
    assert max(map(abs, dense.terms.values())) == 3696


def test_plethystic_mn_terms_are_partitions_of_the_degree():
    # each last step cuts the moved bead list at lam's row count and maps
    # it to parts with no decode: no term may carry a zero part, a part
    # out of order or a wrong size
    cases = terms = 0
    for nu in partitions_up_to(6):
        for r in (1, 2, 3, 4):
            for m in range(0, 19):
                if nu.size() + r * m > 18:
                    break
                e = plethystic_mn(nu, r, m)
                for p in e.terms:
                    assert type(p) is Partition, (p, nu, r, m)
                    assert p == make_partition(list(p)), (p, nu, r, m)
                    assert p.size() == e.degree, (p, nu, r, m)
                    terms += 1
                cases += 1
    assert (cases, terms) == (944, 7049)
