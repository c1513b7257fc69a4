import ast
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

import plethabacus
import plethabacus.oracle
import plethabacus.ring
from oracles import (
    bialternant_matrix,
    bialternant_plethystic_mn,
    expansion_dict,
    kostka_plethystic_mn,
    ssyt_monomials,
)
from plethabacus.oracle import RING_NAMES, _det, _raises, oracle_plethystic_mn
from plethabacus.partitions import make_partition, partitions_of_size, partitions_up_to
from plethabacus.ring import (
    MultivariatePolynomial,
    NotSymmetric,
    TooFewVariables,
    newton_check,
    pleth_pr,
    poly_h,
    poly_p,
    poly_schur,
    schur_decompose,
)
from plethabacus.symfunc import SchurExpansion, mn_multiply, plethystic_mn


def small_poly(rng: random.Random) -> MultivariatePolynomial:
    """Up to 6 terms in 3 variables, exponents 0..3, coefficients -9..9; a 0 drops its term."""
    terms = [
        ((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-9, 9))
        for _ in range(rng.randint(0, 6))
    ]
    return MultivariatePolynomial.from_terms(3, {e: c for e, c in terms if c != 0})


def test_poly_h_examples():
    one = poly_h(0, 3)
    assert one.terms == {(0, 0, 0): 1}
    assert poly_h(2, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    h33 = poly_h(3, 3)
    assert len(h33.terms) == math.comb(3 + 3 - 1, 3) == 10
    assert set(h33.terms.values()) == {1}


def test_poly_p_examples():
    assert poly_p(1, 2).terms == {(1, 0): 1, (0, 1): 1}
    assert poly_p(2, 1).terms == {(2,): 1}
    assert poly_p(3, 3).terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    with pytest.raises(ValueError):
        poly_p(0, 2)


def test_poly_schur_examples():
    assert poly_schur(make_partition([1]), 2) == poly_p(1, 2)
    for m in (1, 2, 3):
        assert poly_schur(make_partition([m]), 3) == poly_h(m, 3)
    s21 = poly_schur(make_partition([2, 1]), 3)
    # 8 tableaux but 7 distinct monomials; (1,1,1) is hit twice
    assert len(s21.terms) == 7
    assert s21.coefficient((1, 1, 1)) == 2
    assert sum(s21.terms.values()) == 8


def test_poly_schur_vanishes_with_too_few_variables():
    with pytest.warns(UserWarning):
        z = poly_schur(make_partition([1, 1, 1]), 2)
    assert z.is_zero()


def test_poly_schur_matches_tableau_enumeration():
    for lam in partitions_up_to(8):
        for n in range(1, 7):
            want = ssyt_monomials(lam, n)
            if len(lam) > n:
                assert want == {}, (lam, n)
                with pytest.warns(UserWarning):
                    assert poly_schur(lam, n).is_zero()
            else:
                assert poly_schur(lam, n).terms == want, (lam, n)


def test_poly_schur_when_only_the_parts_fit_the_exponent_fields():
    # 22 variables leave 2-bit fields: exponents up to 3, below the degree 4
    for parts in ([2, 2], [3, 1], [2, 1, 1]):
        lam = make_partition(parts)
        assert poly_schur(lam, 22).terms == ssyt_monomials(lam, 22), lam
    with pytest.raises(OverflowError):
        poly_schur(make_partition([4]), 22)


def test_constructors_are_symmetric():
    for f in (poly_h(4, 3), poly_p(3, 4), poly_schur(make_partition([3, 1]), 3)):
        terms = f.terms
        for i in range(f.n - 1):
            swapped = {}
            for e, c in terms.items():
                key = list(e)
                key[i], key[i + 1] = key[i + 1], key[i]
                swapped[tuple(key)] = c
            assert swapped == terms, (f, i)


def test_pleth_pr_examples():
    assert pleth_pr(poly_h(1, 3), 2) == poly_p(2, 3)
    for ell, r in ((1, 3), (2, 2), (3, 2)):
        assert pleth_pr(poly_p(ell, 3), r) == poly_p(ell * r, 3)
    assert pleth_pr(poly_h(2, 2), 2).terms == {(4, 0): 1, (2, 2): 1, (0, 4): 1}


def test_pleth_pr_is_a_ring_endomorphism():
    f = poly_schur(make_partition([2, 1]), 4)
    g = poly_h(2, 4)
    for r in (2, 3):
        assert pleth_pr(f * g, r) == pleth_pr(f, r) * pleth_pr(g, r)
        assert pleth_pr(f + g, r) == pleth_pr(f, r) + pleth_pr(g, r)


def test_polynomial_algebra_basics():
    f, g = poly_h(2, 3), poly_p(2, 3)
    assert (f - f).is_zero()
    assert (f + g) - g == f
    assert 3 * f - f - f - f == MultivariatePolynomial.from_terms(3, {})
    assert (f * g).coefficient((4, 0, 0)) == 1
    assert f.coefficient((9, 9, 9)) == 0
    assert f.degrees() == {2} and (f * g).degrees() == {4}
    assert f.max_digit() == 2


def test_zero_polynomial_arithmetic():
    zero = MultivariatePolynomial.from_terms(3, {})
    f = poly_h(2, 3)
    assert zero.is_zero()
    assert (zero * f).is_zero() and (f * zero).is_zero()
    assert zero + f == f
    assert (2 * zero).is_zero()
    assert pleth_pr(zero, 3).is_zero()
    assert zero.degrees() == set()


def test_from_terms_validation():
    with pytest.raises(ValueError):
        MultivariatePolynomial.from_terms(2, {(1, 2, 3): 1})
    with pytest.raises(OverflowError):
        MultivariatePolynomial.from_terms(2, {(-1, 0): 1})


def test_ring_axioms_on_random_polynomials():
    # 50 triples, the first with the zero polynomial and a one-term one
    rng = random.Random(20261019)
    polys = [
        MultivariatePolynomial.from_terms(3, {}),
        MultivariatePolynomial.from_terms(3, {(3, 0, 2): -7}),
    ]
    polys += [small_poly(rng) for _ in range(148)]
    for i in range(0, len(polys), 3):
        f, g, q = polys[i : i + 3]
        assert f + g == g + f, i
        assert f * g == g * f, i
        assert (f + g) * q == f * q + g * q, i
        assert (f * g) * q == f * (g * q), i


def test_schur_decompose_examples():
    assert expansion_dict(schur_decompose(poly_h(3, 4))) == {(3,): 1}
    assert expansion_dict(schur_decompose(poly_p(2, 4))) == {(2,): 1, (1, 1): -1}
    assert expansion_dict(schur_decompose(pleth_pr(poly_h(2, 4), 2))) == {
        (4,): 1,
        (3, 1): -1,
        (2, 2): 1,
    }
    zero = MultivariatePolynomial.from_terms(3, {})
    assert schur_decompose(zero) == SchurExpansion(0, {})


def test_schur_decompose_inverts_schur_basis():
    for lam in partitions_up_to(6):
        e = schur_decompose(poly_schur(lam, 6))
        assert expansion_dict(e) == {lam.parts: 1}, lam


def test_schur_decompose_stable_in_variable_count():
    f6 = poly_schur(make_partition([2, 1]), 6) * poly_p(3, 6)
    f8 = poly_schur(make_partition([2, 1]), 8) * poly_p(3, 8)
    assert schur_decompose(f6) == schur_decompose(f8)


def test_schur_decompose_errors():
    with pytest.raises(ValueError):
        schur_decompose(poly_h(1, 3) + poly_h(2, 3))  # not homogeneous
    with pytest.raises(TooFewVariables):
        schur_decompose(poly_h(3, 2))
    with pytest.raises(NotSymmetric):
        schur_decompose(MultivariatePolynomial.from_terms(3, {(2, 1, 0): 1}))
    with pytest.raises(NotSymmetric):
        schur_decompose(
            MultivariatePolynomial.from_terms(
                3, {(1, 1, 0): 1, (1, 0, 1): 2, (0, 1, 1): 1}
            )
        )
    # fixed by the cyclic shift, not by swapping x1 and x2
    with pytest.raises(NotSymmetric):
        schur_decompose(
            MultivariatePolynomial.from_terms(3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})
        )
    # fixed by swapping x1 and x2, not by the cyclic shift
    with pytest.raises(NotSymmetric):
        schur_decompose(MultivariatePolynomial.from_terms(3, {(1, 1, 0): 1}))


def test_mn_multiply_agrees_with_polynomial_oracle():
    n = 10
    for nu in partitions_up_to(9):
        for r in range(1, 11 - nu.size()):
            want = schur_decompose(poly_schur(nu, n) * poly_p(r, n))
            assert mn_multiply(nu, r) == want, (nu, r)


def test_newton_identity_small():
    for m in range(1, 5):
        assert newton_check(m, 6)


def test_bareiss_determinant_equals_leibniz_sum():
    # zeros force row swaps; entries beyond 0/1 make the exact divisions matter
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(0, 5)
        a = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        want = 0
        for w in itertools.permutations(range(n)):
            inversions = sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))
            want += (-1) ** inversions * math.prod(a[i][w[i]] for i in range(n))
        assert _det([row[:] for row in a]) == want, a


def acceptance_4_and_12_cases():
    cases = [
        (nu, r, m)
        for nu in partitions_up_to(4)
        for r in (1, 2, 3)
        for m in (1, 2, 3)
        if r * m + nu.size() <= 12
    ]
    cases += [
        (nu, r, m)
        for nu in partitions_up_to(2)
        for r in (3, 5)
        for m in range(1, 11)
        if 24 < r * m + nu.size() <= 30
    ]
    cases += [(make_partition([3, 2, 1]), 2, 10), (make_partition([4, 3, 2, 1]), 2, 10)]
    return cases


def residue_blocks(nu, r, m):
    """The oracle's column values nu_j - j over len(nu) + r columns (len(nu) if m = 0), and the columns of each residue."""
    e = [p - j for j, p in enumerate(nu.parts + (0,) * (r if m else 0))]
    blocks = {}
    for j, v in enumerate(e):
        blocks.setdefault(v % r, []).append(j)
    return e, blocks


def block_row_sets(e, blocks, r, m):
    """{residue: {the block's full row values: (steps, det)}} for the raises _raises keeps."""
    kept = {}
    for t, block in blocks.items():
        kept[t] = {}
        for k, raises in enumerate(_raises(block, e, r, m)):
            for moves, det in raises:
                moved = dict(moves)
                kept[t][tuple(moved.get(j, e[j]) for j in block)] = (k, det)
    return kept


def block_det(rows, cols):
    return _det([[int(d >= c) for c in cols] for d in rows])


def test_residue_prefilter_skips_only_singular_matrices():
    # every shape of the degree: the oracle builds exactly the nonsingular
    # ones, with the full determinant as coefficient, each shape longer
    # than its len(nu) + r rows has a singular full matrix (the row bound),
    # and each row set of a block that it skips (not dominating its
    # columns) or drops (zero determinant) makes the full matrix singular
    cases = acceptance_4_and_12_cases()
    assert len(cases) == 103 + 15
    counts = dict.fromkeys(
        ["built", "residues", "longer", "singular", "skipped", "beyond", "dropped"], 0
    )
    for nu, r, m in cases:
        degree = r * m + nu.size()
        got = oracle_plethystic_mn(nu, r, m).terms
        e, blocks = residue_blocks(nu, r, m)
        kept = block_row_sets(e, blocks, r, m)
        built = 0
        for lam in partitions_of_size(degree):
            matrix = bialternant_matrix(lam, nu, r)
            full = 0 if matrix is None else _det(matrix)
            if len(lam) > len(e):
                counts["longer"] += 1
                assert full == 0 and lam not in got, (lam, nu, r, m)
                continue
            d = [p - i for i, p in enumerate(lam.parts + (0,) * (len(e) - len(lam)))]
            row_sets = {t: [x for x in d if x % r == t] for t in blocks}
            if any(len(row_sets[t]) != len(block) for t, block in blocks.items()):
                counts["residues"] += 1
                assert matrix is None and lam not in got, (lam, nu, r, m)
                continue
            reasons = set()
            for t, block in blocks.items():
                rows, cols = tuple(row_sets[t]), [e[j] for j in block]
                if list(rows) == cols:
                    continue
                if rows in kept[t]:
                    steps = (sum(rows) - sum(cols)) // r
                    assert kept[t][rows] == (steps, block_det(rows, cols)), (lam, nu, r, t)
                elif not all(map(int.__ge__, rows, cols)):
                    reasons.add("skipped")
                elif sum(rows) - sum(cols) > r * m:
                    reasons.add("beyond")
                else:
                    reasons.add("dropped")
                    assert block_det(rows, cols) == 0, (lam, nu, r, t)
            # the blocks' steps add up to m, so one beyond it leaves another short
            assert "beyond" not in reasons or "skipped" in reasons, (lam, nu, r, m)
            for reason in reasons:
                counts[reason] += 1
            if reasons:
                counts["singular"] += 1
                assert full == 0 and lam not in got, (lam, nu, r, m)
            else:
                built += 1
                assert full != 0 and got[lam] == full, (lam, nu, r, m)
        assert built == len(got), (nu, r, m)
        counts["built"] += built
    # 54195 shapes: 1651 built, 5777 with unequal residue counts, 45471
    # longer than len(nu) + r rows, 1296 holding a skipped or dropped
    # block (some both)
    assert counts == {
        "built": 1651,
        "residues": 5777,
        "longer": 45471,
        "singular": 1296,
        "skipped": 281,
        "beyond": 144,
        "dropped": 1037,
    }


def test_block_raises_are_the_nonsingular_dominating_row_sets():
    # each kept raise moves rows of its block by positive multiples of r,
    # keeps them strictly descending, adds k steps in all, and its
    # determinant over the moved rows is that of the whole block, nonzero;
    # with r = 1 the one block takes all m steps, so no raise of fewer is kept
    cases = acceptance_4_and_12_cases()
    raises = 0
    for nu, r, m in cases:
        e, blocks = residue_blocks(nu, r, m)
        for t, block in blocks.items():
            cols = [e[j] for j in block]
            for k, entries in enumerate(_raises(block, e, r, m)):
                assert (k and (r > 1 or k == m)) or not entries, (nu, r, m, k)
                for moves, det in entries:
                    moved = dict(moves)
                    assert len(moved) == len(moves) and set(moved) <= set(block)
                    rows = [moved.get(j, e[j]) for j in block]
                    assert all(map(int.__gt__, rows, rows[1:])), (nu, r, t, moves)
                    assert all(v > e[j] and (v - e[j]) % r == 0 for j, v in moves)
                    assert sum(map(int.__sub__, rows, cols)) == k * r, (nu, r, t, moves)
                    assert det != 0 and det == block_det(rows, cols), (nu, r, t, moves)
                    raises += 1
    assert raises == 885


@pytest.mark.parametrize(
    "nu, r, m",
    [
        ((), 1, 0),
        ((2, 1), 3, 0),  # m = 0: s_nu itself
        ((3, 1, 1), 1, 0),
        ((), 2, 3),  # nu = ()
        ((), 3, 3),
        ((), 7, 1),
        ((), 9, 1),  # r = degree
        ((2,), 3, 0),  # r > degree, only with m = 0
        ((1, 1), 10**6, 0),
        ((), 1, 6),  # r = 1: one block, every shape containing nu
        ((2, 1), 1, 4),
        ((3, 3), 1, 3),
        ((1,), 1, 12),  # small r, larger m: r*m rows past nu, only r of them used
        ((2, 1), 1, 10),
        ((1,), 2, 6),
    ],
)
def test_oracle_equals_full_matrix_reference_on_edge_cases(nu, r, m):
    nu = make_partition(nu)
    got = oracle_plethystic_mn(nu, r, m)
    assert got == bialternant_plethystic_mn(nu, r, m)
    if m == 0:
        assert got == SchurExpansion(nu.size(), {nu: 1})


def test_oracle_plethystic_mn_examples():
    assert expansion_dict(oracle_plethystic_mn(make_partition([]), 1, 1)) == {
        (1,): 1
    }
    assert expansion_dict(oracle_plethystic_mn(make_partition([]), 2, 2)) == {
        (4,): 1,
        (3, 1): -1,
        (2, 2): 1,
    }
    assert expansion_dict(oracle_plethystic_mn(make_partition([1]), 2, 1)) == {
        (3,): 1,
        (1, 1, 1): -1,
    }
    with pytest.raises(ValueError):
        oracle_plethystic_mn(make_partition([1]), 0, 1)
    with pytest.raises(ValueError):
        oracle_plethystic_mn(make_partition([1]), 2, -1)


def test_oracle_plethystic_mn_equals_dense_product():
    cases = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                d = nu.size() + r * m
                if d > 10:
                    continue
                want = schur_decompose(poly_schur(nu, d) * pleth_pr(poly_h(m, d), r))
                assert oracle_plethystic_mn(nu, r, m) == want, (nu, r, m)
                cases += 1
    assert cases == 98


def test_oracle_equals_kostka_route_to_degree_12():
    # acceptance 4's cases; the determinants read no Kostka number
    cases = 0
    for nu in partitions_up_to(4):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                if r * m + nu.size() > 12:
                    continue
                want = kostka_plethystic_mn(nu, r, m)
                cached = plethabacus.ring._kostka.cache_info().currsize
                assert oracle_plethystic_mn(nu, r, m) == want, (nu, r, m)
                assert plethabacus.ring._kostka.cache_info().currsize == cached
                cases += 1
    assert cases == 103


def test_multiplication_overflow_is_detected():
    f = poly_h(1, 2)
    big = f
    for _ in range(39):
        big = big * f  # (x1 + x2)**40, coefficient sum 2**40
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (1 << 62) * f


def test_pleth_pr_overflow_is_detected():
    with pytest.raises(OverflowError):
        pleth_pr(poly_p(40, 2), 1 << 26)


@pytest.mark.parametrize(
    "nu, r, m",
    [((1,), 3, 4), ((2,), 3, 4), ((), 7, 2), ((1,), 7, 2), ((), 5, 3), ((2, 1), 4, 3)],
)
def test_oracle_agrees_with_plethystic_mn_at_degrees_13_to_15(nu, r, m):
    nu = make_partition(nu)
    assert 13 <= nu.size() + r * m <= 15
    want = plethystic_mn(nu, r, m)
    assert oracle_plethystic_mn(nu, r, m) == want
    assert kostka_plethystic_mn(nu, r, m) == want


@pytest.mark.parametrize("nu, r, m", [((), 4, 10), ((3, 1), 6, 9), ((), 6, 10)])
def test_oracle_agrees_with_plethystic_mn_at_degrees_40_to_60(nu, r, m):
    # 286, 2002 and 3003 terms; about 1.4-2.5, 11-20 and 16-30 ms on a
    # 2-CPU host
    nu = make_partition(nu)
    assert 40 <= nu.size() + r * m <= 60
    assert oracle_plethystic_mn(nu, r, m) == plethystic_mn(nu, r, m)


@pytest.mark.parametrize("nu, r, m", [((), 1, 200), ((2, 1), 1, 20), ((), 2, 14), ((3, 2), 2, 12)])
def test_oracle_agrees_with_plethystic_mn_at_small_r_and_large_m(nu, r, m):
    # 1, 4, 15 and 25 terms, each in about 1 ms or less on a 2-CPU host;
    # over len(nu) + r*m rows the row sets of determinant 0 would grow
    # with the partitions of m
    nu = make_partition(nu)
    assert oracle_plethystic_mn(nu, r, m) == plethystic_mn(nu, r, m)


@pytest.mark.parametrize("nu, r, m", [((1,) * 1200, 2, 1), ((), 1000, 1)])
def test_oracle_depth_does_not_grow_with_the_rows(nu, r, m):
    # 1202 and 1000 rows, past the default recursion limit; 3 terms in
    # about 2 ms, and 1000 hooks in about 0.1 s
    nu = make_partition(nu)
    got = oracle_plethystic_mn(nu, r, m)
    assert got == plethystic_mn(nu, r, m)
    assert len(got.terms) == (3 if nu else 1000)


def imported_names(nodes) -> set[str]:
    """Modules and module.name pairs that the import statements among nodes name."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return imported


def source_tree(path) -> ast.Module:
    return ast.parse(Path(path).read_text())


def test_oracle_imports_no_combinatorial_module():
    forbidden = {"abacus", "strips", "symfunc"}
    for module in (plethabacus.oracle, plethabacus.ring):
        imported = imported_names(ast.walk(source_tree(module.__file__)))
        assert [name for name in imported if forbidden & set(name.split("."))] == [], module


def test_numpy_is_imported_by_ring_only():
    # module-level imports outside the standard library; the ring names
    # that oracle forwards are imported inside its __getattr__
    for module, allowed in (
        (plethabacus.oracle, {"partitions"}),
        (plethabacus.ring, {"partitions", "numpy"}),
    ):
        top = {name.split(".")[0] for name in imported_names(source_tree(module.__file__).body)}
        assert top - set(sys.stdlib_module_names) == allowed, module
    package = Path(plethabacus.__file__).parent
    for path in sorted(package.glob("*.py")):
        imported = imported_names(ast.walk(source_tree(path)))
        assert ("numpy" in imported) == (path.name == "ring.py"), path.name


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them; `from __future__`
    # binds no name
    package = Path(plethabacus.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = source_tree(path)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(bound - used) == [], path.name


def test_ring_names_are_forwarded_to_the_ring_objects():
    ring = plethabacus.ring
    public = {
        name
        for name, value in vars(ring).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == ring.__name__
    }
    assert set(RING_NAMES) == public
    for name in RING_NAMES:
        assert getattr(plethabacus.oracle, name) is getattr(ring, name), name
        # the package root forwards none of them
        assert not hasattr(plethabacus, name), name
    with pytest.raises(ImportError):
        from plethabacus import schur_decompose  # noqa: F401
    with pytest.raises(AttributeError):
        plethabacus.oracle._kostka  # private names stay in ring
    with pytest.raises(AttributeError):
        plethabacus.no_such_name
