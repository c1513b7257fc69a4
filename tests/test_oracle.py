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
from plethabacus.oracle import RING_NAMES, _det, _residue_shapes, oracle_plethystic_mn
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


def test_residue_prefilter_skips_only_singular_matrices():
    # acceptance 4's range, plus a case where most shapes are skipped
    cases = [
        (nu, r, m)
        for nu in partitions_up_to(4)
        for r in (1, 2, 3)
        for m in (1, 2, 3)
        if r * m + nu.size() <= 12
    ]
    cases.append((make_partition([4, 3, 2, 1]), 2, 10))
    skipped = 0
    for nu, r, m in cases:
        for lam in partitions_of_size(r * m + nu.size()):
            if bialternant_matrix(lam, nu, r) is not None:
                continue
            skipped += 1
            rows = max(len(lam), len(nu))
            lam_d = [lam.part(i) - i for i in range(1, rows + 1)]
            nu_d = [nu.part(j) - j for j in range(1, rows + 1)]
            full = [[int(d >= e and (d - e) % r == 0) for e in nu_d] for d in lam_d]
            assert _det(full) == 0, (lam, nu, r, m)
    assert skipped == 5668  # of 7449 shapes; 5123 of 5604 at degree 30


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


def test_residue_shapes_are_the_prefiltered_shapes_containing_nu():
    cases = acceptance_4_and_12_cases()
    assert len(cases) == 103 + 15
    shapes = uncontained = 0
    for nu, r, m in cases:
        degree = r * m + nu.size()
        want = set()
        for lam in partitions_of_size(degree):
            matrix = bialternant_matrix(lam, nu, r)
            if matrix is None:
                continue
            if lam.contains(nu):
                want.add(lam.parts)
            else:
                # rows i.. vanish in columns ..i where lam_i < nu_i
                uncontained += 1
                assert _det(matrix) == 0, (lam, nu, r, m)
        got = _residue_shapes(nu, r, degree)
        assert sorted(parts for parts, _, _ in got) == sorted(want), (nu, r, m)
        for parts, inversions, blocks in got:
            residues = [(p - i) % r for i, p in enumerate(parts)]
            assert inversions == sum(
                a > b for i, a in enumerate(residues) for b in residues[i + 1 :]
            ), (parts, nu, r)
            assert blocks == [
                [p - i for i, p in enumerate(parts) if (p - i) % r == t] for t in range(r)
            ], (parts, nu, r)
        shapes += len(got)
    # 16228 shapes; 309 more pass the residue test but do not contain nu
    assert (shapes, uncontained) == (16228, 309)


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
