"""Ground truth for the combinatorial rule, independent of the abacus.

oracle_plethystic_mn reads each Schur coefficient of s_nu * (p_r o h_m)
as one determinant (the bialternant formula), in Python ints, so it is
exact at any degree and builds no polynomial. The matrix has
len(nu) + r rows (len(nu) when m = 0), as no shape in s_nu * (p_r o h_m)
is longer, and is block diagonal by residue mod r: each block's
nonsingular row sets are listed once, with their determinants, and
every shape is one choice of row set per block.

The dense polynomial ring lives in `ring`, which imports numpy. This
module forwards its public names, loading it on first access; the
package root does not.
"""

from __future__ import annotations

from .partitions import Partition, SchurExpansion, _integer, _partition

# the public names of `ring`, forwarded by this module
RING_NAMES = (
    "MultivariatePolynomial",
    "NotSymmetric",
    "TooFewVariables",
    "newton_check",
    "pleth_pr",
    "poly_h",
    "poly_p",
    "poly_schur",
    "schur_decompose",
)


def __getattr__(name: str):
    if name in RING_NAMES:
        from . import ring

        return getattr(ring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _det(a: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination, in place.

    Every division by the previous pivot is exact (Sylvester's identity).
    A zero pivot is swapped with a lower row that is nonzero in its
    column, which flips the sign; without one the determinant vanishes.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot, row = a[k][k], a[k]
        for below in a[k + 1 :]:
            f = below[k]
            for j in range(k + 1, n):
                below[j] = (below[j] * pivot - f * row[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def _raises(block: list[int], e: list[int], r: int, m: int) -> list[list[tuple]]:
    """The row sets of one residue block with a nonzero determinant, by steps of r.

    block lists the block's columns j in order, and e[j] = nu_j - j. A
    row set gives each column's row a value e[j] + s*r with s >= 0, the
    values strictly descending as the columns' are: these are the row
    sets that dominate the columns entrywise, as every other one is
    singular (a row below its column meets the columns from it leftwards
    in zeros, as do all rows under it). Entry k of the result lists, as
    (moves, det), the row sets whose steps s add up to k (k = 1..m), with
    the (j, value) of each row that moved in block order.

    det is taken by _det over the moved rows only, [value >= e[j']] for
    j' the moved columns. An unmoved row equals its column, so the rows
    under it are zero in the columns up to it, and the block splits into
    a block-triangular product whose factor at that row is 1. With r = 1
    the block is the only one and must take all m steps, so the sets of
    fewer get no determinant and entries 1..m-1 stay empty.

    The row sets are built on an explicit stack, one moved row per step,
    so no recursion deepens with the row count. A state is (the first
    row that may move next, the steps left, the bound above that row's
    value, the moves so far); the rows passed over stay unmoved.
    """
    table: list[list[tuple]] = [[] for _ in range(m + 1)]
    stack = [(0, m, e[block[0]] + r * m + 1, ())]  # the top row is bounded by the steps
    while stack:
        a, budget, cap, moves = stack.pop()
        if moves and (r > 1 or not budget):
            det = _det([[int(v >= e[j]) for j, _ in moves] for _, v in moves])
            if det:
                table[m - budget].append((moves, det))
        for b in range(a, len(block)):
            j = block[b]
            top = cap if b == a else e[block[b - 1]]
            for v in range(e[j] + r, min(top, e[j] + r * budget + 1), r):
                stack.append((b + 1, budget - (v - e[j]) // r, v, moves + ((j, v),)))
    return table


def oracle_plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Ground truth for plethystic_mn, one determinant per residue block.

    By the bialternant formula a_delta * s_nu = a_{nu + delta}, the
    coefficient of s_lam in s_nu * h_m(x^r) is the coefficient of
    x^{lam + delta} in a_{nu + delta} * h_m(x^r): the determinant of the
    0/1 matrix whose entry (i, j) is 1 when (lam_i - i) - (nu_j - j) is a
    nonnegative multiple of r. This is the alternating sum whose
    cancellations the combinatorial rule explains.

    It is taken over L = len(nu) + r rows and columns when m >= 1, and
    len(nu) when m = 0, since no lam with a nonzero coefficient is
    longer. As prod_i (1 - x_i^r t^r)^{-1} = prod_i prod_{z^r = 1}
    (1 - z x_i t)^{-1}, h_m(x^r) is h_{rm} on the alphabet {z x_i} of
    the products of x with the r roots of unity z. By the Cauchy
    identity (Macdonald I.4) that is sum_mu s_mu(roots) s_mu(x) over
    |mu| = rm, and a Schur function in r letters vanishes when
    len(mu) > r. By Littlewood-Richardson (I.9), s_nu * s_mu has no term
    longer than len(nu) + len(mu). A lam of at most L rows has the same
    determinant over more rows: the extra rows and columns add a
    unitriangular block, with zeros under the first L columns.

    A row and a column of different residues meet in a zero, so after
    sorting both into residue order the matrix is block diagonal, and
    the row set of one block can be chosen without looking at the
    others. _raises lists each block's row sets once, with their
    determinants; a lam is one row set per block whose steps add up to
    m, chosen on an explicit stack, and its coefficient is the product
    of their determinants times the signs of the two residue sorts.

    Those two signs together are the sign of sorting the rows, taken in
    the order of the columns they pair with, into descending order (the
    order of lam): the residue sorts map both orders to one. The
    unmoved rows keep their columns' descending values, so the sort's
    inversions are the rows before a moved row that it now exceeds. A
    leaf counts them, and its row count, in one loop over its moves in
    column order, so every row before a move already holds its final
    value. Exact in Python ints at every degree.
    """
    nu = _partition("nu", nu)
    r, m = _integer("r", r, 1), _integer("m", m, 0)
    e = [p - j for j, p in enumerate(nu + (0,) * (r if m else 0))]
    blocks: dict[int, list[int]] = {}
    for j, v in enumerate(e):
        blocks.setdefault(v % r, []).append(j)
    tables = [_raises(block, e, r, m) for block in blocks.values()]
    terms = {}
    stack = [(0, m, (), 1)]  # (the next block that may move, steps left, moves, product)
    while stack:
        i, budget, moves, coefficient = stack.pop()
        if budget:
            for i2 in range(i, len(tables)):
                table = tables[i2]
                for k in range(1, budget + 1):
                    for more, det in table[k]:
                        stack.append((i2 + 1, budget - k, moves + more, coefficient * det))
            continue
        # the rows past nu and past the last moved one keep e_j = -j, below
        # every row before them: parts 0, and no inversion
        rows, n, odd = e[:], len(nu), 0
        for j, v in sorted(moves):
            rows[j] = v
            odd += sum(map(v.__gt__, rows[:j]))
            if j >= n:
                n = j + 1
        del rows[n:]
        rows.sort(reverse=True)
        lam = Partition._trusted(map(int.__add__, rows, range(n)))
        terms[lam] = -coefficient if odd % 2 else coefficient
    return SchurExpansion(r * m + nu.size(), terms)
