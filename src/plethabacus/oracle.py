"""Ground truth for the combinatorial rule, independent of the abacus.

oracle_plethystic_mn reads each Schur coefficient of s_nu * (p_r o h_m)
as one determinant (the bialternant formula), in Python ints, so it is
exact at any degree and builds no polynomial. It visits only the shapes
whose matrix can be nonzero, and takes the determinant as a product of
residue blocks.

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


def _residue_shapes(nu: Partition, r: int, degree: int) -> list[tuple]:
    """The shapes lam of the degree whose bialternant matrix can be nonzero.

    Row i of the matrix (from 0) holds d_i = lam_i - i and column j holds
    e_j = nu_j - j; an entry is nonzero only where d_i = e_j mod r. Both
    shapes are padded with zero parts to L = degree rows, which bounds
    len(lam) and leaves the determinant unchanged (the added block is
    unitriangular). lam is built row by row, and a row is allowed only if
    its residue is still free among the columns and lam_i >= nu_i: a row
    with lam_i < nu_i makes rows i.. vanish in columns ..i, a zero block
    that makes the matrix singular.

    The rows still to come must take exactly the free residues. Their
    values d_j are distinct and at least 1 - L, so the least size they
    can add up to is that of the lowest such values on each residue, and
    a row is placed only if the degree left covers it. A branch that uses
    up the degree has thereby left its zero rows exactly the free
    residues, and it ends there.

    Returns (parts, inversions, blocks) for each shape: inversions counts
    the pairs of rows that a stable sort into residue order swaps, and
    blocks[t] lists the d_i of residue t in row order.
    """
    rows = degree
    nu_p = nu + (0,) * (rows - len(nu))
    tail = [sum(nu_p[i + 1 :]) for i in range(rows)]
    free = [0] * r
    for j, p in enumerate(nu_p):
        free[(p - j) % r] += 1
    blocks: list[list[int]] = [[] for _ in range(r)]
    # with d shifted by L - 1 to start at 0: the lowest value of each
    # residue, and the least sum of values that the free residues take
    lowest = [(t + rows - 1) % r for t in range(r)]
    least = sum(f * b + r * f * (f - 1) // 2 for f, b in zip(free, lowest))
    parts: list[int] = []
    out = []

    def place(i: int, remaining: int, cap: int, inversions: int, least: int) -> None:
        if remaining == 0:
            out.append((tuple(parts), inversions, [b[:] for b in blocks]))
            return
        # the shifted values of rows i+1.. sum to this when their parts are all 0
        zero = (rows - i - 1) * (rows - i - 2) // 2
        for p in range(min(cap, remaining - tail[i]), max(nu_p[i], 1) - 1, -1):
            t = (p - i) % r
            f = free[t]
            if not f:
                continue
            rest = least - lowest[t] - r * (f - 1)  # once row i takes residue t
            if rest - zero > remaining - p:  # the rows below cannot be this small
                continue
            # each earlier row of a larger residue is one inversion
            above = sum(map(len, blocks[t + 1 :]))
            free[t] = f - 1
            parts.append(p)
            blocks[t].append(p - i)
            place(i + 1, remaining - p, p, inversions + above, rest)
            blocks[t].pop()
            parts.pop()
            free[t] = f

    place(0, degree, degree, 0, least)
    return out


def oracle_plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Ground truth for plethystic_mn, one determinant per shape.

    By the bialternant formula a_delta * s_nu = a_{nu + delta}, the
    coefficient of s_lam in s_nu * h_m(x^r) is the coefficient of
    x^{lam + delta} in a_{nu + delta} * h_m(x^r): the determinant of the
    0/1 matrix whose entry (i, j) is 1 when (lam_i - i) - (nu_j - j) is a
    nonnegative multiple of r, for i, j <= max(len(lam), len(nu)). This
    is the alternating sum whose cancellations the combinatorial rule
    explains.

    Only the shapes of _residue_shapes are visited. A row and a column of
    different residues meet in a zero, so after sorting both into residue
    order the matrix is block diagonal: its determinant is the product of
    the blocks' determinants, each taken by _det, times the signs of the
    two sorts. It is exact in Python ints at every degree.
    """
    nu = _partition("nu", nu)
    r, m = _integer("r", r, 1), _integer("m", m, 0)
    degree = r * m + nu.size()
    # every difference (lam_i - i) - (nu_j - j) is below 2 * degree, so a
    # larger r gives the same matrix (and r > degree only when m == 0)
    r = min(r, 2 * degree + 1)
    # the column values of each residue in order, and the inversions of
    # sorting the first k columns into residue order
    columns: list[list[int]] = [[] for _ in range(r)]
    column_inversions = [0]
    for j, p in enumerate(nu + (0,) * (degree - len(nu))):
        t = (p - j) % r
        column_inversions.append(column_inversions[-1] + sum(map(len, columns[t + 1 :])))
        columns[t].append(p - j)
    terms = {}
    for parts, inversions, blocks in _residue_shapes(nu, r, degree):
        det = -1 if (inversions + column_inversions[len(parts)]) % 2 else 1
        # the first len(parts) columns hold as many of each residue as the rows
        for rows, cols in zip(blocks, columns):
            if rows:
                det *= _det([[int(d >= e) for e in cols[: len(rows)]] for d in rows])
                if not det:
                    break
        if det:
            terms[Partition._trusted(parts)] = det
    return SchurExpansion(degree, terms)
