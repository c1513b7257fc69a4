"""Ground truth for the combinatorial rule, independent of the abacus.

oracle_plethystic_mn reads each Schur coefficient of s_nu * (p_r o h_m)
as one determinant (the bialternant formula), in Python ints, so it is
exact at any degree and builds no polynomial.

The dense polynomial ring lives in `ring`, which imports numpy; its
public names stay readable here and load it on first access.
"""

from __future__ import annotations

from .partitions import Partition, SchurExpansion, partitions_of_size

# the public names of `ring`, forwarded by this module and the package root
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


def _bialternant_matrix(lam: Partition, nu: Partition, r: int) -> list[list[int]] | None:
    """The 0/1 matrix whose determinant is the coefficient of s_lam, or None if singular.

    Entry (i, j) is 1 when (lam_i - i) - (nu_j - j) is a nonnegative
    multiple of r, for i, j up to max(len(lam), len(nu)). Nonzero entries
    only join a row and a column of one residue class mod r, so when the
    classes hold different numbers of rows and columns some block is not
    square and the matrix is singular: None says so without building it.
    """
    rows = max(len(lam), len(nu))
    lam_d = [p - i for i, p in enumerate(lam.parts + (0,) * (rows - len(lam)))]
    nu_d = [p - j for j, p in enumerate(nu.parts + (0,) * (rows - len(nu)))]
    if sorted(d % r for d in lam_d) != sorted(e % r for e in nu_d):
        return None
    return [[int(d >= e and (d - e) % r == 0) for e in nu_d] for d in lam_d]


def oracle_plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Ground truth for plethystic_mn, one determinant per shape.

    By the bialternant formula a_delta * s_nu = a_{nu + delta}, the
    coefficient of s_lam in s_nu * h_m(x^r) is the coefficient of
    x^{lam + delta} in a_{nu + delta} * h_m(x^r): the determinant of
    _bialternant_matrix(lam, nu, r). This is the alternating sum whose
    cancellations the combinatorial rule explains. It is exact in Python
    ints at every degree.
    """
    if r < 1:
        raise ValueError(f"power {r} must be >= 1")
    if m < 0:
        raise ValueError(f"degree {m} must be >= 0")
    degree = r * m + nu.size()
    terms = {}
    for lam in partitions_of_size(degree):
        matrix = _bialternant_matrix(lam, nu, r)
        if matrix is not None:
            terms[lam] = _det(matrix)
    return SchurExpansion(degree, terms)  # drops the zero determinants
