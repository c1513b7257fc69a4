"""The dense exact polynomial ring: a reference, loaded only on demand.

Polynomials in n variables are stored as packed exponent codes: each
exponent sits in a fixed bit field of one int64 with variable 1 in the
most significant field, so numeric order on codes equals lexicographic
order on exponent vectors. Arithmetic is exact int64; any operation
whose intermediates could exceed 63 bits raises OverflowError instead of
wrapping. A symmetric homogeneous polynomial is fixed by its
coefficients at partition exponents, and one unitriangular solve against
Kostka numbers turns these into Schur coefficients.

This is the only module of the package that imports numpy. Neither the
combinatorial rule nor the determinant oracle uses it, and the package
root does not import it; `oracle` loads it on first access to one of
its public names, which are otherwise read from here.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .partitions import Partition, SchurExpansion, partitions_of_size

_CHUNK = 1 << 24
_COEFF_LIMIT = 1 << 62


class NotSymmetric(ValueError):
    """The polynomial is not invariant under variable permutations."""


class TooFewVariables(ValueError):
    """Fewer variables than the degree; Schur decomposition may lose terms."""


def _bits_for(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one variable")
    return min(63 // n, 62)


def _combine(codes: np.ndarray, coeffs: np.ndarray):
    """Sum coefficients of equal codes; returns sorted codes, zeros dropped."""
    if len(codes) == 0:
        return codes, coeffs
    order = np.argsort(codes)
    codes = codes[order]
    coeffs = coeffs[order]
    starts = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
    sums = np.add.reduceat(coeffs, starts)
    uniq = codes[starts]
    keep = sums != 0
    return uniq[keep], sums[keep]


class MultivariatePolynomial:
    """Exact dense polynomial; codes sorted ascending, no zero coefficients."""

    __slots__ = ("n", "bits", "codes", "coeffs", "_max_digit")

    def __init__(self, n: int, codes: np.ndarray, coeffs: np.ndarray):
        self.n = n
        self.bits = _bits_for(n)
        self.codes = codes
        self.coeffs = coeffs
        self._max_digit = None

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "MultivariatePolynomial":
        bits = _bits_for(n)
        codes, coeffs = [], []
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not have length {n}")
            if any(e < 0 or e >= 1 << bits for e in exps):
                raise OverflowError(f"exponent out of range in {exps}")
            codes.append(_pack(exps, n, bits))
            coeffs.append(c)
        return cls(n, *_combine(np.array(codes, dtype=np.int64), np.array(coeffs, dtype=np.int64)))

    @property
    def terms(self) -> dict:
        """Exponent-vector view; intended for small polynomials and tests."""
        return {
            _unpack(int(code), self.n, self.bits): int(c)
            for code, c in zip(self.codes, self.coeffs)
        }

    def is_zero(self) -> bool:
        return len(self.codes) == 0

    def coefficient(self, exps) -> int:
        code = _pack(exps, self.n, self.bits)
        i = np.searchsorted(self.codes, code)
        if i < len(self.codes) and self.codes[i] == code:
            return int(self.coeffs[i])
        return 0

    def max_digit(self) -> int:
        if self._max_digit is None:
            m = 0
            mask = (1 << self.bits) - 1
            for i in range(self.n):
                sh = self.bits * (self.n - 1 - i)
                if len(self.codes):
                    m = max(m, int(((self.codes >> sh) & mask).max()))
            self._max_digit = m
        return self._max_digit

    def degrees(self) -> set:
        mask = (1 << self.bits) - 1
        total = np.zeros(len(self.codes), dtype=np.int64)
        for i in range(self.n):
            total += (self.codes >> (self.bits * (self.n - 1 - i))) & mask
        return set(int(d) for d in np.unique(total))

    def _same_space(self, other):
        if not isinstance(other, MultivariatePolynomial):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other) -> "MultivariatePolynomial":
        self._same_space(other)
        return MultivariatePolynomial(
            self.n,
            *_combine(
                np.concatenate([self.codes, other.codes]),
                np.concatenate([self.coeffs, other.coeffs]),
            ),
        )

    def __sub__(self, other) -> "MultivariatePolynomial":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "MultivariatePolynomial":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return MultivariatePolynomial(self.n, _EMPTY_CODES, _EMPTY_COEFFS)
        if abs(k) * int(np.abs(self.coeffs).sum(initial=0)) >= _COEFF_LIMIT:
            raise OverflowError("scalar multiple exceeds 63-bit headroom")
        return MultivariatePolynomial(self.n, self.codes, self.coeffs * k)

    def __mul__(self, other) -> "MultivariatePolynomial":
        if isinstance(other, int):
            return self.__rmul__(other)
        self._same_space(other)
        if self.is_zero() or other.is_zero():
            return MultivariatePolynomial(self.n, _EMPTY_CODES, _EMPTY_COEFFS)
        if self.max_digit() + other.max_digit() >= 1 << self.bits:
            raise OverflowError("product exponents exceed the packed field width")
        s1 = int(np.abs(self.coeffs).sum())
        s2 = int(np.abs(other.coeffs).sum())
        if s1 * s2 >= _COEFF_LIMIT:
            raise OverflowError("product coefficients exceed 63-bit headroom")
        small, big = sorted([self, other], key=lambda p: len(p.codes))
        rows = max(1, _CHUNK // len(small.codes))
        pieces = []
        for lo in range(0, len(big.codes), rows):
            hi = min(lo + rows, len(big.codes))
            codes = (big.codes[lo:hi, None] + small.codes[None, :]).ravel()
            coeffs = (big.coeffs[lo:hi, None] * small.coeffs[None, :]).ravel()
            pieces.append(_combine(codes, coeffs))
        if len(pieces) == 1:
            return MultivariatePolynomial(self.n, *pieces[0])
        return MultivariatePolynomial(
            self.n,
            *_combine(
                np.concatenate([p[0] for p in pieces]),
                np.concatenate([p[1] for p in pieces]),
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        return f"MultivariatePolynomial(n={self.n}, terms={len(self.codes)})"


_EMPTY_CODES = np.array([], dtype=np.int64)
_EMPTY_COEFFS = np.array([], dtype=np.int64)


def _pack(exps, n: int, bits: int) -> int:
    code = 0
    for i, e in enumerate(exps):
        code |= int(e) << (bits * (n - 1 - i))
    return code


def _unpack(code: int, n: int, bits: int) -> tuple:
    mask = (1 << bits) - 1
    return tuple((code >> (bits * (n - 1 - i))) & mask for i in range(n))


_H_CODES_CACHE: dict = {}


def _h_codes(m: int, k: int, bits: int, cap: int) -> np.ndarray:
    """Sorted codes of the degree-m monomials in the k least significant
    fields whose exponents are all at most cap."""
    key = (bits, m, k, cap)
    cached = _H_CODES_CACHE.get(key)
    if cached is not None:
        return cached
    if m == 0:
        out = np.array([0], dtype=np.int64)
    elif k == 0 or m > k * cap:
        out = _EMPTY_CODES
    elif k == 1:
        out = np.array([m], dtype=np.int64)
    else:
        sh = bits * (k - 1)
        out = np.concatenate(
            [
                (np.int64(e) << sh) + _h_codes(m - e, k - 1, bits, cap)
                for e in range(min(m, cap) + 1)
            ]
        )
    _H_CODES_CACHE[key] = out
    return out


def poly_h(m: int, n: int) -> MultivariatePolynomial:
    """Complete homogeneous symmetric polynomial: all degree-m monomials."""
    if m < 0:
        raise ValueError(f"degree {m} must be >= 0")
    bits = _bits_for(n)
    if m >= 1 << bits:
        raise OverflowError(f"degree {m} does not fit {bits}-bit exponent fields")
    codes = _h_codes(m, n, bits, m)
    return MultivariatePolynomial(n, codes, np.ones(len(codes), dtype=np.int64))


def poly_p(r: int, n: int) -> MultivariatePolynomial:
    """Power sum x_1^r + ... + x_n^r."""
    if r < 1:
        raise ValueError(f"exponent {r} must be >= 1")
    bits = _bits_for(n)
    if r >= 1 << bits:
        raise OverflowError(f"exponent {r} does not fit {bits}-bit fields")
    codes = np.array([r << (bits * j) for j in range(n)], dtype=np.int64)
    return MultivariatePolynomial(n, codes, np.ones(n, dtype=np.int64))


@lru_cache(maxsize=None)
def _kostka(lam: tuple, mu: tuple) -> int:
    """Kostka number K_{lam,mu}: semistandard tableaux of shape lam, content mu.

    The entries equal to len(mu) form a horizontal strip of size mu[-1]
    (Pieri), so peel it off every possible way and recurse on the rest.
    Only the last row of each block of equal parts can lose boxes.
    Both arguments are partitions of the same size as tuples without zeros.
    The number vanishes unless lam dominates mu.
    """
    if not mu:
        return 1
    a = b = 0
    for x, y in zip(lam, mu):
        a += x
        b += y
        if a < b:
            return 0
    rest = mu[:-1]
    corners = [i for i in range(len(lam)) if i + 1 == len(lam) or lam[i] > lam[i + 1]]
    room = [lam[i] - (lam[i + 1] if i + 1 < len(lam) else 0) for i in corners]
    inner = list(lam)
    total = 0

    def peel(k: int, left: int):
        nonlocal total
        if left == 0:
            total += _kostka(tuple(inner) if inner[-1] else tuple(inner[:-1]), rest)
            return
        if k == len(corners):
            return
        i = corners[k]
        for take in range(min(left, room[k]) + 1):
            inner[i] = lam[i] - take
            peel(k + 1, left - take)
        inner[i] = lam[i]

    peel(0, mu[-1])
    return total


def poly_schur(lam: Partition, n: int) -> MultivariatePolynomial:
    """Schur polynomial as sum over mu of K_{lam,mu} times the monomial m_mu.

    Each monomial of degree |lam| with exponents at most lam_1 (beyond
    that K_{lam,mu} vanishes) takes the Kostka number of its sorted
    exponent vector. When lam has more parts than variables the
    polynomial vanishes; a warning is emitted and the zero polynomial
    returned.
    """
    if len(lam) > n:
        warnings.warn(f"s_{lam} vanishes in {n} variables", stacklevel=2)
        return MultivariatePolynomial(n, _EMPTY_CODES, _EMPTY_COEFFS)
    bits = _bits_for(n)
    if lam.part(1) >= 1 << bits:
        raise OverflowError(f"part {lam.part(1)} does not fit {bits}-bit exponent fields")
    master = _h_codes(lam.size(), n, bits, lam.part(1))
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64) * bits
    digits = (master[:, None] >> shifts) & ((1 << bits) - 1)
    sorted_codes = (-np.sort(-digits, axis=1) << shifts).sum(axis=1)
    shapes, labels = np.unique(sorted_codes, return_inverse=True)
    kostka = [
        _kostka(lam, tuple(e for e in _unpack(int(code), n, bits) if e))
        for code in shapes
    ]
    # np.array raises OverflowError on an int beyond int64 instead of wrapping
    v = np.array(kostka, dtype=np.int64)[labels]
    keep = v != 0
    return MultivariatePolynomial(n, master[keep], v[keep])


def pleth_pr(f: MultivariatePolynomial, r: int) -> MultivariatePolynomial:
    """Substitute x_i -> x_i^r; realizes composition with p_r for symmetric f."""
    if r < 1:
        raise ValueError(f"power {r} must be >= 1")
    if f.max_digit() * r >= 1 << f.bits:
        raise OverflowError("substituted exponents exceed the packed field width")
    return MultivariatePolynomial(f.n, f.codes * np.int64(r), f.coeffs.copy())


def _check_symmetric(f: MultivariatePolynomial):
    """Invariance under swapping variables 1 and 2 and under the cyclic
    shift of all n variables; the two permutations generate S_n."""
    if f.n < 2:
        return
    mask = (1 << f.bits) - 1
    sh_hi = f.bits * (f.n - 1)
    sh_lo = f.bits * (f.n - 2)
    d_hi = (f.codes >> sh_hi) & mask
    d_lo = (f.codes >> sh_lo) & mask
    swapped = f.codes + (d_lo - d_hi) * ((np.int64(1) << sh_hi) - (np.int64(1) << sh_lo))
    _check_permuted(f, swapped, "swapping variables 1, 2")
    shifted = (f.codes >> f.bits) | ((f.codes & mask) << sh_hi)
    _check_permuted(f, shifted, "the cyclic shift of the variables")


def _check_permuted(f: MultivariatePolynomial, permuted: np.ndarray, what: str):
    order = np.argsort(permuted)
    if not (
        np.array_equal(permuted[order], f.codes) and np.array_equal(f.coeffs[order], f.coeffs)
    ):
        raise NotSymmetric(f"not invariant under {what}")


def _solve_kostka(degree: int, coefficient) -> SchurExpansion:
    """Schur coefficients of a symmetric homogeneous polynomial of the degree.

    `coefficient(mu)` is a_mu, the coefficient of x^mu, for each partition
    mu of the degree. a_mu = sum over lam of c_lam * K_{lam,mu}, and the
    Kostka matrix is unitriangular in descending lexicographic order, so
    the c_mu are solved one by one, exactly in Python ints.
    """
    terms = {}
    for mu in partitions_of_size(degree):
        c = coefficient(mu) - sum(d * _kostka(lam, mu) for lam, d in terms.items())
        if c:
            terms[mu] = c
    return SchurExpansion(degree, terms)


def schur_decompose(f: MultivariatePolynomial) -> SchurExpansion:
    """Write a symmetric homogeneous polynomial as a Schur combination.

    A symmetric polynomial is fixed by its coefficients at partition
    exponents, which go through the Kostka solve.
    """
    if f.is_zero():
        return SchurExpansion(0, {})
    degs = f.degrees()
    if len(degs) > 1:
        raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
    (degree,) = degs
    if f.n < degree:
        raise TooFewVariables(f"{f.n} variables < degree {degree}")
    _check_symmetric(f)
    return _solve_kostka(degree, lambda mu: f.coefficient(mu + (0,) * (f.n - len(mu))))


def newton_check(m: int, n: int) -> bool:
    """Exact check of m*h_m = sum over l of p_l * h_{m-l} in n variables."""
    lhs = m * poly_h(m, n)
    rhs = MultivariatePolynomial(n, _EMPTY_CODES, _EMPTY_COEFFS)
    for ell in range(1, m + 1):
        rhs = rhs + poly_p(ell, n) * poly_h(m - ell, n)
    return lhs == rhs
