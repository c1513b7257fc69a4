"""Signed expansions of s_nu times p_r, and of s_nu times p_r plethysm h_m.

Both products expand in the Schur basis with every coefficient read off
an abacus: multiplying by p_s adds one border strip of length s (sign
(-1)^height), and multiplying by p_r applied to h_m adds m strips of
length r whose greedy removal chain works back down to nu.
"""

from __future__ import annotations

from .partitions import Partition, SchurExpansion, _integer, _list_of, _partition


def mn_multiply(nu: Partition, r: int) -> SchurExpansion:
    """Expansion of s_nu * p_r: plethystic_mn's walk with m = 1, as p_r o h_1 = p_r.

    Each step adds an r-border-strip, signed by the beads its bead passes.
    """
    return plethystic_mn(nu, r, 1)


def plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_m): sgn_r(lam/nu) over lam.

    The input checks, then the one walk kernel _terms, which the folds
    call too, so every product of this module is read off the same walk.
    Each term is built along its greedy chain run in reverse, and the
    last step wraps its moved part list, cut at its row count, with no
    decode call per term. A nu that is not a Partition is rejected here.
    """
    nu = _partition("nu", nu)
    r, m = _integer("r", r, 1), _integer("m", m, 0)
    return SchurExpansion._trusted(nu.size() + r * m, _terms(nu, r, m))


def _terms(nu: Partition, r: int, m: int) -> dict[Partition, int]:
    """The terms of s_nu * (p_r applied to h_m), for checked r >= 1, m >= 0.

    Each lam is built by running its greedy final r-strip chain in
    reverse, from nu upward, so its sign is (-1) to the sum of the heights
    of the chain that built it. Each r-decomposable lam has exactly one
    greedy chain, so it is built once, and every lam built is
    r-decomposable, since that chain is its decomposition.

    The state is mu's zero-padded part list, n = len(nu) + r rows, one
    padding row per runner. On an abacus of n beads, row j's bead sits at
    mu_j + n - 1 - j, so every test on bead positions is made here on the
    row values mu_j - j, which are strictly decreasing down the rows.
    k is the length of the common prefix of mu's and nu's lists; at the
    start mu = nu and k = n. A reverse step takes row idx, of value v,
    to the value v + r. It lands at row i, the number of rows of value
    greater than v + r, and passes idx - i rows: the strip height. The
    step is valid exactly when i <= k and v + r exceeds the value of
    nu's row i. Then the greedy first removal from the new lam takes
    that row back to v and gives mu, and the new k is i. The second
    condition always holds, because mu's values dominate nu's entrywise
    and v + r exceeds mu's value at i. Rows of value <= mu_k - k - r
    cannot land at i <= k, so the scan stops there, and every row
    scanned before it satisfies i <= k.

    A step copies mu's list. Rows above i keep mu's parts, row i takes
    the value v + r, rows i + 1 .. idx hold mu's rows i .. idx - 1 one
    row lower, each part one larger, and the rows below idx keep mu's
    parts; a step of height 0 sets row i alone. The state carries z,
    mu's row count (len(nu) at the start), and i <= z: the zero rows
    z .. n - 1 have the values -z .. 1 - n, so a landing value among them
    is taken. So lam has max(z, idx + 1) rows, and a last step cuts its
    list there and wraps it as the term: no term has a zero part, and no
    decode runs per term.

    One padding row per runner suffices: in an r-decomposable lam/nu only
    the top bead of each runner's packed stack of zero-part beads moves,
    so lam has at most len(nu) + r rows.
    """
    if m == 0:
        return {nu: 1}
    n, r1 = len(nu) + r, r - 1
    trusted = Partition._trusted
    terms: dict[Partition, int] = {}
    # depth first on an explicit stack: a recursion would be m calls deep
    stack = [([*nu, *[0] * r], n, len(nu), 0, m)]
    while stack:
        parts, k, z, height, left = stack.pop()
        # row j's value is read as parts[j] - j - 1, and t is the landing
        # value read the same way, so row i's new part is t + i + 1
        floor = parts[k] - k - 1 if k < n else r1 - n
        for idx, p in enumerate(parts):
            t = p + r1 - idx
            if t <= floor:
                break
            i = idx
            while i and parts[i - 1] - i < t:
                i -= 1
            if i and parts[i - 1] - i == t:
                continue
            lam = parts.copy()
            lam[i] = t + i + 1
            if i < idx:
                for j in range(i, idx):
                    lam[j + 1] = parts[j] + 1
            h = height + idx - i
            rows = z if idx < z else idx + 1
            if left > 1:
                stack.append((lam, i, rows, h, left - 1))
                continue
            del lam[rows:]
            shape = trusted(lam)
            count = len(terms)
            terms[shape] = -1 if h & 1 else 1
            if len(terms) == count:
                raise AssertionError(
                    f"candidate {shape} over {nu} with r={r}, m={m} is repeated"
                )
    return terms


def _fold(nu: Partition, factors: list[tuple[int, int]]) -> SchurExpansion:
    """Expansion of s_nu times the product of p_r applied to h_m over (r, m).

    The factors commute and every coefficient is an exact int, so they
    are applied in ascending r*m order (a stable sort): the small factors
    first, while the expansion they act on is still small. Each factor
    merges c * d over the walk's own term dicts, _terms(p, r, m) for
    every term c * s_p so far, into a plain dict, and drops the zeros;
    the one SchurExpansion is built at the end. The callers check nu and
    every factor before the first expansion.
    """
    acc = {nu: 1}
    degree = nu.size()
    for r, m in sorted(factors, key=lambda f: f[0] * f[1]):
        terms: dict[Partition, int] = {}
        get = terms.get
        for p, c in acc.items():
            for q, d in _terms(p, r, m).items():
                terms[q] = get(q, 0) + c * d
        acc = {q: c for q, c in terms.items() if c}
        degree += r * m
    return SchurExpansion._trusted(degree, acc)


def plethystic_mn_multi(nu: Partition, r: int, ms: list[int]) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_{m_1} * ... * h_{m_d})."""
    nu, r = _partition("nu", nu), _integer("r", r, 1)
    return _fold(nu, [(r, _integer("m", m, 0)) for m in _list_of("ms", ms, "integers")])


def power_product_pleth(nu: Partition, rs: list[int], m: int) -> SchurExpansion:
    """Expansion of s_nu * product over i of (p_{r_i} applied to h_m)."""
    nu, m = _partition("nu", nu), _integer("m", m, 0)
    return _fold(nu, [(_integer("r", r, 1), m) for r in _list_of("rs", rs, "integers")])
