"""Signed expansions of s_nu times p_r, and of s_nu times p_r plethysm h_m.

Both products expand in the Schur basis with every coefficient read off
an abacus: multiplying by p_s adds one border strip of length s (sign
(-1)^height), and multiplying by p_r applied to h_m adds m strips of
length r whose greedy removal chain works back down to nu.
"""

from __future__ import annotations

from .abacus import _beads_of, _partition_of_beads
from .partitions import Partition, SchurExpansion, _integer
from .strips import _greedy_heights


def _strip_additions(nu: Partition, s: int) -> list[tuple[Partition, int]]:
    """All (lam, height) with lam/nu a border strip of length s, via down moves."""
    beads = _beads_of(nu.parts, len(nu) + s)
    occupied = set(beads)
    out = []
    for beta in beads:
        if beta + s in occupied:
            continue
        lam = _partition_of_beads(sorted((occupied - {beta}) | {beta + s}, reverse=True))
        height = sum(1 for p in beads if beta < p < beta + s)
        out.append((lam, height))
    return out


def mn_multiply(nu: Partition, r: int) -> SchurExpansion:
    """Expansion of s_nu * p_r: one signed term per added r-border-strip."""
    r = _integer("r", r, 1)
    terms = {}
    for lam, height in _strip_additions(nu, r):
        if lam in terms:
            raise AssertionError(f"{lam} added twice to {nu} with r={r}")
        terms[lam] = (-1) ** height
    return SchurExpansion._trusted(nu.size() + r, terms)


def _runner_raises(beads: list[int], r: int, m: int) -> list[list[list[int]]]:
    """Raises of one runner's ascending bead positions, bucketed by total 0..m.

    Each bead may move down any number of runner steps (r positions each)
    that keeps it strictly above the next bead's starting point; the last
    bead is unbounded. Bucket j holds, as new bead positions, every raise
    of j steps in all: exactly the raises of one runner that stay
    r-decomposable. One depth-first pass fills every bucket.
    """
    caps = [(b - a) // r - 1 for a, b in zip(beads, beads[1:])] + [m]
    buckets = [[] for _ in range(m + 1)]

    def go(j: int, used: int, acc: list[int]):
        if j == len(beads):
            buckets[used].append(acc.copy())
            return
        for d in range(min(caps[j], m - used) + 1):
            acc.append(beads[j] + r * d)
            go(j + 1, used + d, acc)
            acc.pop()

    go(0, 0, [])
    return buckets


def plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_m): sgn_r(lam/nu) over lam.

    Candidates lam are generated runner by runner on the abacus of nu
    padded to len(nu) + r beads, so only r-decomposable shapes appear;
    each is signed by the greedy final-strip chain on its bead positions.

    One padding bead per runner suffices. Padding to len(nu) + r*m beads
    would leave each runner a packed stack of m zero-part beads, of which
    only the top can move: a bead directly below another on its runner
    has cap 0 in _runner_raises. The r*(m-1) beads under the tops never
    move, and no strip passes them, since every moved bead starts above
    them. Dropping them shifts every position by r*(m-1), a multiple of
    r, so runners, heights, signs and term order stay the same, and every
    lam has at most len(nu) + r rows.
    """
    r, m = _integer("r", r, 1), _integer("m", m, 0)
    if m == 0:
        return SchurExpansion._trusted(nu.size(), {nu: 1})
    nu_beads = _beads_of(nu.parts, len(nu) + r)
    per_runner = [
        _runner_raises([p for p in reversed(nu_beads) if p % r == t], r, m)
        for t in range(r)
    ]

    terms: dict[Partition, int] = {}

    def assemble(t: int, left: int, beads: list[int]):
        if t < r - 1:
            for j in range(left + 1):
                for raised in per_runner[t][j]:
                    assemble(t + 1, left - j, beads + raised)
            return
        for raised in per_runner[t][left]:
            positions = beads + raised
            positions.sort(reverse=True)
            # decode lam before the kernel consumes positions
            lam = _partition_of_beads(positions)
            heights = _greedy_heights(positions, nu_beads, r)
            count = len(terms)
            if heights is not None:
                terms[lam] = (-1) ** sum(heights)
            if len(terms) == count:
                raise AssertionError(
                    f"candidate {lam} over {nu} with r={r}, m={m} "
                    "is repeated or not r-decomposable"
                )

    assemble(0, m, [])
    return SchurExpansion._trusted(nu.size() + r * m, terms)


def _fold(nu: Partition, factors: list[tuple[int, int]]) -> SchurExpansion:
    """Expansion of s_nu times the product of p_r applied to h_m over (r, m).

    The factors commute and every coefficient is an exact int, so they
    are applied in ascending r*m order (a stable sort): the small factors
    first, while the expansion they act on is still small. The callers
    check every factor before the first expansion.
    """
    acc = SchurExpansion(nu.size(), {nu: 1})
    for r, m in sorted(factors, key=lambda f: f[0] * f[1]):
        terms: dict[Partition, int] = {}
        for p, c in acc.terms.items():
            for q, d in plethystic_mn(p, r, m).terms.items():
                terms[q] = terms.get(q, 0) + c * d
        acc = SchurExpansion(acc.degree + r * m, terms)
    return acc


def plethystic_mn_multi(nu: Partition, r: int, ms: list[int]) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_{m_1} * ... * h_{m_d})."""
    r = _integer("r", r, 1)
    return _fold(nu, [(r, _integer("m", m, 0)) for m in ms])


def power_product_pleth(nu: Partition, rs: list[int], m: int) -> SchurExpansion:
    """Expansion of s_nu * product over i of (p_{r_i} applied to h_m)."""
    m = _integer("m", m, 0)
    return _fold(nu, [(_integer("r", r, 1), m) for r in rs])
