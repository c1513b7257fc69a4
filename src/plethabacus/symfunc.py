"""Signed expansions of s_nu times p_r, and of s_nu times p_r plethysm h_m.

Both products expand in the Schur basis with every coefficient read off
an abacus: multiplying by p_s adds one border strip of length s (sign
(-1)^height), and multiplying by p_r applied to h_m adds m strips of
length r whose greedy removal chain works back down to nu.
"""

from __future__ import annotations

from .abacus import _beads_of, _partition_of_beads
from .partitions import Partition, SchurExpansion
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
    if r < 1:
        raise ValueError(f"strip length {r} must be >= 1")
    terms = {}
    for lam, height in _strip_additions(nu, r):
        if lam in terms:
            raise AssertionError(f"{lam} added twice to {nu} with r={r}")
        terms[lam] = (-1) ** height
    return SchurExpansion(nu.size() + r, terms)


def _runner_raises(steps: list[int], total: int) -> list[list[int]]:
    """Distributions of `total` downward runner steps over beads at `steps`.

    Each bead may move down any amount that keeps it strictly above the
    next bead's starting point; the last bead is unbounded. These are
    exactly the raises of one runner that stay r-decomposable.
    """
    caps = [steps[j + 1] - steps[j] - 1 for j in range(len(steps) - 1)]
    caps.append(total)
    out = []

    def go(j: int, left: int, acc: list[int]):
        if j == len(steps):
            if left == 0:
                out.append(acc.copy())
            return
        for d in range(0, min(caps[j], left) + 1):
            acc.append(steps[j] + d)
            go(j + 1, left - d, acc)
            acc.pop()

    go(0, total, [])
    return out


def plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_m): sgn_r(lam/nu) over lam.

    Candidates lam are generated runner by runner on the abacus of nu
    padded to len(nu) + r*m beads, so only r-decomposable shapes appear;
    each is signed by the greedy final-strip chain on its bead positions.
    """
    if r < 1 or m < 0:
        raise ValueError(f"need r >= 1 and m >= 0, got r={r}, m={m}")
    if m == 0:
        return SchurExpansion(nu.size(), {nu: 1})
    nu_beads = _beads_of(nu.parts, len(nu) + r * m)
    per_runner = []
    for t in range(r):
        steps = [(p - t) // r for p in reversed(nu_beads) if p % r == t]
        per_runner.append([_runner_raises(steps, j) for j in range(m + 1)])

    terms: dict[Partition, int] = {}

    def assemble(t: int, left: int, beads: list[int]):
        for j in range(left + 1) if t < r - 1 else [left]:
            for raised in per_runner[t][j]:
                positions = beads + [t + r * e for e in raised]
                if t < r - 1:
                    assemble(t + 1, left - j, positions)
                else:
                    positions.sort(reverse=True)
                    heights = _greedy_heights(positions, nu_beads, r)
                    lam = _partition_of_beads(positions)
                    if heights is None or lam in terms:
                        raise AssertionError(
                            f"candidate {lam} over {nu} with r={r}, m={m} "
                            "is repeated or not r-decomposable"
                        )
                    terms[lam] = (-1) ** sum(heights)

    assemble(0, m, [])
    return SchurExpansion(nu.size() + r * m, terms)


def _fold(nu: Partition, factors: list[tuple[int, int]]) -> SchurExpansion:
    """Expansion of s_nu times the product of p_r applied to h_m over (r, m)."""
    acc = SchurExpansion(nu.size(), {nu: 1})
    for r, m in factors:
        terms: dict[Partition, int] = {}
        for p, c in acc.terms.items():
            for q, d in plethystic_mn(p, r, m).terms.items():
                terms[q] = terms.get(q, 0) + c * d
        acc = SchurExpansion(acc.degree + r * m, terms)
    return acc


def plethystic_mn_multi(nu: Partition, r: int, ms: list[int]) -> SchurExpansion:
    """Expansion of s_nu * (p_r applied to h_{m_1} * ... * h_{m_d})."""
    return _fold(nu, [(r, m) for m in ms])


def power_product_pleth(nu: Partition, rs: list[int], m: int) -> SchurExpansion:
    """Expansion of s_nu * product over i of (p_{r_i} applied to h_m)."""
    return _fold(nu, [(r, m) for r in rs])
