"""Independent brute-force helpers used only by the tests.

Most helpers here recompute combinatorial facts from first principles on
raw box sets (connectivity walks, tableau fillings, exhaustive recursion)
so that library results can be checked against a second implementation
that shares no code with the abacus machinery. Others are slower routes
to library results, kept as references: a search of all subshapes for
border strips, the swap search that classifies a runner and the
exhaustive search for the type II pair set built on it, the
oracle's expansion through Kostka numbers or through one full
bialternant matrix per partition of the degree, the runner-by-runner
generation of plethystic_mn's shapes, the greedy chain read off one
final_border_strip call per strip, the expansion walk on bead lists
that plethystic_mn made before it moved rows, the folds of
plethystic_mn_multi and power_product_pleth through the public
plethystic_mn, with a checked expansion per factor, and through
oracle_plethystic_mn alone, one oracle call per term and factor (mixed
r included), and the term count
of plethystic_mn read off the r-quotient, with no term built.

The fixed case lists of the partition and abacus sweeps come from here:
the shapes of a box of at most 7 parts, each at most 9, the small
shapes and pairs taken exhaustively and the rest of the box as a seeded
sample, so a test id sees the same inputs on every run.

The rest are small readings of shapes and abaci that no library path
needs, kept for the checks that use them as references: an expansion's
terms as plain tuples, the subshapes
of a given size, the first row where a skew shape's two shapes differ,
a border strip read off its two shapes' rows, the single bead move of
one strip removal with its height, and a move sequence applied to an
abacus or read off a decomposition's chain.
"""

import random
from collections import Counter
from itertools import accumulate, combinations_with_replacement, product
from operator import add
from typing import Iterator, Sequence

from plethabacus.abacus import (
    Abacus,
    BeadMove,
    _beads_of,
    _partition_of_beads,
    abacus_of,
    final_positions,
    runner_beads,
)
from plethabacus.oracle import _det, oracle_plethystic_mn
from plethabacus.partitions import (
    Box,
    Partition,
    SchurExpansion,
    SkewPartition,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
    partitions_up_to,
)
from plethabacus.ring import _kostka, _solve_kostka
from plethabacus.strips import (
    BorderStrip,
    Decomposition,
    RunnerType,
    final_border_strip,
)
from plethabacus.symfunc import plethystic_mn


def box_shapes() -> list[Partition]:
    """The 11,440 partitions with at most 7 parts, each at most 9: the tests' shape box."""
    return [make_partition(parts[::-1]) for parts in combinations_with_replacement(range(10), 7)]


def shape_cases() -> list[Partition]:
    """Every shape of the box of size <= 16 (653), then a seeded sample of 500 from the whole box."""
    box = box_shapes()
    return [p for p in box if p.size() <= 16] + random.Random(20261020).sample(box, 500)


def shape_pair_cases() -> list[tuple[Partition, Partition]]:
    """Every pair of partitions of size <= 8 (4,489), then 2,000 seeded pairs from the box."""
    box = box_shapes()
    rng = random.Random(20261021)
    pairs = list(product(partitions_up_to(8), repeat=2))
    return pairs + [(rng.choice(box), rng.choice(box)) for _ in range(2000)]


def expansion_dict(expansion: SchurExpansion) -> dict[tuple[int, ...], int]:
    """An expansion's terms keyed by plain part tuples, for comparison with literals."""
    return {p.parts: c for p, c in expansion.items()}


def partitions_by_first_part(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, by recursion on the first part.

    The tests' reference for the row walk of partitions_of_size and
    partitions_of_size_containing.
    """

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


def subpartitions_of_size(shape: Partition, k: int) -> Iterator[Partition]:
    """Partitions of k contained in shape."""
    for mu in partitions_of_size(k):
        if shape.contains(mu):
            yield mu


def minimal_distinct_row(skew: SkewPartition) -> int | None:
    """Least row index where outer and inner differ, None for the empty skew."""
    for i in range(1, len(skew.outer) + 1):
        if skew.outer.part(i) > skew.inner.part(i):
            return i
    return None


def is_border_strip_pair(outer: Partition, inner: Partition) -> bool:
    """Whether outer/inner differ by one nonempty connected ribbon (no 2x2 block)."""
    if not outer.contains(inner):
        return False
    rows = [i for i in range(1, len(outer) + 1) if outer.part(i) > inner.part(i)]
    if not rows:
        return False
    if rows != list(range(rows[0], rows[-1] + 1)):
        return False
    # adjacent rows of a ribbon overlap in exactly one column
    return all(inner.part(i) == outer.part(i + 1) - 1 for i in rows[:-1])


def border_strip(outer: Partition, inner: Partition) -> BorderStrip:
    """Build a BorderStrip from its two shapes, measuring height from the rows."""
    if not is_border_strip_pair(outer, inner):
        raise ValueError(f"{outer}/{inner} is not a border strip")
    rows = [i for i in range(1, len(outer) + 1) if outer.part(i) > inner.part(i)]
    d, last = rows[0], rows[-1]
    return BorderStrip(
        outer=outer,
        inner=inner,
        height=last - d,
        top_right=Box(d, outer.part(d)),
        bottom_left=Box(last, inner.part(last) + 1),
    )


class NotMovable(ValueError):
    """No bead at the source, or no gap at the destination."""


def movable_beads(abacus: Abacus, s: int) -> set[int]:
    """Beads that can jump s positions up into a gap."""
    if s < 1:
        raise ValueError("step must be positive")
    return {
        p
        for p in abacus.bead_positions
        if p >= s and (p - s) not in abacus.bead_positions
    }


def _check_movable(abacus: Abacus, beta: int, s: int) -> None:
    """Raise unless beta is one of movable_beads(abacus, s)."""
    if s < 1:
        raise ValueError("step must be positive")
    beads = abacus.bead_positions
    if beta not in beads or beta < s or (beta - s) in beads:
        raise NotMovable(f"no movable bead at {beta} with step {s}")


def swap_bead(abacus: Abacus, beta: int, s: int) -> Abacus:
    """Move the bead at beta up to the gap at beta - s."""
    _check_movable(abacus, beta, s)
    beads = set(abacus.bead_positions)
    beads.remove(beta)
    beads.add(beta - s)
    return Abacus(abacus.bead_count, frozenset(beads))


def strip_height(abacus: Abacus, beta: int, s: int) -> int:
    """Beads strictly between beta - s and beta; the height of the removed strip."""
    _check_movable(abacus, beta, s)
    return sum(1 for p in abacus.bead_positions if beta - s < p < beta)


def apply_moves(abacus: Abacus, moves: Sequence[BeadMove]) -> Abacus:
    """Apply a sequence of bead moves left to right; IllegalMove names a bad one."""
    return Abacus(abacus.bead_count, frozenset(final_positions(abacus, moves).values()))


def final_strip_chain(skew: SkewPartition, r: int) -> Decomposition | None:
    """r_decompose by its definition: final_border_strip of each new skew until inner."""
    if skew.size() % r != 0:
        return None
    nu = skew.inner
    chain, strips = [skew.outer], []
    while chain[-1] != nu:
        strip = final_border_strip(make_skew(chain[-1], nu), r)
        if strip is None:
            return None
        strips.append(strip)
        chain.append(strip.inner)
    return Decomposition(tuple(chain), tuple(strips), r)


def decomposition_moves(dec: Decomposition, bead_count: int | None = None) -> list[BeadMove]:
    """Bead moves realizing the chain at a fixed bead count."""
    b = bead_count if bead_count is not None else max(len(p) for p in dec.chain)
    moves = []
    for before, after in zip(dec.chain, dec.chain[1:]):
        src = abacus_of(before, b).bead_positions
        dst = abacus_of(after, b).bead_positions
        (f,) = src - dst
        (t,) = dst - src
        moves.append(BeadMove(f, t))
    return moves


def skew_boxes(outer: Partition, inner: Partition) -> set:
    return {
        (i, j)
        for i in range(1, len(outer) + 1)
        for j in range(inner.part(i) + 1, outer.part(i) + 1)
    }


def is_ribbon(outer: Partition, inner: Partition) -> bool:
    """Edge-connected skew shape containing no 2x2 block of boxes."""
    if not outer.contains(inner):
        return False
    boxes = skew_boxes(outer, inner)
    if not boxes:
        return False
    for i, j in boxes:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= boxes:
            return False
    seen = {min(boxes)}
    stack = [min(boxes)]
    while stack:
        i, j = stack.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in boxes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(boxes)


def ribbon_height(outer: Partition, inner: Partition) -> int:
    rows = {i for i, _ in skew_boxes(outer, inner)}
    return max(rows) - min(rows)


def ribbon_additions(nu: Partition, s: int) -> dict:
    """All lam with lam/nu an s-ribbon, mapped to the sign (-1)**height."""
    out = {}
    for lam in partitions_of_size_containing(nu.size() + s, nu):
        if is_ribbon(lam, nu):
            out[lam] = (-1) ** ribbon_height(lam, nu)
    return out


def ribbon_removals(lam: Partition, s: int) -> dict:
    """All mu with lam/mu an s-ribbon, mapped to the sign (-1)**height."""
    out = {}
    if lam.size() < s:
        return out
    for mu in subpartitions_of_size(lam, lam.size() - s):
        if is_ribbon(lam, mu):
            out[mu] = (-1) ** ribbon_height(lam, mu)
    return out


def horizontal_strip_additions(nu: Partition, m: int) -> set:
    """Partitions lam with lam/nu a horizontal m-strip (Pieri rule for h_m)."""
    out = set()
    for lam in partitions_of_size_containing(nu.size() + m, nu):
        columns = Counter(j for _, j in skew_boxes(lam, nu))
        if all(c == 1 for c in columns.values()):
            out.add(lam)
    return out


def removal_sign_set(lam: Partition, nu: Partition, r: int, memo=None):
    """Signs realized by complete r-ribbon removal chains from lam to nu.

    The result is a frozenset: empty when nu is unreachable, and expected
    to be a single sign otherwise. memo may be shared across calls with
    the same (nu, r).
    """
    if memo is None:
        memo = {}

    def go(cur: Partition) -> frozenset:
        if cur == nu:
            return frozenset({1})
        got = memo.get(cur)
        if got is not None:
            return got
        memo[cur] = frozenset()  # cycle-safe placeholder; removals only shrink
        out = set()
        for mu, sign in ribbon_removals(cur, r).items():
            if mu.contains(nu):
                out.update(sign * s for s in go(mu))
        memo[cur] = frozenset(out)
        return memo[cur]

    return go(lam)


def ssyt_monomials(lam: Partition, n: int) -> dict:
    """Weight multiset of semistandard tableaux of shape lam, entries <= n.

    Rows weakly increase left to right, columns strictly increase top to
    bottom. Returns {exponent vector: tableau count}.
    """
    rows = lam.parts
    if not rows:
        return {(0,) * n: 1}
    filling = [[0] * r for r in rows]
    out: Counter = Counter()

    def fill(i: int, j: int, weight: list) -> None:
        if i == len(rows):
            out[tuple(weight)] += 1
            return
        lo = filling[i][j - 1] if j else 1
        if i and j < rows[i - 1]:
            lo = max(lo, filling[i - 1][j] + 1)
        for v in range(lo, n + 1):
            filling[i][j] = v
            weight[v - 1] += 1
            if j + 1 < rows[i]:
                fill(i, j + 1, weight)
            else:
                fill(i + 1, 0, weight)
            weight[v - 1] -= 1

    fill(0, 0, [0] * n)
    return dict(out)


def border_strips_geometric(shape: Partition, s: int) -> list[BorderStrip]:
    """Brute-force s-strip search over subshapes; independent of the abacus."""
    out = []
    for mu in subpartitions_of_size(shape, shape.size() - s):
        if is_border_strip_pair(shape, mu):
            out.append(border_strip(shape, mu))
    out.sort(key=lambda st: st.top_right.row)
    return out


def is_decomposable_runner(beads: set[int], dst: list[int], r: int) -> bool:
    """Interleaving test for one runner; beads, its bead set of A, holds every bead probed."""
    moved_from = sorted(beads - set(dst))
    moved_to = sorted(set(dst) - beads)
    if len(moved_from) != len(moved_to):
        return False
    prev = None
    for alpha, beta in zip(moved_to, moved_from):
        if alpha >= beta:
            return False
        if prev is not None and alpha <= prev:
            return False
        # alpha and every step down to beta - r must be gaps
        if any(p in beads for p in range(alpha, beta, r)):
            return False
        prev = beta
    return True


def swap_search_runner_type(a: Abacus, c: Abacus, r: int, t: int) -> RunnerType:
    """Type of runner t by search: I if decomposable, II if one upward
    (bead, gap) swap makes it so, III otherwise.

    The reference for classify_runner's closed stuck-run test; the
    runner's bead counts in a and c are assumed equal.
    """
    src, dst = runner_beads(a, r, t), runner_beads(c, r, t)
    beads = set(src)
    if is_decomposable_runner(beads, dst, r):
        return RunnerType.I
    for eps in src:
        for gamma in range(eps - r, t - 1, -r):
            if gamma in beads:
                continue
            if is_decomposable_runner((beads - {eps}) | {gamma}, dst, r):
                return RunnerType.II
    return RunnerType.III


def brute_force_pair_set(a: Abacus, c: Abacus, r: int, t: int) -> frozenset:
    """All (bead, gap) swaps on runner t after which the runner is decomposable.

    The search behind PairingWitness.P, against which the closed form that
    pairing_witness uses is checked.
    """
    src, dst = runner_beads(a, r, t), runner_beads(c, r, t)
    top = max(src + dst, default=t) + r
    pairs = set()
    for eps in src:
        for gamma in range(t, top + 1, r):
            if gamma in a.bead_positions:
                continue
            if is_decomposable_runner((set(src) - {eps}) | {gamma}, dst, r):
                pairs.add((eps, gamma))
    return frozenset(pairs)


def pleth_coefficient(nu: tuple, r: int, m: int, mu: tuple) -> int:
    """Coefficient of x^mu in s_nu(x) * h_m(x^r).

    x^(r*gamma) runs over the monomials of h_m(x^r), gamma a composition of
    m, and the coefficient of x^(mu - r*gamma) in s_nu is the Kostka number
    of its sorted exponents. A part of mu - r*gamma above nu_1 makes that
    number vanish, which sets the least gamma_i of each part; only parts
    left at r or more have a further choice.
    """
    top = nu[0] if nu else 0
    left = m
    fixed, free = [], []
    for p in mu:
        g = max(0, -(-(p - top) // r))
        if p < r * g:
            return 0
        left -= g
        (free if p - r * g >= r else fixed).append(p - r * g)
    if left < 0:
        return 0
    total = 0

    def walk(i: int, left: int):
        nonlocal total
        if left == 0:
            parts = sorted(fixed + free, reverse=True)
            total += _kostka(nu, tuple(parts[: len(parts) - parts.count(0)]))
            return
        if i == len(free):
            return
        p = free[i]
        for g in range(min(left, p // r) + 1):
            free[i] = p - r * g
            walk(i + 1, left - g)
        free[i] = p

    walk(0, left)
    return total


def kostka_plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """s_nu * (p_r o h_m) from its coefficients at partition exponents.

    Each coefficient is a sum of Kostka numbers (pleth_coefficient), and the
    library's unitriangular Kostka solve turns them into Schur coefficients.
    """
    degree = r * m + nu.size()
    return _solve_kostka(degree, lambda mu: pleth_coefficient(nu.parts, r, m, mu.parts))


def bialternant_matrix(lam: Partition, nu: Partition, r: int) -> list[list[int]] | None:
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


def bialternant_plethystic_mn(nu: Partition, r: int, m: int) -> SchurExpansion:
    """The oracle's expansion with one dense determinant per partition of the degree.

    Every partition of the degree is visited, and each one whose residues
    match nu's has its whole bialternant matrix taken by the library's
    Bareiss _det, with no containment test and no residue blocks.
    """
    degree = r * m + nu.size()
    terms = {}
    for lam in partitions_of_size(degree):
        matrix = bialternant_matrix(lam, nu, r)
        if matrix is not None:
            terms[lam] = _det(matrix)
    return SchurExpansion(degree, terms)  # drops the zero determinants


def runner_raises(beads: list[int], r: int, m: int) -> list[list[list[int]]]:
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


def runner_raise_candidates(nu: Partition, r: int, m: int) -> set[Partition]:
    """The shapes plethystic_mn expands to, generated runner by runner.

    On the abacus of nu at len(nu) + r beads, each runner takes one of
    its runner_raises and the raises' totals sum to m; every combination
    is decoded into one shape. This is the generation plethystic_mn used
    before it built each shape along its greedy strip chain.
    """
    nu_beads = _beads_of(nu.parts, len(nu) + r)
    per_runner = [
        runner_raises([p for p in reversed(nu_beads) if p % r == t], r, m)
        for t in range(r)
    ]
    shapes = set()

    def assemble(t: int, left: int, beads: list[int]):
        if t == r - 1:
            for raised in per_runner[t][left]:
                shapes.add(_partition_of_beads(sorted(beads + raised, reverse=True)))
            return
        for j in range(left + 1):
            for raised in per_runner[t][j]:
                assemble(t + 1, left - j, beads + raised)

    assemble(0, m, [])
    return shapes


def public_fold(nu: Partition, factors: list[tuple[int, int]]) -> SchurExpansion:
    """s_nu times the product of p_r applied to h_m over (r, m), one public call per term.

    The folds' reference: the factors in ascending r*m order (a stable
    sort), each term c * s_p times the public plethystic_mn(p, r, m),
    and a checked SchurExpansion after every factor, which drops the
    zeros and checks every degree.
    """
    acc = SchurExpansion(nu.size(), {nu: 1})
    for r, m in sorted(factors, key=lambda f: f[0] * f[1]):
        terms: dict[Partition, int] = {}
        for p, c in acc.terms.items():
            for q, d in plethystic_mn(p, r, m).terms.items():
                terms[q] = terms.get(q, 0) + c * d
        acc = SchurExpansion(acc.degree + r * m, terms)
    return acc


def bead_terms(nu: Partition, r: int, m: int) -> dict[Partition, int]:
    """The terms of s_nu * (p_r applied to h_m), for checked r >= 1, m >= 0, on bead lists.

    The walk symfunc._terms made before it moved rows: the same states,
    order and signs on descending bead positions, each term's parts
    mapped back from its cut bead list. It is the reference for the
    kernel's term dicts, values and key order both.

    Each lam is built by running its greedy final r-strip chain in
    reverse, from nu upward, so its sign is (-1) to the sum of the heights
    of the chain that built it. Each r-decomposable lam has exactly one
    greedy chain, so it is built once, and every lam built is
    r-decomposable, since that chain is its decomposition.

    The state is mu's descending bead list at n = len(nu) + r beads, one
    padding bead per runner, with k the length of its common prefix with
    nu's list; at the start mu = nu and k = n. A reverse step takes the
    bead at index idx, at position p, with t = p + r free. It lands at
    index i, the number of beads at positions greater than t, and passes
    idx - i beads: the strip height. The step is valid exactly when
    i <= k and t > nu_beads[i]. Then the greedy first removal from the
    new lam raises that bead back to p and gives mu, and the new k is i.
    The second condition always holds, because mu dominates nu entrywise
    and t exceeds mu's entry at i. Beads at positions <= mu[k] - r cannot
    land at i <= k, so the scan stops there, and every bead scanned
    before it satisfies i <= k.

    A step copies mu's list, deletes the bead at idx and inserts t at i.
    Row j of a list has part beads[j] + j + 1 - n. Rows above i keep
    mu's parts, the new part at i exceeds mu's part there, rows
    i + 1 .. idx hold mu's rows i .. idx - 1 one row lower, each part one
    larger, and the rows below idx keep mu's parts. The state carries z,
    mu's row count (len(nu) at the start), and i <= z: the zero-part
    beads fill positions 0 .. n - z - 1, so a t among them is taken. So
    lam has max(z, idx + 1) rows, and a last step cuts its list there and
    maps positions to parts in one C-level map: no term has a zero part,
    and no decode function runs per term.

    One padding bead per runner suffices: in an r-decomposable lam/nu only
    the top bead of each runner's packed stack of zero-part beads moves,
    so lam has at most len(nu) + r rows.
    """
    if m == 0:
        return {nu: 1}
    nu_beads = _beads_of(nu, len(nu) + r)
    n = len(nu_beads)
    trusted, offsets = Partition._trusted, range(1 - n, 1)
    terms: dict[Partition, int] = {}
    # depth first on an explicit stack: a recursion would be m calls deep
    stack = [(nu_beads, n, len(nu), 0, m)]
    while stack:
        beads, k, z, height, left = stack.pop()
        floor = beads[k] - r if k < n else -1
        for idx, p in enumerate(beads):
            if p <= floor:
                break
            t = p + r
            i = idx
            while i and beads[i - 1] < t:
                i -= 1
            if i and beads[i - 1] == t:
                continue
            lam = beads.copy()
            del lam[idx]
            lam.insert(i, t)
            h = height + idx - i
            rows = z if idx < z else idx + 1
            if left > 1:
                stack.append((lam, i, rows, h, left - 1))
                continue
            del lam[rows:]
            # from a list of known length: a tuple built from the map itself
            # is resized, and its spare temporaries fill the free lists
            shape = trusted(list(map(add, lam, offsets)))
            count = len(terms)
            terms[shape] = -1 if h & 1 else 1
            if len(terms) == count:
                raise AssertionError(
                    f"candidate {shape} over {nu} with r={r}, m={m} is repeated"
                )
    return terms


def quotient_term_count(nu: Partition, r: int, m: int) -> int:
    """The number of terms of s_nu * (p_r applied to h_m), read off nu's r-quotient.

    By Littlewood's r-quotient theorem a term is a horizontal strip of
    total size m added across the runner partitions of nu's quotient, at
    plethystic_mn's len(nu) + r beads, where every runner holds a bead.
    On one runner the top bead rises freely, and each other bead rises by
    at most g, the empty runner places between it and the start of the
    bead above it: the difference of two consecutive parts of the runner
    partition. So the count is the coefficient of x^m in the product over
    runners of 1/(1 - x) times (1 + x + ... + x^g) over the runner's gaps,
    each factor applied to the series cut at degree m. No term is built.
    """
    n = len(nu) + r
    positions = [p + n - 1 - j for j, p in enumerate([*nu, *[0] * r])]
    series = [1] + [0] * m
    for t in range(r):
        levels = [p // r for p in positions if p % r == t]  # descending
        # times 1/(1 - x): running sums
        series = list(accumulate(series))
        for above, below in zip(levels, levels[1:]):
            g = above - below - 1
            # times 1 + x + ... + x^g: sums over windows of width g + 1
            sums = [0, *accumulate(series)]
            series = [sums[k + 1] - sums[max(0, k - g)] for k in range(m + 1)]
    return series[m]


def oracle_fold(nu: Partition, factors: list[tuple[int, int]]) -> dict[Partition, int]:
    """The terms of s_nu times the product of p_r applied to h_m over (r, m), by the oracle.

    Each term c * s_p of the running product times one
    oracle_plethystic_mn(p, r, m), in the factors' given order, summed,
    with the zeros dropped: every coefficient comes from bialternant
    determinants and the loop is linearity alone, so no abacus, strips
    or symfunc code runs. It is the products' check for mixed r too.
    """
    acc = {nu: 1}
    for r, m in factors:
        terms: dict[Partition, int] = {}
        for p, c in acc.items():
            for q, d in oracle_plethystic_mn(p, r, m).terms.items():
                terms[q] = terms.get(q, 0) + c * d
        acc = {q: c for q, c in terms.items() if c}
    return acc
