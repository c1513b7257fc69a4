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
generation of plethystic_mn's shapes, and the greedy chain read off one
final_border_strip call per strip.

The rest are small readings of shapes and abaci that no library path
needs, kept for the checks that use them as references: the subshapes
of a given size, the first row where a skew shape's two shapes differ,
a border strip read off its two shapes' rows, the single bead move of
one strip removal with its height, and a move sequence applied to an
abacus or read off a decomposition's chain.
"""

from collections import Counter
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
from plethabacus.oracle import _det
from plethabacus.partitions import (
    Box,
    Partition,
    SchurExpansion,
    SkewPartition,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
)
from plethabacus.ring import _kostka, _solve_kostka
from plethabacus.strips import (
    BorderStrip,
    Decomposition,
    RunnerType,
    final_border_strip,
)


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


def random_partition(rng, max_size: int) -> Partition:
    size = rng.randint(0, max_size)
    options = list(partitions_of_size(size))
    return options[rng.randrange(len(options))]


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
