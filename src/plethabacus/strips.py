"""Border strips, greedy strip decompositions and runner combinatorics.

The sign of interest, written sgn_r, is defined through repeated removal
of "final" r-border-strips: the unique strip meeting the first row where
outer and inner shapes differ. A skew shape whose chain of final strips
reaches the inner shape is called r-decomposable and its sign is the
product of (-1)^height over the chain; every other removal order gives
the same sign, which is also computable as an inversion count of bead
moves on the r-runner abacus.
"""

from __future__ import annotations

import enum
import threading
from itertools import compress, count
from operator import ne
from typing import NamedTuple

from .abacus import (
    Abacus,
    BeadMove,
    IncompatibleAbaci,
    _beads_of,
    _check_runner,
    _partition_of_beads,
    _runner_buckets,
    _runner_pair,
    abacus_of,
    final_positions,
    inversion_sign,
    partition_of,
    single_step_moves,
)
from .partitions import Box, Partition, SkewPartition, _integer, _partition, _Record, _skew


class EmptySkew(ValueError):
    """The skew shape has no boxes."""


class NotTypeIICase(ValueError):
    """The runner profile is not one type II with all others type I."""


class NotDivisible(ValueError):
    """Skew size is not a multiple of the strip length."""


class BorderStrip(NamedTuple):
    """A connected border ribbon outer/inner, with its extreme boxes and height."""

    outer: Partition
    inner: Partition
    height: int
    top_right: Box
    bottom_left: Box

    @property
    def length(self) -> int:
        return self.outer.size() - self.inner.size()

    @property
    def sign(self) -> int:
        return (-1) ** self.height

    def to_json(self) -> dict:
        return {
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
            "height": self.height,
            "top_right": list(self.top_right),
            "bottom_left": list(self.bottom_left),
        }


def _bead_strip(
    outer: Partition, beads: list[int], i: int, r: int, inner: list[int]
) -> BorderStrip | None:
    """The r-strip of outer removed by raising beads[i] r places, or None.

    beads is outer's descending bead list, a list the caller owns, which
    _raise_bead moves in place; None means what it means there. The
    strip's top row is the moved bead's row i + 1, its bottom row i + 1 + height.
    """
    height = _raise_bead(beads, i, beads[i] - r, inner)
    if height is None:
        return None
    mu, last = _partition_of_beads(beads), i + 1 + height
    top_right, bottom_left = Box(i + 1, outer.part(i + 1)), Box(last, mu.part(last) + 1)
    return BorderStrip(outer, mu, height, top_right, bottom_left)


def border_strips(shape: Partition, s: int) -> list[BorderStrip]:
    """All removable s-border-strips of shape, one per bead with a gap s above.

    Every descending list of b distinct positions dominates the packed
    list of b beads, so against it a move fails only when its target is
    negative or holds a bead.
    """
    shape, s = _partition("shape", shape), _integer("strip length", s, 1)
    b = len(shape)
    beads, packed = _beads_of(shape, b), _beads_of((), b)
    strips = (_bead_strip(shape, beads.copy(), i, s, packed) for i in range(b))
    return [st for st in strips if st is not None]


def final_border_strip(skew: SkewPartition, r: int) -> BorderStrip | None:
    """The unique r-strip of the outer shape meeting row d, staying over the inner.

    d is the first row where the shapes differ. On the abacus the strip is
    the move of the bead encoding box (d, outer_d) one step of size r,
    which exists exactly when the position r above that bead is a gap and
    the moved bead list still dominates the inner shape's.
    """
    skew, r = _skew("skew", skew), _integer("strip length", r, 1)
    if skew.is_empty():
        raise EmptySkew(f"{skew.outer}/{skew.inner} has no boxes")
    lam = skew.outer
    b = len(lam)
    beads, inner = _beads_of(lam, b), _beads_of(skew.inner, b)
    # bead i encodes row i + 1, so the first differing bead is row d's
    i = next(j for j, (p, q) in enumerate(zip(beads, inner)) if p != q)
    return _bead_strip(lam, beads, i, r, inner)


class Decomposition(NamedTuple):
    """A maximal chain of final r-strip removals from outer down to inner."""

    chain: tuple[Partition, ...]
    strips: tuple[BorderStrip, ...]
    strip_length: int

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(st.height for st in self.strips)

    @property
    def sign(self) -> int:
        return (-1) ** sum(self.heights)

    def to_json(self) -> dict:
        return {
            "chain": [p.to_json() for p in self.chain],
            "heights": list(self.heights),
            "sign": self.sign,
        }


def r_decompose(skew: SkewPartition, r: int) -> Decomposition | None:
    """Greedy final-strip chain from outer to inner, or None if it gets stuck.

    Walks one bead list as _chain_sign does; a move leaves the beads
    before it equal to inner's, so the first differing index never drops.
    """
    skew, r = _skew("skew", skew), _integer("strip length", r, 1)
    if skew.size() % r != 0:
        return None
    b = len(skew.outer)
    beads, inner = _beads_of(skew.outer, b), _beads_of(skew.inner, b)
    chain, strips = [skew.outer], []
    for i in range(b):
        while beads[i] != inner[i]:
            strip = _bead_strip(chain[-1], beads, i, r, inner)
            if strip is None:
                return None
            strips.append(strip)
            chain.append(strip.inner)
    return Decomposition(tuple(chain), tuple(strips), r)


def _raise_bead(beads: list[int], i: int, target: int, inner: list[int]) -> int | None:
    """Move beads[i] up to target in place, keeping the list descending.

    beads and inner are descending bead positions at one bead count.
    Returns the strip height, the number of beads the moved bead passes,
    or None when target is negative, already holds a bead, or the moved
    list no longer dominates inner; beads is then left part-moved. Only
    the moved stretch is compared with inner, since the entries outside
    it keep their values.
    """
    if target < 0:
        return None
    n = len(beads)
    # the passed beads shift up one index each and the bead lands at j;
    # entries before i and after j keep their values
    j = i
    while j + 1 < n and beads[j + 1] > target:
        if beads[j + 1] < inner[j]:
            return None
        beads[j] = beads[j + 1]
        j += 1
    if (j + 1 < n and beads[j + 1] == target) or target < inner[j]:
        return None
    beads[j] = target
    return j - i


def order_independent_sign(lam: Partition, nu: Partition, r: int) -> int:
    """Common sign of every complete r-strip removal order from lam to nu, else 0.

    nu is reachable from lam exactly when, runner by runner, the bead
    counts agree and each bead's order-matched target is not below it,
    which is when single_step_moves finds a move sequence; the sign is
    then the inversion sign of that sequence.
    """
    lam, nu = _partition("lam", lam), _partition("nu", nu)
    r = _integer("strip length", r, 1)
    if not lam.contains(nu) or (lam.size() - nu.size()) % r != 0:
        return 0
    b = max(len(lam), len(nu))
    a, c = abacus_of(lam, b), abacus_of(nu, b)
    try:
        return inversion_sign(a, single_step_moves(a, c, r))[0]
    except IncompatibleAbaci:
        return 0


def _chain_sign(beads: list[int], inner: list[int], r: int) -> int:
    """Sign of the greedy final r-strip chain from beads down to inner, or 0.

    beads and inner are descending bead positions at one bead count, and
    r >= 1 (the loop would not end otherwise). Each step raises the bead
    at the first index where the lists differ r places, as
    final_border_strip does; an odd strip height flips the sign. 0 where
    r_decompose gets stuck, and where beads do not dominate inner to
    begin with (outer not containing inner), since entries only decrease.

    beads is moved in place, so the caller passes a list it owns and reads
    nothing from it afterwards: it equals inner after a nonzero result.
    """
    sign = 1
    for i in range(len(beads)):
        while beads[i] != inner[i]:
            height = _raise_bead(beads, i, beads[i] - r, inner)
            if height is None:
                return 0
            if height % 2:
                sign = -sign
    return sign


def sgn_r(skew: SkewPartition, r: int) -> int:
    """Sign of the final-strip chain, or 0 when the skew is not r-decomposable."""
    skew, r = _skew("skew", skew), _integer("strip length", r, 1)
    if skew.size() % r != 0:
        return 0
    lam, nu = skew.outer, skew.inner
    b = len(lam)
    return _chain_sign(_beads_of(lam, b), _beads_of(nu, b), r)


class RunnerType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


def _runner_type(src: list[int], dst: list[int]) -> tuple[RunnerType, range]:
    """Type of one runner, and its stuck run k1..k2 when type II (else empty).

    S = src and D = dst are the runner's ascending beads in the outer and
    inner abacus. Type I is S[k-1] < D[k] <= S[k] for every k: each bead
    rises within its own gap. Call k >= 1 stuck when D[k] <= S[k-1].
    Raising the bead at index e to a gap landing at index g shifts
    S[g..e-1] up one index, so the runner becomes type I only if every
    index in g+1..e is stuck (with D[k] > S[k-2] above g+1) and nothing
    else is, except possibly e+1; a raise moves no bead down, so a
    D[k] > S[k] stays. Conversely, raising S[k2] or S[k2-1] to a gap in
    D[k1-1]..D[k1]-1 lands it at index k1-1 and leaves a type I runner.
    """
    if any(d > s for s, d in zip(src, dst)):
        return RunnerType.III, range(0)
    stuck = [k for k in range(1, len(src)) if dst[k] <= src[k - 1]]
    if not stuck:
        return RunnerType.I, range(0)
    run = range(stuck[0], stuck[-1] + 1)
    if len(stuck) == len(run) and all(dst[k] > src[k - 2] for k in run[1:]):
        return RunnerType.II, run
    return RunnerType.III, range(0)


def _typed_runners(a: Abacus, c: Abacus, r: int):
    """(t, src, dst, type, stuck run) per runner holding a bead, in ascending t.

    A runner whose two bead counts differ raises IncompatibleAbaci.
    """
    for t, pair in _runner_buckets(a, c, r).items():
        src, dst = _runner_pair(t, *pair)
        yield (t, src, dst, *_runner_type(src, dst))


def classify_runner(a: Abacus, c: Abacus, r: int, t: int) -> RunnerType:
    """Type I: decomposable; II: one upward bead swap away; III: neither."""
    r, t = _integer("r", r, 1), _integer("t", t, None)
    buckets = _runner_buckets(a, c, r)
    _check_runner(r, t)
    return _runner_type(*_runner_pair(t, *buckets.get(t, ([], []))))[0]


def runner_types(a: Abacus, c: Abacus, r: int) -> dict[int, RunnerType | None]:
    """Type of each runner holding a bead of a or c, in ascending t, from one bucket pass.

    None marks a runner whose two bead counts differ; unequal total bead
    counts raise IncompatibleAbaci. A runner left out holds no bead and is
    type I.
    """
    r = _integer("r", r, 1)
    return {
        t: _runner_type(src, dst)[0] if len(src) == len(dst) else None
        for t, (src, dst) in _runner_buckets(a, c, r).items()
    }


def runner_profile(a: Abacus, c: Abacus, r: int) -> tuple[RunnerType, ...]:
    r = _integer("r", r, 1)
    profile = [RunnerType.I] * r
    for t, _, _, kind, _ in _typed_runners(a, c, r):
        profile[t] = kind
    return tuple(profile)


class PairingWitness(NamedTuple):
    """Data pairing two cancelling summands of the sign recursion.

    delta and delta_star are the distinguished beads on the type II
    runner, gamma the shared landing gap, P every (bead, gap) swap that
    makes the runner decomposable, mu and mu_star the partitions after
    the two single-strip removals, and J/J_star the bead-pair inversion
    sets of the two canonical move sequences (of opposite parity).
    """

    delta: int
    delta_star: int
    gamma: int
    alpha: int
    alpha_star: int
    P: frozenset[tuple[int, int]]
    mu: Partition
    mu_star: Partition
    J: frozenset[frozenset[int]]
    J_star: frozenset[frozenset[int]]

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "delta_star": self.delta_star,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "alpha_star": self.alpha_star,
            "P": sorted([e, g] for e, g in self.P),
            "mu": self.mu.to_json(),
            "mu_star": self.mu_star.to_json(),
            "J": sorted(sorted(p) for p in self.J),
            "J_star": sorted(sorted(p) for p in self.J_star),
        }


def pairing_witness(a: Abacus, c: Abacus, r: int) -> list[PairingWitness]:
    """Witnesses of pairwise cancellation, one per admissible gap gamma.

    Requires exactly one type II runner, the rest type I (a runner with no
    bead is type I). On that runner, with ascending beads S, targets D and
    stuck run k1..k2 (_runner_type), delta = S[k2] is the lowest stuck
    bead, delta_star = S[k2-1] its neighbour above, and the gaps gamma run
    from D[k1-1] up to (but excluding) D[k1].
    """
    r = _integer("r", r, 1)
    unfit = [x for x in _typed_runners(a, c, r) if x[3] is not RunnerType.I]
    if len(unfit) != 1 or unfit[0][3] is not RunnerType.II:
        named = ", ".join(f"{x[0]} ({x[3].value})" for x in unfit) or "none"
        raise NotTypeIICase(
            f"need one type II runner and the rest type I; runners not type I: {named}"
        )
    t, src, dst, _, run = unfit[0]
    if not run:
        raise AssertionError(f"type II runner {t} has no stuck bead")
    k1, k2 = run[0], run[-1]
    delta, delta_star = src[k2], src[k2 - 1]
    alpha, alpha_1, alpha_star = dst[k1 - 1], dst[k1], dst[k2]
    if alpha in a.bead_positions:
        raise AssertionError(f"runner {t}: landing position {alpha} holds a bead")

    gammas = list(range(alpha, alpha_1, r))
    # exactly the swaps of delta or delta_star into a gap gamma make the runner type I
    pair_set = frozenset((eps, g) for eps in (delta, delta_star) for g in gammas)

    walk = [BeadMove(p, p - r) for p in range(delta, delta_star, -r)]
    witnesses = []
    for gamma in gammas:
        b_ab = Abacus._trusted((a.bead_count, (a.bead_positions - {delta}) | {gamma}))
        tail = single_step_moves(b_ab, c, r)
        seq = [BeadMove(delta, gamma)] + tail
        seq_star = [BeadMove(delta_star, gamma)] + walk + tail
        _, inv = inversion_sign(a, seq)
        _, inv_star = inversion_sign(a, seq_star)
        if len(inv) % 2 == len(inv_star) % 2:
            raise AssertionError(f"gamma={gamma}: paired sequences share a parity")
        finals = final_positions(a, seq)
        if (finals[delta], finals[delta_star]) != (alpha, alpha_star):
            raise AssertionError(
                f"gamma={gamma}: beads {delta}, {delta_star} end at "
                f"{finals[delta]}, {finals[delta_star]}, not {alpha}, {alpha_star}"
            )
        mu_star = partition_of(
            Abacus._trusted((a.bead_count, (a.bead_positions - {delta_star}) | {gamma}))
        )
        witnesses.append(PairingWitness(
            delta, delta_star, gamma, alpha, alpha_star, pair_set,
            partition_of(b_ab), mu_star, inv, inv_star,
        ))
    return witnesses


class RecursionSummand(NamedTuple):
    """One term sgn(outer/mu) * sgn_r(mu/inner) of the sign recursion."""

    mu: Partition
    strip_length: int
    strip_sign: int
    tail_sign: int

    @property
    def value(self) -> int:
        return self.strip_sign * self.tail_sign


class SignRecursionReport(_Record):
    """Both sides of m * sgn_r = sum over strips, with every summand listed."""

    __slots__ = _fields = ("skew", "r", "m", "sgn_r_value", "summands")

    def __init__(
        self,
        skew: SkewPartition,
        r: int,
        m: int,
        sgn_r_value: int,
        summands: tuple[RecursionSummand, ...],
    ):
        set_field = object.__setattr__
        set_field(self, "skew", skew)
        set_field(self, "r", r)
        set_field(self, "m", m)
        set_field(self, "sgn_r_value", sgn_r_value)
        set_field(self, "summands", summands)

    @property
    def lhs(self) -> int:
        return self.m * self.sgn_r_value

    @property
    def rhs(self) -> int:
        return sum(s.value for s in self.summands)


# The memo of sign_recursion_check: three tables under one budget.
# _removals[(lam, r)] maps the index of each bead of lam's descending bead
# list, in report order, to that bead's group: the removals built so far,
# in ascending q, each stored as its zero-tail summand
# RecursionSummand(mu, q*r, strip sign, 0), the very object a report holds
# where sgn_r(mu/nu) is 0. A group is a list while it can grow and a tuple
# once it holds them all. _tails[(nu, r)] maps every mu signed so far to
# sgn_r(mu/nu). _shared maps each value to the one object the memo and the
# reports hold for it: every removal's mu and summand, and every
# nonzero-tail summand of a report (the first built for its value), so a
# shape or summand that many outer shapes meet is one object. _weight
# counts the bytes of the tables, set high: _GROUP_BYTES * (b + 4) for a
# shape of b beads or rows (its dict, key and slot come to at most 4
# groups' worth), _PART_BYTES * (len(mu) + 5) per removal, a part being a
# slot and an int object (the summand, mu's header, the group's slot and
# the two _shared slots fit in the 5), whether or not its mu and summand
# are shared, _SLOT_BYTES per tail, whose mu is a removal's, and
# _SUMMAND_BYTES per nonzero-tail summand in _shared (its 80-byte block and
# a slot). A call that finds _weight past _CAP empties all three tables
# first, so the memo holds at most _CAP plus the last call's own shapes,
# removals, tails and summands. A call holds _lock from the clear to its
# last weight update, so concurrent calls extend no group twice and lose
# no weight.
_CAP = 8 << 20
_GROUP_BYTES = 104
_PART_BYTES = 40
_SLOT_BYTES = 64
_SUMMAND_BYTES = 80 + _SLOT_BYTES
_removals: dict[tuple[Partition, int], dict[int, list | tuple]] = {}
_tails: dict[tuple[Partition, int], dict[Partition, int]] = {}
_shared: dict = {}
_weight = 0
_lock = threading.Lock()


def sign_recursion_check(skew: SkewPartition, r: int) -> SignRecursionReport:
    """Evaluate both sides of the strip-length recursion for sgn_r.

    Summands range over removals of a single border strip of length
    divisible by r whose complement mu still contains the inner shape
    nu, ordered by runner index, then by bead position descending, then
    by strip length. On the outer shape's descending bead list such a
    removal moves a bead beta to a free position beta - s >= 0, and its
    height is the number of beads passed.

    The pruning is: mu contains nu, first failure ends the bead's group.
    Every longer strip of that bead fails too: the bead then passes a
    superset of the same beads, each shifted to the same index as before,
    and where the moved list fell below nu's bead list at index j before,
    entry j now holds something lower still (the next passed bead, which
    sat below the old free target, or the lower new target). So the
    removals that keep nu are a prefix of each bead's group, and a strip
    longer than m*r, which leaves mu smaller than nu, is never reached.

    The removals depend on lam and r alone, so the memo (see its comment)
    keeps each bead's group per outer shape for every inner shape to walk.
    An unfinished group is extended before it is read when it is empty or
    its last stored removal keeps nu (by the pruning, when every stored
    one does): one _raise_bead move against nu's bead list per free
    target, after the last stored strip, up to the first that fails nu or
    to q = m. One loop then reads the group, old removals and new. So a
    call moves a bead only where a walk without the memo would, and the
    memo holds only removals that were summands of some call. A sweep
    meets most tails many times, so each tail sign sgn_r(mu/nu) is
    computed once (a new removal's on its moved bead list) and then read
    from the memo; a mu found there contains nu. The memo has no option
    and changes no report, == and repr alike, whatever it holds and in
    whatever order the skews come, and concurrent calls are safe.

    The left side sgn_r(lam/nu) is read off the report, not chained
    again: the greedy chain first raises the bead of the first row where
    lam and nu differ by r, the q = 1 removal at the head of that bead's
    group, and the rest of the chain is that removal's tail. So it is the
    removal's strip sign times its tail sign when the walk kept it, and 0
    otherwise (an occupied or negative target, or a mu not containing
    nu); an empty skew's is the empty chain's, 1. Bead lists are encoded
    only where they are read: lam's for a new outer shape or a group the
    walk extends, nu's for a tail the memo lacks or a removal it builds,
    so a call the memo answers in full encodes neither.
    """
    global _weight
    skew, r = _skew("skew", skew), _integer("strip length", r, 1)
    lam, nu = skew.outer, skew.inner
    size = sum(lam) - sum(nu)
    m, rest = divmod(size, r)
    if rest:
        raise NotDivisible(f"size {size} not divisible by {r}")
    if not m:
        # lam is nu: the empty chain, of sign 1, and no summands
        return SignRecursionReport(skew, r, 0, 1, ())
    # lam contains nu, so b beads hold both
    b = max(len(lam), 1)
    # the first row where the shapes differ: lam has a row past nu's last
    # when they agree on all of nu's
    first = next(compress(count(), map(ne, lam, nu)), len(nu))
    with _lock:
        if _weight > _CAP:
            _removals.clear()
            _tails.clear()
            _shared.clear()
            _weight = 0
        beads = inner = None
        groups = _removals.get((lam, r))
        if groups is None:
            beads = _beads_of(lam, b)
            # a stable sort by runner keeps each runner's positions descending
            order = sorted(range(b), key=lambda k: beads[k] % r)
            # a bead below r has no removal at all
            groups = _removals[lam, r] = {i: () if beads[i] < r else [] for i in order}
            _weight += _GROUP_BYTES * (b + 4)
        tails = _tails.get((nu, r))
        if tails is None:
            tails = _tails[nu, r] = {}
            _weight += _GROUP_BYTES * (len(nu) + 4)
        signed = len(tails)
        summands = []
        new = tuple.__new__  # a RecursionSummand, with no Python-level call
        intern = _shared.setdefault
        occupied = None
        for i, group in groups.items():
            # extend an unfinished group before reading it when its last
            # removal keeps nu (by the pruning, when all of them do)
            if type(group) is list and (
                not group or group[-1].mu in tails or group[-1].mu.contains(nu)
            ):
                if occupied is None:
                    if beads is None:
                        beads = _beads_of(lam, b)
                    if inner is None:
                        inner = _beads_of(nu, b)
                    occupied = set(beads)
                beta = beads[i]
                start = beta - (group[-1].strip_length if group else 0) - r
                for target in range(start, max(beta - size, 0) - 1, -r):
                    if target in occupied:
                        continue
                    moved = beads.copy()
                    height = _raise_bead(moved, i, target, inner)
                    if height is None:
                        break
                    mu = _partition_of_beads(moved)
                    mu = intern(mu, mu)
                    sign = -1 if height & 1 else 1
                    removal = new(RecursionSummand, (mu, beta - target, sign, 0))
                    group.append(intern(removal, removal))
                    _weight += _PART_BYTES * (len(mu) + 5)
                    if mu not in tails:
                        tails[mu] = _chain_sign(moved, inner, r)
                else:
                    # no target >= 0 is left untried
                    if beta < size + r:
                        groups[i] = group = tuple(group)
            for removal in group:
                mu, length, sign, _ = removal
                tail = tails.get(mu)
                if tail is None:
                    if not mu.contains(nu):
                        break
                    if inner is None:
                        inner = _beads_of(nu, b)
                    tail = tails[mu] = _chain_sign(_beads_of(mu, b), inner, r)
                if tail:
                    # the value table's object, the first built for this value
                    summand = new(RecursionSummand, (mu, length, sign, tail))
                    removal = intern(summand, summand)
                    if removal is summand:
                        _weight += _SUMMAND_BYTES
                summands.append(removal)
        _weight += _SLOT_BYTES * (len(tails) - signed)
        # the greedy chain's first move raises bead first by r, the q = 1
        # removal at the head of its group; the walk has signed its tail
        # exactly when that removal keeps nu
        lhs = 0
        group = groups[first]
        if group:
            mu, length, sign, _ = group[0]
            if length == r:
                tail = tails.get(mu)
                if tail is not None:
                    lhs = sign * tail
        return SignRecursionReport(skew, r, m, lhs, tuple(summands))
