"""Bead abacus encoding of partitions.

An abacus with b beads holds them at the positions lam_i + b - i
(1-based rows, missing parts read as zero). Position 0 is the top;
"above" always means a smaller position. Removing a border strip of
length s is the same as moving a bead from position beta to the gap at
beta - s, and the strip height equals the number of beads strictly
between the two positions.
"""

from __future__ import annotations

from operator import add, index
from typing import Iterable, NamedTuple, Sequence

from .partitions import Partition, _Checked, _integer, _integers, _list_of, _partition


class BeadCountTooSmall(ValueError):
    """Requested bead count is below the number of parts."""


class BadRunner(ValueError):
    """Runner index outside 0..r-1."""


class IllegalMove(ValueError):
    """A move in a sequence is not applicable; carries the failing index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"move {index}: {message}")
        self.index = index


class IncompatibleAbaci(ValueError):
    """Bead counts (total or per runner) differ between two abaci."""


class InvalidAbacus(ValueError):
    """An abacus argument is not an Abacus."""


class BeadMove(NamedTuple):
    from_position: int
    to_position: int


class _AbacusFields(NamedTuple):
    bead_count: int
    bead_positions: frozenset[int]


class Abacus(_Checked, _AbacusFields):
    """bead_count beads at distinct non-negative positions.

    An Abacus is the tuple (bead_count, bead_positions). Every
    constructor, _make and _replace included, checks the beads.
    """

    __slots__ = ()

    def __new__(cls, bead_count: int, bead_positions: Iterable[int]) -> "Abacus":
        bead_count = _integer("bead_count", bead_count, None)
        beads = frozenset(_integers("bead positions", bead_positions, ValueError))
        if any(p < 0 for p in beads):
            raise ValueError(f"bead positions must be non-negative: {sorted(beads)}")
        if len(beads) != bead_count:
            raise ValueError(f"bead_count {bead_count} != {len(beads)} distinct positions")
        return tuple.__new__(cls, (bead_count, beads))

    def has_bead(self, position: int) -> bool:
        return position in self.bead_positions

    def sorted_beads(self) -> list[int]:
        return sorted(self.bead_positions)

    def to_json(self) -> dict:
        return {"bead_count": self.bead_count, "beads": self.sorted_beads()}


def _abacus(name: str, abacus: Abacus) -> Abacus:
    """abacus itself if it is an Abacus, by partitions._partition's rule."""
    return _partition(name, abacus, Abacus, "abacus_of", InvalidAbacus)


def _beads_of(parts: tuple[int, ...], bead_count: int) -> list[int]:
    """Descending bead positions of a partition at bead_count >= its length."""
    padded = parts + (0,) * (bead_count - len(parts))
    # row i (1-based) sits at part i + bead_count - i
    return list(map(add, padded, range(bead_count - 1, -1, -1)))


def _partition_of_beads(beads: Sequence[int]) -> Partition:
    """Partition encoded by descending bead positions; inverse of _beads_of."""
    n = len(beads)
    # row i (1-based) of n beads has part beads[i - 1] + i - n
    parts = list(map(add, beads, range(1 - n, 1)))
    # the parts are weakly decreasing and non-negative, so the zeros end the list
    del parts[n - parts.count(0):]
    return Partition._trusted(parts)


def abacus_of(shape: Partition, bead_count: int | None = None) -> Abacus:
    """Abacus of a partition at a chosen bead count (defaults to the part count)."""
    shape = _partition("shape", shape)
    bead_count = len(shape) if bead_count is None else _integer("bead_count", bead_count, None)
    if bead_count < len(shape):
        raise BeadCountTooSmall(f"{bead_count} beads < {len(shape)} parts")
    return Abacus._trusted((bead_count, frozenset(_beads_of(shape, bead_count))))


def partition_of(abacus: Abacus) -> Partition:
    """Partition encoded by an abacus; inverse of abacus_of at any bead count."""
    abacus = _abacus("abacus", abacus)
    return _partition_of_beads(sorted(abacus.bead_positions, reverse=True))


def _check_runner(r: int, t: int) -> None:
    if not 0 <= t < r:
        raise BadRunner(f"runner {t} not in 0..{r - 1}")


def runner_beads(abacus: Abacus, r: int, t: int) -> list[int]:
    """Sorted bead positions lying on runner t."""
    abacus = _abacus("abacus", abacus)
    r, t = _integer("r", r, 1), _integer("t", t, None)
    _check_runner(r, t)
    return sorted(p for p in abacus.bead_positions if p % r == t)


def final_positions(abacus: Abacus, moves: Sequence[BeadMove]) -> dict[int, int]:
    """Apply moves left to right; map each bead's original position to its final one.

    Each move must be two integer positions; a float or a string is rejected.
    """
    abacus = _abacus("abacus", abacus)
    origin = {p: p for p in abacus.bead_positions}
    for i, move in enumerate(_list_of("moves", moves, "bead moves")):
        try:
            src, dst = map(index, move)
        except (TypeError, ValueError):
            raise IllegalMove(i, f"a move is two integer positions, got {move!r}") from None
        if src not in origin:
            raise IllegalMove(i, f"no bead at {src}")
        if dst in origin:
            raise IllegalMove(i, f"no gap at {dst}")
        if dst < 0:
            raise IllegalMove(i, f"negative position {dst}")
        origin[dst] = origin.pop(src)
    return {orig: pos for pos, orig in origin.items()}


def inversion_sign(abacus: Abacus, moves: Sequence[BeadMove]):
    """Sign (-1)^|J| where J holds the bead pairs whose order was inverted.

    A pair {beta, beta'} with beta < beta' lands in J when the bead that
    started at beta finishes strictly below the one that started at beta'.
    The product of the strip signs of any removal sequence equals this sign.
    """
    finals = final_positions(abacus, moves)
    beads = sorted(finals)
    inverted = set()
    for i, b1 in enumerate(beads):
        for b2 in beads[i + 1 :]:
            if finals[b1] > finals[b2]:
                inverted.add(frozenset((b1, b2)))
    return (-1) ** len(inverted), frozenset(inverted)


def _runner_buckets(source: Abacus, target: Abacus, r: int) -> dict[int, tuple[list, list]]:
    """{t: (source's, target's ascending beads on runner t)}, after the total-count check.

    The runners are those holding a bead of either abacus, in ascending t.
    An argument that is not an Abacus is named by its position, since the
    callers' names for the two differ.
    """
    _abacus("first abacus", source)
    _abacus("second abacus", target)
    if source.bead_count != target.bead_count:
        raise IncompatibleAbaci(f"bead counts {source.bead_count} != {target.bead_count}")
    buckets: dict[int, tuple[list, list]] = {}
    for side, abacus in enumerate((source, target)):
        for p in sorted(abacus.bead_positions):
            buckets.setdefault(p % r, ([], []))[side].append(p)
    return dict(sorted(buckets.items()))


def _runner_pair(t: int, src: list, dst: list) -> tuple[list, list]:
    """Runner t's two bead lists from _runner_buckets, once they are equal in number."""
    if len(src) != len(dst):
        raise IncompatibleAbaci(f"runner {t}: {len(src)} beads vs {len(dst)}")
    return src, dst


def single_step_moves(source: Abacus, target: Abacus, r: int) -> list[BeadMove]:
    """A canonical sequence of single-step (length r) moves from source to target.

    Beads never change runner under single-step moves, so per runner the
    k-th bead of the source must travel to the k-th position of the target;
    walking each runner top-down keeps every intermediate position free.
    Runners with no bead in either abacus match and are skipped.
    """
    r = _integer("r", r, 1)
    moves: list[BeadMove] = []
    for t, pair in _runner_buckets(source, target, r).items():
        for a, c in zip(*_runner_pair(t, *pair)):
            if c > a:
                raise IncompatibleAbaci(
                    f"runner {t}: bead at {a} cannot move down to {c}"
                )
            moves.extend(BeadMove(p, p - r) for p in range(a, c, -r))
    return moves
