"""Partitions, skew shapes, their enumerators and Schur expansions.

Conventions: partitions store no trailing zeros, boxes are 1-based with
row 1 at the top (English orientation), and comparisons treat missing
parts as zeros.
"""

from __future__ import annotations

from operator import ge, index
from typing import Iterable, Iterator, NamedTuple


class InvalidPartition(ValueError):
    """Input is not a weakly decreasing sequence of non-negative integers.

    Also raised for a shape or skew argument that is not a Partition or a
    SkewPartition.
    """


class NotContained(ValueError):
    """Inner shape of a skew pair is not contained in the outer shape."""


def _integers(name: str, values: Iterable[int], error: type[ValueError]) -> list[int]:
    """The values as ints, else an error naming them; a float or a string is rejected."""
    try:
        return list(map(index, values))
    except TypeError as e:
        raise error(f"{name} must be integers: {e}") from None


def _integer(name: str, value: int, least: int | None) -> int:
    """value as an int >= least (any int for None), else a ValueError naming the argument.

    A float or a string is rejected, not truncated.
    """
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _list_of(name: str, values: Iterable, noun: str) -> Iterator:
    """An iterator over values, else a ValueError naming the argument and its entries."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of {noun}, got {values!r}") from None


class Box(NamedTuple):
    row: int
    column: int


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    A Partition is the tuple of its parts: it compares, orders and hashes
    as that plain tuple does, in C.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(_integers("parts", parts, InvalidPartition))
        if parts and min(parts) < 1:
            raise InvalidPartition(f"parts must be positive: {parts}")
        if not all(map(ge, parts, parts[1:])):
            raise InvalidPartition(f"parts must be weakly decreasing: {parts}")
        return tuple.__new__(cls, parts)

    # _trusted(parts): a Partition of parts valid by construction, with no
    # conversion or check. Only for callers that build positive weakly
    # decreasing ints themselves, as a tuple or a list (bead lists, the
    # enumerators, make_partition after its own checks); input from
    # outside goes through Partition(...) or make_partition. It is
    # tuple.__new__ itself, so a call runs no Python frame.
    _trusted = classmethod(tuple.__new__)

    parts = property(tuple, doc="The parts as a plain tuple; a copy, so hot loops use self.")

    def __repr__(self):
        return f"Partition{tuple(self)!r}"

    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the last row."""
        i = _integer("row", i, None)
        if i < 1:
            raise IndexError("rows are numbered from 1")
        return self[i - 1] if i <= len(self) else 0

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams, padding with zeros.

        Parts are positive, so other fits only if it has no more rows;
        the rows both shapes have are then compared pairwise.
        """
        return len(self) >= len(other) and all(map(ge, self, other))

    def boxes(self) -> Iterator[Box]:
        for i, row_len in enumerate(self, start=1):
            for j in range(1, row_len + 1):
                yield Box(i, j)

    def has_box(self, row: int, column: int) -> bool:
        row, column = _integer("row", row, None), _integer("column", column, None)
        return 1 <= row <= len(self) and 1 <= column <= self[row - 1]

    def to_json(self) -> list[int]:
        return list(self)


def make_partition(parts: Iterable[int]) -> Partition:
    """Build a Partition, stripping trailing zeros; rejects bad input.

    The input is converted and checked once here; the stripped list of
    positive weakly decreasing ints then needs no second pass.
    """
    seq = _integers("parts", parts, InvalidPartition)
    if seq:
        # a weakly decreasing list is non-negative when its last entry is;
        # only bad input pays for the min that picks the message
        if seq[-1] < 0 or not all(map(ge, seq, seq[1:])):
            if min(seq) < 0:
                raise InvalidPartition(f"negative part in {seq}")
            raise InvalidPartition(f"not weakly decreasing: {seq}")
        # the zeros of a weakly decreasing non-negative list end it
        if not seq[-1]:
            del seq[len(seq) - seq.count(0):]
    return Partition._trusted(seq)


def _partition(name: str, value, kind=Partition, builder="make_partition", error=InvalidPartition):
    """value itself if it is a kind, else an error naming the argument and its builder.

    The one rule for a record argument (Partition, SkewPartition, Abacus):
    a tuple, a list or None is rejected, not converted, so a public call
    checks each record once, where it enters. The defaults are the
    Partition's, so a shape check is one call.
    """
    if not isinstance(value, kind):
        a = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise error(f"{name} must be {a} {kind.__name__}, got {value!r}; build it with {builder}")
    return value


class _Checked(tuple):
    """First base of the NamedTuple records whose __new__ checks their fields.

    NamedTuple's own _make builds with tuple.__new__ and skips that
    check; this one calls the constructor, so _make and _replace check
    too. A record lists this base ahead of its fields.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    # _trusted(fields): a record of a field tuple valid by construction,
    # with no conversion or check, for callers that build the fields
    # themselves; input from outside goes through the constructor.
    _trusted = classmethod(tuple.__new__)


class _SkewFields(NamedTuple):
    outer: Partition
    inner: Partition


class SkewPartition(_Checked, _SkewFields):
    """A pair outer/inner with inner contained in outer.

    A SkewPartition is the tuple (outer, inner). Every constructor,
    _make and _replace included, checks that both are Partitions and
    that inner is contained in outer.
    """

    __slots__ = ()

    def __new__(cls, outer: Partition, inner: Partition) -> "SkewPartition":
        # both checks inline, and _partition only names the bad shape: a
        # sweep builds a skew per case
        if not (isinstance(outer, Partition) and isinstance(inner, Partition)):
            _partition("outer", outer)
            _partition("inner", inner)
        # Partition.contains, inline too
        if len(outer) < len(inner) or not all(map(ge, outer, inner)):
            raise NotContained(f"{inner} is not contained in {outer}")
        return tuple.__new__(cls, (outer, inner))

    def size(self) -> int:
        return self.outer.size() - self.inner.size()

    def is_empty(self) -> bool:
        return self.size() == 0

    def boxes(self) -> set[Box]:
        return {b for b in self.outer.boxes() if not self.inner.has_box(*b)}

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json()}


def make_skew(outer: Partition, inner: Partition) -> SkewPartition:
    """Build a skew shape of two Partitions; raises NotContained unless inner fits in outer."""
    return SkewPartition(outer, inner)


def _skew(name: str, skew: SkewPartition) -> SkewPartition:
    """skew itself if it is a SkewPartition, by _partition's rule."""
    return _partition(name, skew, SkewPartition, "make_skew")


class _Record:
    """Base of the immutable records that are not tuples.

    A subclass lists its fields in _fields, which are also its
    __slots__, and sets each once in construction with
    object.__setattr__. Equality, hash, repr and pickling follow the
    fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SchurExpansion(_Record):
    """Finitely supported integer combination of Schur functions of one degree.

    The constructor checks every term: its shape is a Partition of the
    degree and its coefficient an int, a float or a string rejected, not
    truncated. Terms with coefficient 0 are dropped.
    """

    __slots__ = _fields = ("degree", "terms")
    # the terms are a dict
    __hash__ = None

    def __init__(self, degree: int, terms: dict[Partition, int] | None = None):
        degree = _integer("degree", degree, 0)
        try:
            items = {}.items() if terms is None else terms.items()
        except AttributeError:
            raise ValueError(f"terms must be a dict of shape -> coeff, got {terms!r}") from None
        clean = {}
        for p, c in items:
            p = _partition("shape", p)
            c = _integer("coeff", c, None)
            if c:
                if p.size() != degree:
                    raise ValueError(f"{p} does not have degree {degree}")
                clean[p] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, degree: int, terms: dict[Partition, int]) -> "SchurExpansion":
        """An expansion of terms valid by construction, with no filter or check.

        Only for callers whose terms all have nonzero coefficients and
        shapes of the given degree by construction (the signed rules of
        symfunc); every other input goes through SchurExpansion(...).
        """
        e = object.__new__(cls)
        object.__setattr__(e, "degree", degree)
        object.__setattr__(e, "terms", terms)
        return e

    def items(self) -> list[tuple[Partition, int]]:
        """Terms sorted by partition, descending lexicographically."""
        return sorted(self.terms.items(), reverse=True)

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(p, 0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.items():
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else f"{abs(c)} "
            body = ",".join(map(str, p))
            bits.append(f"{sign} {mag}s[{body}]")
        return " ".join(bits)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [{"lambda": p.to_json(), "coeff": c} for p, c in self.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SchurExpansion":
        """Inverse of to_json; rejects a non-int number, a repeated shape and a missing field.

        A JSON boolean where an integer belongs (degree, a part of lambda,
        coeff) is rejected too, though Python reads it as 1 or 0.
        """
        degree, entries = _json_fields("expansion", data, "degree", "terms")
        _no_json_boolean("degree", degree)
        if not isinstance(entries, list):
            raise ValueError(f"terms must be a list, got {entries!r}")
        terms = {}
        for t in entries:
            parts, coeff = _json_fields("term", t, "lambda", "coeff")
            _no_json_boolean("lambda", parts)
            _no_json_boolean("coeff", coeff)
            try:
                p = make_partition(parts)
            except InvalidPartition as e:
                raise InvalidPartition(f"lambda must be a partition, got {parts!r}: {e}") from None
            if p in terms:
                raise ValueError(f"shape {p.to_json()} is repeated")
            terms[p] = coeff
        return cls(degree, terms)


def _json_fields(what: str, data: dict, *names: str) -> list:
    """The named fields of a JSON object, else a ValueError naming what is wrong."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for name in names:
        if name not in data:
            raise ValueError(f"{what} has no {name!r} field")
    return [data[name] for name in names]


def _no_json_boolean(name: str, value) -> None:
    """A ValueError naming the field if value, or an entry of a list value, is a bool.

    json reads true and false as bools, which are ints to the integer
    checks; only from_json rejects them, and Python callers keep them.
    """
    if isinstance(value, bool) or isinstance(value, list) and any(
        isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{name} holds a JSON boolean where an integer belongs, got {value!r}")


def partitions_of_size(n: int) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order."""
    return partitions_of_size_containing(n, Partition())


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions of every size from 0 through n; n is checked at the call."""
    n = _integer("n", n, None)
    return (p for k in range(n + 1) for p in partitions_of_size(k))


def partitions_of_size_containing(n: int, inner: Partition) -> Iterator[Partition]:
    """Partitions of n whose diagram contains inner, in descending lexicographic order.

    The usual reverse-lexicographic walk, with a least length per row
    (inner's part on inner's rows, 1 below them): the lowest row that can
    lose a box loses one, and the rows below it are refilled, each as long
    as the row above and the boxes inner still needs below it allow. Every
    shape built is kept, so none is filtered out. The arguments are
    checked at the call, not at the first shape.
    """
    return _containing(_integer("n", n, None), _partition("inner", inner))


def _containing(n: int, inner: Partition) -> Iterator[Partition]:
    """The walk of partitions_of_size_containing, on checked arguments."""
    if inner.size() > n:
        return
    least = [*inner, *[1] * (n - len(inner))]
    # needed[i]: the boxes inner has in its rows i, i + 1, ... (0-based)
    needed = [sum(inner[i:]) for i in range(n + 1)]
    rows, left = [], n  # left: the boxes of n not yet in rows
    while True:
        while left:
            row = min(rows[-1] if rows else n, left - needed[len(rows) + 1])
            rows.append(row)
            left -= row
        yield Partition._trusted(rows)
        while rows and rows[-1] == least[len(rows) - 1]:
            left += rows.pop()
        if not rows:
            return
        rows[-1] -= 1
        left += 1
