"""Command line interface: expand, sgn, decompose, abacus, verify.

Partitions are written as comma separated weakly decreasing integers,
with `-` for the empty partition. Exit codes: 0 success, 1 verification
mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .abacus import abacus_of
from .oracle import oracle_plethystic_mn
from .partitions import (
    Partition,
    _Checked,
    _integer,
    make_partition,
    make_skew,
    partitions_of_size_containing,
    partitions_up_to,
)
from .strips import r_decompose, runner_types, sign_recursion_check
from .symfunc import plethystic_mn, plethystic_mn_multi


# `abacus` refuses a grid of more cells than this, runners x (rows + 1)
# with the header, before it prints
ABACUS_MAX_CELLS = 10**6


def _parse_partition(text: str) -> Partition:
    if text.strip() == "-":
        return make_partition([])
    try:
        return make_partition([int(x) for x in text.split(",")])
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {e}") from e


def _positive_int(text: str) -> int:
    """An integer >= 1: the bound on --m, --ms and --runners that no library call checks."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [_positive_int(x) for x in text.split(",")]
    except argparse.ArgumentTypeError as e:
        raise argparse.ArgumentTypeError(f"bad list {text!r}: {e}") from e


def _parse_range(text: str) -> tuple[int, int]:
    """a..b as a pair of ints; VerifyConfig checks the bounds."""
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected a..b") from None


class _VerifyBounds(NamedTuple):
    max_nu_size: int = 4
    r_range: tuple[int, int] = (1, 3)
    m_range: tuple[int, int] = (1, 3)
    max_degree: int = 12


def _bound_range(name: str, pair) -> tuple[int, int]:
    """pair as ints lo, hi with 1 <= lo <= hi, else a ValueError naming the range."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair, got {pair!r}") from None
    lo, hi = _integer(name, lo, None), _integer(name, hi, None)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad {name} {pair}")
    return lo, hi


class VerifyConfig(_Checked, _VerifyBounds):
    """Sweep bounds for the verify command, checked here only; _make and _replace too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "VerifyConfig":
        fields = super().__new__(cls, *args, **kwargs)
        max_nu_size = _integer("max_nu_size", fields.max_nu_size, None)
        max_degree = _integer("max_degree", fields.max_degree, None)
        if max_nu_size < 0 or max_degree < 0:
            raise ValueError("size bounds must be non-negative")
        r_range = _bound_range("r range", fields.r_range)
        m_range = _bound_range("m range", fields.m_range)
        return tuple.__new__(cls, (max_nu_size, r_range, m_range, max_degree))


def _format_partition(p: Partition) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def _partition_arg(parts) -> str:
    """A partition as the command line reads it, `-` when empty."""
    return ",".join(map(str, parts)) or "-"


def cmd_expand(args) -> int:
    if args.ms is not None:
        expansion = plethystic_mn_multi(args.nu, args.r, args.ms)
    else:
        expansion = plethystic_mn(args.nu, args.r, args.m)
    if args.format == "json":
        print(json.dumps(expansion.to_json()))
    else:
        print(expansion.render())
    return 0


def _runner_kinds(lam: Partition, nu: Partition, r: int) -> tuple[list[tuple[int, str]], int]:
    """The kind of each runner holding a bead, and the count of runners holding none.

    Kinds are pairs (t, `type I`/`II`/`III` or `bead counts differ`) in
    ascending t. A runner with no bead is type I and is only counted, so
    the report is sized by the beads, not by r.
    """
    b = max(len(lam), len(nu), 1)
    # both abaci hold b beads, so only a runner's own counts can differ
    kinds = [
        (t, "bead counts differ" if kind is None else f"type {kind.value}")
        for t, kind in runner_types(abacus_of(lam, b), abacus_of(nu, b), r).items()
    ]
    return kinds, r - len(kinds)


def cmd_sgn(args) -> int:
    lam, nu, r = args.lam, args.nu, args.r
    skew = make_skew(lam, nu)
    dec = r_decompose(skew, r)
    sign = 0 if dec is None else dec.sign
    if args.format == "json":
        kinds, empty = _runner_kinds(lam, nu, r)
        print(
            json.dumps(
                {
                    "lambda": lam.to_json(),
                    "nu": nu.to_json(),
                    "r": r,
                    "sign": sign,
                    "decomposition": None if dec is None else dec.to_json(),
                    "runners": kinds,
                    "empty_runners": empty,
                }
            )
        )
        return 0
    rendered = f"{sign:+d}" if sign else "0"
    print(f"sgn_{r}({_format_partition(lam)}/{_format_partition(nu)}) = {rendered}")
    if dec is None:
        kinds, empty = _runner_kinds(lam, nu, r)
        for t, kind in kinds:
            print(f"runner {t}: {kind}")
        print(f"runners with no bead: {empty} (type I)")
        return 0
    print("heights: " + ",".join(str(h) for h in dec.heights))
    if args.command == "decompose":
        for i, p in enumerate(dec.chain):
            print(f"mu^({i}) = {_format_partition(p)}")
    return 0


def cmd_abacus(args) -> int:
    lam, r = args.lam, args.runners
    beads = len(lam) if args.beads is None else args.beads
    # the top bead sits at lam_1 + beads - 1, so the grid is bounded before
    # a bead is built; a bead count below the part count is abacus_of's error
    rows = (lam.part(1) + beads - 1) // r + 1 if beads else 0
    # the header is one more row of the grid
    cells = r * (rows + 1)
    if beads >= len(lam) and cells > ABACUS_MAX_CELLS:
        raise ValueError(f"abacus grid of {cells} cells is over the bound of {ABACUS_MAX_CELLS}")
    a = abacus_of(lam, beads)
    w = max(len(str(r - 1)), 1)
    print(" ".join(f"{t:>{w}}" for t in range(r)))
    for row in range(rows):
        print(" ".join(f"{'X' if a.has_bead(row * r + t) else 'o':>{w}}" for t in range(r)))
    return 0


def _expansion_case(case) -> str | None:
    nu, r, m = case
    if plethystic_mn(nu, r, m) == oracle_plethystic_mn(nu, r, m):
        return None
    return (
        f"expansion mismatch at nu={list(nu)} r={r} m={m};"
        f" repro: plethabacus expand --nu {_partition_arg(nu)} --r {r} --m {m}"
    )


def _recursion_case(case) -> str | None:
    lam, nu, r = case
    report = sign_recursion_check(make_skew(lam, nu), r)
    if report.lhs == report.rhs:
        return None
    return (
        f"recursion mismatch at lambda={list(lam)} nu={list(nu)} r={r}:"
        f" lhs={report.lhs} rhs={report.rhs};"
        f" repro: plethabacus sgn --lambda {_partition_arg(lam)}"
        f" --nu {_partition_arg(nu)} --r {r}"
    )


def run_verify(config: VerifyConfig, out=None, err=None) -> int:
    """Sweep both identities inside the configured bounds; 0 iff all hold."""
    # resolve the streams late so callers may swap sys.stdout/sys.stderr
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    (r_lo, r_hi), (m_lo, m_hi) = config.r_range, config.m_range
    # every case of a nu has degree d = r*m + |nu|, so r*m > max_degree has
    # none, and neither has a nu larger than max_degree - r_lo*m_lo
    nus = list(partitions_up_to(min(config.max_nu_size, config.max_degree - r_lo * m_lo)))
    failures: list[tuple[int, str]] = []  # (degree, message)
    totals = {"expansion": 0, "recursion": 0}
    for r in range(r_lo, min(r_hi, config.max_degree // m_lo) + 1):
        for m in range(m_lo, min(m_hi, config.max_degree // r) + 1):
            fits = [(r * m + nu.size(), nu) for nu in nus]
            fits = [(d, nu) for d, nu in fits if d <= config.max_degree]
            recursions = [(d, (lam, nu, r)) for d, nu in fits
                          for lam in partitions_of_size_containing(d, nu)]
            for name, check, block in (
                ("expansion", _expansion_case, [(d, (nu, r, m)) for d, nu in fits]),
                ("recursion", _recursion_case, recursions),
            ):
                print(f"verify: {name} r={r} m={m}: {len(block)} cases", file=err, flush=True)
                totals[name] += len(block)
                for degree, case in block:
                    msg = check(case)
                    if msg:
                        failures.append((degree, msg))

    print(f"expansion vs determinant oracle: {totals['expansion']} cases", file=out)
    print(f"sign recursion: {totals['recursion']} cases", file=out)
    if failures:
        # the smallest degree first: min keeps the earliest of equal degrees
        _, first = min(failures, key=lambda failure: failure[0])
        print(f"FAIL: {len(failures)} mismatches; first: {first}", file=out)
        return 1
    print("PASS: all identities hold in the swept range", file=out)
    return 0


def cmd_verify(args) -> int:
    return run_verify(VerifyConfig._make(getattr(args, name) for name in VerifyConfig._fields))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethabacus",
        description="Signed Schur expansions of s_nu * (p_r applied to h_m) via the abacus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand s_nu * (p_r o h_m) in the Schur basis")
    p_expand.add_argument("--nu", type=_parse_partition, default=make_partition([]))
    p_expand.add_argument("--r", type=int, required=True)
    group = p_expand.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_positive_int)
    group.add_argument("--ms", type=_parse_int_list)
    p_expand.add_argument("--format", choices=["text", "json"], default="text")
    p_expand.set_defaults(handler=cmd_expand)

    for name, help_text in [
        ("sgn", "sign of the greedy r-strip decomposition"),
        ("decompose", "sign plus the full decomposition chain"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
        p.add_argument("--nu", type=_parse_partition, default=make_partition([]))
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(handler=cmd_sgn)

    p_abacus = sub.add_parser(
        "abacus",
        help="render the runner diagram of a partition",
        description=f"Render the runner diagram of a partition. A grid of more than "
        f"{ABACUS_MAX_CELLS} cells, runners x (rows + 1) with the header row, is refused.",
    )
    p_abacus.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
    p_abacus.add_argument(
        "--runners",
        type=_positive_int,
        required=True,
        help=f"runner count; runners x (rows + 1) may not pass {ABACUS_MAX_CELLS} cells",
    )
    p_abacus.add_argument("--beads", type=int, default=None)
    p_abacus.set_defaults(handler=cmd_abacus)

    p_verify = sub.add_parser("verify", help="sweep the expansion and recursion identities")
    p_verify.add_argument("--max-nu-size", type=int)
    p_verify.add_argument("--r-range", type=_parse_range)
    p_verify.add_argument("--m-range", type=_parse_range)
    p_verify.add_argument("--max-degree", type=int)
    p_verify.set_defaults(handler=cmd_verify, **VerifyConfig._field_defaults)
    return parser


def main(argv=None) -> int:
    """Run one command; a usage error exits 2 through parser.error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as e:
        # every ValueError of the library checks its input, and an
        # OverflowError is an integer too large for an index; broken
        # invariants raise AssertionError
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
