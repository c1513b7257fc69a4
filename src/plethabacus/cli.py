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

from .abacus import IncompatibleAbaci, _runner_buckets, _runner_pair, abacus_of
from .oracle import oracle_plethystic_mn
from .partitions import (
    Partition,
    _integer,
    make_partition,
    make_skew,
    partitions_of_size_containing,
    partitions_up_to,
)
from .strips import _runner_type, r_decompose, sign_recursion_check
from .symfunc import plethystic_mn, plethystic_mn_multi


def _parse_partition(text: str) -> Partition:
    if text.strip() == "-":
        return make_partition([])
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return make_partition(parts)
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
    out = [_positive_int(x) for x in text.split(",") if x.strip() != ""]
    if not out:
        raise argparse.ArgumentTypeError("empty integer list")
    return out


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


class VerifyConfig(_VerifyBounds):
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

    @classmethod
    def _make(cls, iterable) -> "VerifyConfig":
        return cls(*iterable)


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


def _runner_kinds(lam: Partition, nu: Partition, r: int) -> list[str]:
    """Per runner t of r, `type I`/`II`/`III` or `bead counts differ`."""
    b = max(len(lam), len(nu), 1)
    # both abaci hold b beads, so only a runner's own counts can differ
    buckets = _runner_buckets(abacus_of(lam, b), abacus_of(nu, b), r)
    kinds = ["type I"] * r  # a runner with no bead
    for t in buckets[0].keys() | buckets[1].keys():
        try:
            kinds[t] = f"type {_runner_type(*_runner_pair(buckets, t))[0].value}"
        except IncompatibleAbaci:
            kinds[t] = "bead counts differ"
    return kinds


def cmd_sgn(args, full_chain: bool) -> int:
    lam, nu, r = args.lam, args.nu, args.r
    skew = make_skew(lam, nu)
    dec = r_decompose(skew, r)
    sign = 0 if dec is None else dec.sign
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": lam.to_json(),
                    "nu": nu.to_json(),
                    "r": r,
                    "sign": sign,
                    "decomposition": None if dec is None else dec.to_json(),
                    "runners": _runner_kinds(lam, nu, r),
                }
            )
        )
        return 0
    rendered = f"{sign:+d}" if sign else "0"
    print(f"sgn_{r}({_format_partition(lam)}/{_format_partition(nu)}) = {rendered}")
    if dec is None:
        for t, kind in enumerate(_runner_kinds(lam, nu, r)):
            print(f"runner {t}: {kind}")
        return 0
    print("heights: " + ",".join(str(h) for h in dec.heights))
    if full_chain:
        for i, p in enumerate(dec.chain):
            print(f"mu^({i}) = {_format_partition(p)}")
    return 0


def cmd_abacus(args) -> int:
    a = abacus_of(args.lam, args.beads)
    r = args.runners
    w = max(len(str(r - 1)), 1)
    print(" ".join(f"{t:>{w}}" for t in range(r)))
    rows = (max(a.bead_positions) // r + 1) if a.bead_positions else 0
    for row in range(rows):
        print(" ".join(f"{'X' if a.has_bead(row * r + t) else 'o':>{w}}" for t in range(r)))
    return 0


def _expansion_case(case) -> tuple[bool, str]:
    nu, r, m = case
    ours = plethystic_mn(nu, r, m)
    truth = oracle_plethystic_mn(nu, r, m)
    if ours == truth:
        return True, ""
    return False, (
        f"expansion mismatch at nu={list(nu)} r={r} m={m};"
        f" repro: plethabacus expand --nu {_partition_arg(nu)} --r {r} --m {m}"
    )


def _recursion_case(case) -> tuple[bool, str]:
    lam, nu, r = case
    report = sign_recursion_check(make_skew(lam, nu), r)
    if report.lhs == report.rhs:
        return True, ""
    return False, (
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
    nus = list(partitions_up_to(config.max_nu_size))
    failures: list[tuple[int, str]] = []  # (degree, message)
    totals = {"expansion": 0, "recursion": 0}
    (r_lo, r_hi), (m_lo, m_hi) = config.r_range, config.m_range
    # every case of a nu has degree d = r*m + |nu|, so r*m > max_degree has none
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
                    ok, msg = check(case)
                    if not ok:
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
    bounds = args.max_nu_size, args.r_range, args.m_range, args.max_degree
    return run_verify(VerifyConfig(*bounds))


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

    for name, help_text in [
        ("sgn", "sign of the greedy r-strip decomposition"),
        ("decompose", "sign plus the full decomposition chain"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
        p.add_argument("--nu", type=_parse_partition, default=make_partition([]))
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_abacus = sub.add_parser("abacus", help="render the runner diagram of a partition")
    p_abacus.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
    p_abacus.add_argument("--runners", type=_positive_int, required=True)
    p_abacus.add_argument("--beads", type=int, default=None)

    p_verify = sub.add_parser("verify", help="sweep the expansion and recursion identities")
    p_verify.add_argument("--max-nu-size", type=int, default=4)
    p_verify.add_argument("--r-range", type=_parse_range, default=(1, 3))
    p_verify.add_argument("--m-range", type=_parse_range, default=(1, 3))
    p_verify.add_argument("--max-degree", type=int, default=12)
    return parser


def main(argv=None) -> int:
    """Run one command; a usage error exits 2 through parser.error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            return cmd_expand(args)
        if args.command in ("sgn", "decompose"):
            return cmd_sgn(args, full_chain=args.command == "decompose")
        if args.command == "abacus":
            return cmd_abacus(args)
        if args.command == "verify":
            return cmd_verify(args)
    except ValueError as e:
        # every ValueError of the library checks its input; broken invariants
        # raise AssertionError
        parser.error(str(e))
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
