"""Case lists, per-case calls and output checks for the three workloads.

Every case is a plain tuple that names one call into the public API of
`plethabacus`. The set of cases of a workload is fixed; the seed only
shuffles their order. Calls go through the package object passed in, at
call time, so that functions the tracer patches are the ones used.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("expand_sweep", "recursion_sweep", "oracle_check")

# Workloads whose outputs are compared with stored reference digests;
# oracle_check compares the two halves of the library with each other.
REFERENCED = ("expand_sweep", "recursion_sweep")

MULTI_MS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1))
POWER_RS = ((1, 2), (2, 2), (2, 3), (1, 2, 3))


def _partitions_up_to(n: int) -> list[tuple[int, ...]]:
    """Partitions of 0..n as part tuples, ascending size, descending lex.

    The case lists are built without the library, so that a change to
    `plethabacus.partitions` cannot change which cases are run.
    """

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [p for k in range(n + 1) for p in gen(k, k)]


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(outer) >= len(inner) and all(a >= b for a, b in zip(outer, inner))


def _expand_cases() -> list[tuple]:
    """plethystic_mn for |nu|<=8, r,m<=5, degree<=24; then the two folds for |nu|<=4."""
    cases = []
    for nu in _partitions_up_to(8):
        for r in range(1, 6):
            for m in range(1, 6):
                if sum(nu) + r * m <= 24:
                    cases.append(("pmn", nu, r, m))
    small = _partitions_up_to(4)
    for nu in small:
        for r in range(1, 4):
            for ms in MULTI_MS:
                cases.append(("multi", nu, r, ms))
    for nu in small:
        for rs in POWER_RS:
            for m in range(1, 3):
                cases.append(("power", nu, rs, m))
    return cases


def _recursion_cases() -> list[tuple]:
    """Every skew lam/nu with |nu|<=4, r<=3, rm<=10: acceptance 5's range."""
    cases = []
    nus = _partitions_up_to(4)
    by_size: dict[int, list] = {}
    for r in range(1, 4):
        for m in range(1, 10 // r + 1):
            for nu in nus:
                n = r * m + sum(nu)
                if n not in by_size:
                    by_size[n] = [p for p in _partitions_up_to(n) if sum(p) == n]
                for lam in by_size[n]:
                    if _contains(lam, nu):
                        cases.append(("rec", lam, nu, r))
    return cases


def _oracle_cases() -> list[tuple]:
    """The `verify` default sweep's expansion cases, cut at degree 10.

    Degree 11 is left out: one of its two cases spends ~8 s filling the
    oracle's degree-11 Schur vector cache, which would make each pass one
    long case whose speed the calibration between cases cannot follow.
    """
    return [
        ("pmn", nu, r, m)
        for r in range(1, 4)
        for m in range(1, 4)
        for nu in _partitions_up_to(4)
        if sum(nu) + r * m <= 10
    ]


_CASE_LISTS = {
    "expand_sweep": _expand_cases,
    "recursion_sweep": _recursion_cases,
    "oracle_check": _oracle_cases,
}


def build_cases(workload: str, seed: int, limit: int | None = None) -> list[tuple]:
    """The workload's cases in a seeded order; `limit` keeps the first ones built."""
    cases = _CASE_LISTS[workload]()
    if limit is not None:
        cases = cases[:limit]
    random.Random(seed).shuffle(cases)
    return cases


def case_key(case: tuple) -> str:
    """Stable text name of a case, used as its reference key."""
    return "|".join(
        ",".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in case
    )


def case_degree(case: tuple) -> int:
    kind = case[0]
    if kind == "pmn":
        _, nu, r, m = case
        return sum(nu) + r * m
    if kind == "multi":
        _, nu, r, ms = case
        return sum(nu) + r * sum(ms)
    if kind == "power":
        _, nu, rs, m = case
        return sum(nu) + sum(rs) * m
    _, lam, _, _ = case
    return sum(lam)


def run_case(pb, workload: str, case: tuple):
    """The library calls one case makes; the result is checked later."""
    kind = case[0]
    if kind == "rec":
        _, lam, nu, r = case
        return pb.sign_recursion_check(
            pb.make_skew(pb.make_partition(lam), pb.make_partition(nu)), r
        )
    nu = pb.make_partition(case[1])
    if kind == "multi":
        return pb.plethystic_mn_multi(nu, case[2], list(case[3]))
    if kind == "power":
        return pb.power_product_pleth(nu, list(case[2]), case[3])
    ours = pb.plethystic_mn(nu, case[2], case[3])
    if workload == "oracle_check":
        return ours, pb.oracle_plethystic_mn(nu, case[2], case[3])
    return ours


def expansion_form(expansion) -> list:
    """Terms of a SchurExpansion as sorted [parts, coefficient] pairs."""
    return sorted([list(p.parts), c] for p, c in expansion.terms.items())


def report_form(report) -> list:
    """sgn_r and the ordered summands of a SignRecursionReport."""
    return [
        report.sgn_r_value,
        report.m,
        [[list(s.mu.parts), s.strip_length, s.strip_sign, s.tail_sign] for s in report.summands],
    ]


def digest(form) -> str:
    text = json.dumps(form, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def output_terms(case: tuple, output) -> int:
    """Schur terms in an expansion result; recursion reports count none."""
    if case[0] == "rec":
        return 0
    if isinstance(output, tuple):
        output = output[0]
    return len(output.terms)


def reference_entry(case: tuple, output) -> list:
    """[term count or sgn_r value, digest] stored for a referenced case."""
    if case[0] == "rec":
        return [output.sgn_r_value, digest(report_form(output))]
    return [len(output.terms), digest(expansion_form(output))]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)["cases"]


def check_output(workload: str, case: tuple, output, reference: dict | None) -> str | None:
    """None when the output is right, else a one-line reason."""
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}"
    if workload == "oracle_check":
        ours, truth = output
        if ours != truth:
            return "plethystic_mn differs from oracle_plethystic_mn"
        return None
    if case[0] == "rec" and output.lhs != output.rhs:
        return f"recursion lhs {output.lhs} != rhs {output.rhs}"
    want = reference.get(case_key(case))
    if want is None:
        return "no reference entry"
    got = reference_entry(case, output)
    if got != want:
        return f"output {got} != reference {want}"
    return None
