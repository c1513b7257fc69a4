"""Regenerate reference/<workload>.json for expand_sweep and recursion_sweep.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Each case's output is stored as a term count (or sgn_r value) and a
digest. Before anything is written, the outputs are checked by means
that do not share the code under test:

- expand_sweep expansions of degree <= 11 equal the polynomial oracle's;
- every plethystic_mn coefficient equals order_independent_sign(lam, nu, r);
- every sign recursion report has lhs == rhs, and a nonzero sgn_r equals
  order_independent_sign.

The script exits 1 and writes nothing if any check fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import plethabacus as pb  # noqa: E402
from plethabacus import oracle  # noqa: E402

import workloads  # noqa: E402

ORACLE_MAX_DEGREE = 11


def oracle_expansion(case: tuple):
    """The case's expansion computed only with the polynomial oracle."""
    kind, nu_parts = case[0], case[1]
    n = max(workloads.case_degree(case), 1)
    nu = pb.make_partition(nu_parts)
    if kind == "pmn":
        return oracle.oracle_plethystic_mn(nu, case[2], case[3])
    if kind == "multi":
        factors = [(case[2], m) for m in case[3]]
    else:
        factors = [(r, case[3]) for r in case[2]]
    f = oracle.poly_schur(nu, n)
    for r, m in factors:
        f = f * oracle.pleth_pr(oracle.poly_h(m, n), r)
    return oracle.schur_decompose(f)


def check_expansion(case: tuple, expansion) -> list[str]:
    problems = []
    if case[0] == "pmn":
        nu = pb.make_partition(case[1])
        for lam, coeff in expansion.terms.items():
            if pb.order_independent_sign(lam, nu, case[2]) != coeff:
                problems.append(f"coefficient of {lam} is not order_independent_sign")
    if workloads.case_degree(case) <= ORACLE_MAX_DEGREE:
        if oracle_expansion(case) != expansion:
            problems.append("differs from the polynomial oracle")
    return problems


def check_report(case: tuple, report) -> list[str]:
    _, lam, nu, r = case
    problems = []
    if report.lhs != report.rhs:
        problems.append(f"lhs {report.lhs} != rhs {report.rhs}")
    if report.sgn_r_value and report.sgn_r_value != pb.order_independent_sign(
        pb.make_partition(lam), pb.make_partition(nu), r
    ):
        problems.append("sgn_r is not order_independent_sign")
    return problems


def main() -> int:
    problems = []
    tables = {}
    for workload in workloads.REFERENCED:
        start = time.perf_counter()
        entries = {}
        oracle_checked = 0
        for case in workloads.build_cases(workload, seed=0):
            output = workloads.run_case(pb, workload, case)
            if case[0] == "rec":
                found = check_report(case, output)
            else:
                found = check_expansion(case, output)
                oracle_checked += workloads.case_degree(case) <= ORACLE_MAX_DEGREE
            problems += [f"{workloads.case_key(case)}: {p}" for p in found]
            entries[workloads.case_key(case)] = workloads.reference_entry(case, output)
        if workload == "expand_sweep":
            entry = "[term count, digest]"
            checked = (
                f"{oracle_checked} cases of degree <= {ORACLE_MAX_DEGREE} equal the oracle;"
                " every plethystic_mn coefficient equals order_independent_sign"
            )
        else:
            entry = "[sgn_r, digest]"
            checked = "lhs == rhs; every nonzero sgn_r equals order_independent_sign"
        tables[workload] = (
            {
                "workload": workload,
                "library_version": pb.__version__,
                "entry": entry,
                "checked": checked,
            },
            entries,
        )
        print(
            f"{workload}: {len(entries)} cases, {oracle_checked} checked against the"
            f" oracle, {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
        )
    if problems:
        for p in problems[:20]:
            print(f"FAIL {p}", file=sys.stderr)
        print(f"{len(problems)} problems; nothing written", file=sys.stderr)
        return 1
    for workload, (header, entries) in tables.items():
        # one case per line, so that a changed reference reads as a small diff
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
        head = json.dumps(header)[:-1]
        text = head + ', "cases": {\n' + ",\n".join(lines) + "\n}}\n"
        (workloads.REFERENCE_DIR / f"{workload}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
