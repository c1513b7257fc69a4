"""Benchmark of plethabacus: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload expand_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/plethabacus`. Every
pass of the workload runs in a fresh interpreter (worker.py), one at a
time, so imports and the oracle's module caches start cold, as they do
for a user of `plethabacus expand`/`verify`.

--trace 0 runs set-up probes, then whole passes until --seconds have
been measured, and reports the end-to-end metrics: ref_wall_s, the time
to solution of the whole case list at a reference speed of the host
(calibration.py says how), and peak_rss_mb as medians over the
passes, and setup_s as the median over the probes and passes together.
--trace 1 runs import-time probes, one untraced pass and one traced
pass, and reports the per-layer metrics with the tracing overhead.

Names and units of the metrics come from BENCHMARK.json. The last line
of standard output is the JSON result; every line before it is for
people. Exit code 0 with a result, 1 when a pass fails to run, 2 on a
usage error or a checkout without the library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
IMPORT_PROBES = 3
# a run must end within 180 s; passes stop being started before that
DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    """A worker process exited with an error or ran past the deadline."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="plethabacus benchmark, one workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--limit", type=int, default=None, help="first N cases only (self-tests)")
    return p.parse_args(argv)


def run_worker(args, deadline: float, *flags: str, python_flags=()) -> tuple[dict, str]:
    """Start one worker, wait for it, and return its result and stderr."""
    cmd = [sys.executable, *python_flags, str(WORKER), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), *flags]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("deadline reached before the pass could start")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired as e:
        raise PassFailed(f"pass ran past the {DEADLINE_S:.0f} s deadline") from e
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_seconds(importtime_log: str, module: str) -> float:
    """Cumulative import time of `module` from a `-X importtime` log, 0 if absent."""
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) == 3 and fields[2].strip() == module and fields[1].strip().isdigit():
            return int(fields[1]) / 1e6
    return 0.0


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [run_worker(args, deadline, "--setup-only")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() - start < args.seconds
        and time.monotonic() + 2 * passes[-1]["wall_s"] < deadline
    ):
        passes.append(run_worker(args, deadline)[0])
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "ref_wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    numpy_s, package_s = [], []
    for _ in range(IMPORT_PROBES):
        _, log = run_worker(args, deadline, "--setup-only", python_flags=("-X", "importtime"))
        numpy_s.append(import_seconds(log, "numpy"))
        package_s.append(import_seconds(log, "plethabacus"))
    untraced = run_worker(args, deadline)[0]
    traced = run_worker(args, deadline, "--trace")[0]
    metrics = dict(traced["layers"])
    metrics.update(
        {
            "setup.numpy_import_s": statistics.median(numpy_s),
            "setup.plethabacus_import_s": statistics.median(package_s),
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": untraced["wall_s"],
            "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        }
    )
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "plethabacus" / "__init__.py").is_file():
        print(f"error: no plethabacus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, passes = (per_layer if args.trace else end_to_end)(args, deadline)
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for reason in p["failures"]:
            print(f"failed case {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes of"
        f" {passes[0]['attempted']} cases, {passes[0]['terms']} terms each;"
        f" {failed} of {attempted} failed"
    )
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"  wall time of each pass: {walls} s")
    cals = ", ".join(f"{1e3 * statistics.median(p['cal_s']):.2f}" for p in passes)
    print(f"  median calibration loop of each pass: {cals} ms")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
