"""One pass of a workload in a fresh interpreter, started by run.py.

The pass imports plethabacus from the checkout's `src`, builds the case
list, runs every case once (traced or not), then checks the outputs
outside the timed region. It prints one JSON object as its last line.
With --setup-only it stops once the case list is ready.

Next to its wall time the pass reports `ref_wall_s`, its time at a
reference speed of the host (calibration.py says how); the calibration
loops are part of neither figure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import plethabacus as pb

    if Path(pb.__file__).resolve().parent != SRC / "plethabacus":
        print(f"error: imported plethabacus from {pb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibration
    import workloads

    cases = workloads.build_cases(args.workload, args.seed, args.limit)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    loop = calibration.LOOPS[args.workload]()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(pb)
        tracer.install()
    outputs = []
    chunks, cals = [], [loop()]
    in_chunk = 0.0
    for case in cases:
        t = time.perf_counter()
        try:
            outputs.append(workloads.run_case(pb, args.workload, case))
        except Exception as e:  # a failing case is counted, not fatal
            outputs.append(e)
        in_chunk += time.perf_counter() - t
        if in_chunk >= calibration.CHUNK_S or len(outputs) == len(cases):
            chunks.append(in_chunk)
            cals.append(loop())
            in_chunk = 0.0
    result["wall_s"] = sum(chunks)
    result["ref_wall_s"] = calibration.at_reference_speed(chunks, cals, loop.ref_s)
    result["cal_s"] = cals
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(TRACE_DIR / f"trace_{args.workload}.bin")

    reference = None
    if args.workload in workloads.REFERENCED:
        reference = workloads.load_reference(args.workload)
    failures = []
    terms = 0
    for case, output in zip(cases, outputs):
        reason = workloads.check_output(args.workload, case, output, reference)
        if reason is not None:
            failures.append(f"{workloads.case_key(case)}: {reason}")
        elif not isinstance(output, Exception):
            terms += workloads.output_terms(case, output)
    result.update(
        attempted=len(cases), failed=len(failures), terms=terms, failures=failures[:5]
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
