"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import plethabacus as pb  # noqa: E402

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int, limit: int = 4):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--limit", str(limit)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def small_cases(workload: str, per_kind: int = 2) -> list[tuple]:
    """The lowest-degree cases of each kind the workload has."""
    cases = sorted(workloads.build_cases(workload, seed=0), key=workloads.case_degree)
    picked = []
    for kind in dict.fromkeys(c[0] for c in cases):
        picked += [c for c in cases if c[0] == kind][:per_kind]
    return picked


def output_form(output):
    if isinstance(output, tuple):
        return [workloads.expansion_form(x) for x in output]
    if hasattr(output, "summands"):
        return workloads.report_form(output)
    return workloads.expansion_form(output)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(workload, trace, section):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "expand_sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_exception_counts_as_a_failed_case():
    case = ("pmn", (1,), 0, 1)  # r = 0 is rejected by plethystic_mn
    try:
        output = workloads.run_case(pb, "oracle_check", case)
    except ValueError as e:
        output = e
    assert workloads.check_output("oracle_check", case, output, None).startswith("ValueError")


def test_output_differing_from_its_reference_is_caught():
    case, other = ("pmn", (1,), 2, 1), ("pmn", (1,), 1, 2)
    output = workloads.run_case(pb, "expand_sweep", case)
    reference = {workloads.case_key(case): workloads.reference_entry(case, output)}
    assert workloads.check_output("expand_sweep", case, output, reference) is None
    wrong = workloads.run_case(pb, "expand_sweep", other)
    assert workloads.check_output("expand_sweep", case, wrong, reference) is not None


def test_every_workload_has_a_calibration_loop():
    assert set(calibration.LOOPS) == set(workloads.WORKLOADS)
    for loop_class in set(calibration.LOOPS.values()):
        assert loop_class()() > 0


def test_chunks_are_scaled_by_the_loop_times_around_them():
    # loop at the reference time, then at twice it: the second chunk counts half
    assert calibration.at_reference_speed([1.0, 3.0], [0.5, 0.5, 1.5], 0.5) == 2.5


def test_import_seconds_reads_cumulative_time():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |      14000 |   numpy\n"
        "import time:       300 |      21000 | plethabacus\n"
    )
    assert run.import_seconds(log, "numpy") == 0.014
    assert run.import_seconds(log, "plethabacus") == 0.021
    assert run.import_seconds(log, "scipy") == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_the_untraced_outputs(workload):
    cases = small_cases(workload)
    plain = [output_form(workloads.run_case(pb, workload, c)) for c in cases]
    with tracing.Tracer(pb) as tracer:
        traced = [output_form(workloads.run_case(pb, workload, c)) for c in cases]
    assert traced == plain
    assert len(tracer.span_start) > 0


def _bindings():
    """Every attribute of every plethabacus module, plus the two patched methods."""
    out = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "plethabacus" or name.startswith("plethabacus.")
        for attr, value in vars(module).items()
    }
    out["Partition.part"] = pb.Partition.__dict__["part"]
    out["MultivariatePolynomial.__mul__"] = pb.MultivariatePolynomial.__dict__["__mul__"]
    return out


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    original = pb.strips.r_decompose
    tracer = tracing.Tracer(pb)
    tracer.install()
    try:
        # one wrapper, bound everywhere the original was
        assert pb.strips.r_decompose is not original
        assert pb.r_decompose is pb.strips.r_decompose is pb.symfunc.r_decompose
        assert pb.Partition.__dict__["part"] is not before["Partition.part"]
        with pytest.raises(pb.NotContained):
            pb.make_skew(pb.make_partition([1]), pb.make_partition([2]))
        workloads.run_case(pb, "recursion_sweep", ("rec", (2, 1), (1,), 1))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer._stack == [-1]


def test_self_times_partition_the_traced_time():
    with tracing.Tracer(pb) as tracer:
        for case in small_cases("expand_sweep"):
            workloads.run_case(pb, "expand_sweep", case)
    stats = tracer.stats()
    roots = sum(
        tracer.span_end[i] - tracer.span_start[i]
        for i in range(len(tracer.span_start))
        if tracer.span_parent[i] < 0
    )
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(roots, rel=1e-9)
    assert all(0 <= s["self_s"] <= s["total_s"] + 1e-12 or s["calls"] == 0 for s in stats.values())
    metrics = tracing.layer_metrics(tracer)
    assert metrics["symfunc.fold.calls"] == 4 and metrics["strips.accept_ratio"] == 1.0
    assert metrics["partitions.Partition.part.calls"] > 0


def test_written_trace_reads_back(tmp_path):
    with tracing.Tracer(pb) as tracer:
        workloads.run_case(pb, "recursion_sweep", ("rec", (3, 1), (1,), 1))
    tracer.write(tmp_path / "t.bin")
    names, rows = tracing.read_trace(tmp_path / "t.bin")
    assert names == tracer.names
    assert rows == list(
        zip(tracer.span_name, tracer.span_parent, tracer.span_start, tracer.span_end)
    )


@pytest.mark.parametrize("workload", workloads.REFERENCED)
def test_reference_covers_every_case(workload):
    keys = {workloads.case_key(c) for c in workloads.build_cases(workload, seed=0)}
    assert set(workloads.load_reference(workload)) == keys
