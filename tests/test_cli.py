import ast
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import plethabacus.cli as cli
import plethabacus.strips as strips
from plethabacus.partitions import make_partition
from plethabacus.strips import SignRecursionReport
from plethabacus.symfunc import SchurExpansion, plethystic_mn, plethystic_mn_multi


def run_cli(capsys, args):
    try:
        code = cli.main(args)
    except SystemExit as e:  # argparse errors exit instead of returning
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_expand_text_output(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--nu", "-", "--r", "2", "--m", "2"])
    assert code == 0
    assert out == "+ s[4] - s[3,1] + s[2,2]\n"
    code, out, _ = run_cli(capsys, ["expand", "--nu", "-", "--r", "1", "--m", "1"])
    assert code == 0
    assert out == "+ s[1]\n"


def test_expand_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "--nu", "2,1", "--r", "2", "--m", "1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 5
    assert SchurExpansion.from_json(data) == plethystic_mn(make_partition([2, 1]), 2, 1)


def test_expand_long_column_prints_both_terms(capsys):
    # 1200 beads on one runner: a depth-first search as deep as the
    # runner's beads would pass the interpreter's recursion limit
    column = ",".join(["1"] * 1200)
    code, out, err = run_cli(capsys, ["expand", "--nu", column, "--r", "1", "--m", "1"])
    assert (code, err) == (0, "")
    assert out == f"+ s[2{',1' * 1199}] + s[1{',1' * 1200}]\n"


def test_expand_ms_multiplies_factors(capsys):
    code, out, _ = run_cli(
        capsys, ["expand", "--nu", "-", "--r", "2", "--ms", "1,1", "--format", "json"]
    )
    assert code == 0
    want = plethystic_mn_multi(make_partition([]), 2, [1, 1])
    assert SchurExpansion.from_json(json.loads(out)) == want


def test_sgn_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, ["sgn", "--lambda", "13,10,10,5,4,3,1", "--nu", "11,7,4,3,1", "--r", "2"]
    )
    assert code == 0
    assert out.splitlines() == [
        "sgn_2((13,10,10,5,4,3,1)/(11,7,4,3,1)) = +1",
        "heights: 0,1,1,1,0,1,1,1,1,1",
    ]


def test_sgn_zero_reports_runner_types(capsys):
    code, out, _ = run_cli(
        capsys, ["sgn", "--lambda", "10,10,8,5,5,5,1", "--nu", "4,4,4,2,2", "--r", "2"]
    )
    assert code == 0
    assert out.splitlines() == [
        "sgn_2((10,10,8,5,5,5,1)/(4,4,4,2,2)) = 0",
        "runner 0: type II",
        "runner 1: type I",
        "runners with no bead: 0 (type I)",
    ]


def test_sgn_equal_shapes(capsys):
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "2,1", "--nu", "2,1", "--r", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sgn_3((2,1)/(2,1)) = +1"
    assert lines[1].startswith("heights:")


def test_sgn_runner_report_when_bead_counts_differ(capsys):
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "1", "--nu", "-", "--r", "2"])
    assert code == 0
    assert out.splitlines() == [
        "sgn_2((1)/()) = 0",
        "runner 0: bead counts differ",
        "runner 1: bead counts differ",
        "runners with no bead: 0 (type I)",
    ]


def test_sgn_reports_runners_that_hold_no_bead(capsys):
    # on 2 beads (3,1) sits at 4, 1 and () at 1, 0, so runners 2, 3, 5 and 6 hold none
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "3,1", "--r", "7"])
    assert code == 0
    assert out == (
        "sgn_7((3,1)/()) = 0\n"
        "runner 0: bead counts differ\n"
        "runner 1: type I\n"
        "runner 4: bead counts differ\n"
        "runners with no bead: 4 (type I)\n"
    )
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "3,1", "--r", "7", "--format", "json"])
    assert code == 0
    assert out == (
        '{"lambda": [3, 1], "nu": [], "r": 7, "sign": 0, "decomposition": null,'
        ' "runners": [[0, "bead counts differ"], [1, "type I"], [4, "bead counts differ"]],'
        ' "empty_runners": 4}\n'
    )


def test_sgn_runner_report_is_sized_by_the_beads_not_by_r(capsys):
    # of r = 10**30 runners only two hold a bead: (1) on one bead has it at
    # 1, () at 0; a report with a line or an entry per runner never ends
    r = 10**30
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "1", "--r", str(r)])
    assert code == 0
    assert out.splitlines() == [
        f"sgn_{r}((1)/()) = 0",
        "runner 0: bead counts differ",
        "runner 1: bead counts differ",
        f"runners with no bead: {r - 2} (type I)",
    ]
    code, out, _ = run_cli(capsys, ["sgn", "--lambda", "1", "--r", str(r), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["runners"] == [[0, "bead counts differ"], [1, "bead counts differ"]]
    assert data["empty_runners"] == r - 2


def test_sgn_runner_report_buckets_the_abaci_once(capsys, monkeypatch):
    calls = []
    bucket = strips._runner_buckets
    monkeypatch.setattr(
        strips, "_runner_buckets", lambda *args: calls.append(args) or bucket(*args)
    )
    for fmt in ("text", "json"):
        for command in ("sgn", "decompose"):
            calls.clear()
            args = [command, "--lambda", "10,10,8,5,5,5,1", "--nu", "4,4,4,2,2", "--r", "2"]
            assert run_cli(capsys, args + ["--format", fmt])[0] == 0
            assert len(calls) == 1, (fmt, command)
    # a decomposable skew lists no runners in text
    calls.clear()
    assert run_cli(capsys, ["sgn", "--lambda", "3,1", "--r", "2"])[0] == 0
    assert calls == []


def test_sgn_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sgn", "--lambda", "10,10,8,5,5,5,1", "--nu", "4,4,4,2,2", "--r", "2",
         "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["sign"] == 0
    assert data["decomposition"] is None
    assert data["runners"] == [[0, "type II"], [1, "type I"]]
    assert data["empty_runners"] == 0


def test_decompose_prints_full_chain(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--lambda", "3,1", "--nu", "-", "--r", "2"])
    assert code == 0
    assert out.splitlines() == [
        "sgn_2((3,1)/()) = -1",
        "heights: 0,1",
        "mu^(0) = (3,1)",
        "mu^(1) = (1,1)",
        "mu^(2) = ()",
    ]


def test_decompose_json_contains_chain(capsys):
    code, out, _ = run_cli(
        capsys, ["decompose", "--lambda", "3,1", "--nu", "-", "--r", "2", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"] == {
        "chain": [[3, 1], [1, 1], []],
        "heights": [0, 1],
        "sign": -1,
    }


def test_abacus_single_runner(capsys):
    code, out, _ = run_cli(capsys, ["abacus", "--lambda", "2,1", "--runners", "1"])
    assert code == 0
    assert out == "0\no\nX\no\nX\n"


def test_abacus_two_runner_worked_layout(capsys):
    code, out, _ = run_cli(
        capsys, ["abacus", "--lambda", "13,10,10,5,4,3,1", "--runners", "2"]
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0].split() == ["0", "1"]
    beads = {1, 4, 6, 8, 14, 15, 19}
    for j, row in enumerate(rows[1:]):
        cells = row.split()
        assert len(cells) == 2
        for t in (0, 1):
            assert cells[t] == ("X" if 2 * j + t in beads else "o")
    # grid covers positions 0..19, the last bead row
    assert len(rows) - 1 == 10


def test_abacus_empty_partition(capsys):
    code, out, _ = run_cli(capsys, ["abacus", "--lambda", "-", "--runners", "3"])
    assert code == 0
    assert out == "0 1 2\n"


def test_abacus_with_extra_beads(capsys):
    code, out, _ = run_cli(
        capsys, ["abacus", "--lambda", "2,1", "--runners", "2", "--beads", "3"]
    )
    assert code == 0
    assert out == "0 1\nX o\nX o\nX o\n"


def test_abacus_refuses_a_grid_past_its_cell_bound(capsys, monkeypatch):
    # runners x (rows + 1) cells, the header included: 1 bead row of 10**6
    # runners is 2 * 10**6 cells, refused before a byte is printed
    assert cli.ABACUS_MAX_CELLS == 10**6
    for runners, cells in (("1000000", 2000000), ("500001", 1000002)):
        code, out, err = run_cli(capsys, ["abacus", "--lambda", "1", "--runners", runners])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"plethabacus: error: abacus grid of {cells} cells is over the bound of 1000000"
        )
    # both sides of a bound of 8: 2 runners x (3 rows + 1) prints, and one
    # more bead row, or one more runner, is refused
    monkeypatch.setattr(cli, "ABACUS_MAX_CELLS", 8)
    code, out, _ = run_cli(capsys, ["abacus", "--lambda", "2,1", "--runners", "2", "--beads", "3"])
    assert (code, out) == (0, "0 1\nX o\nX o\nX o\n")
    for args in (["--runners", "2", "--beads", "5"], ["--runners", "3", "--beads", "3"]):
        code, out, err = run_cli(capsys, ["abacus", "--lambda", "2,1", *args])
        assert (code, out) == (2, "")
        assert "cells is over the bound of 8" in err

    # the bound is read off the top bead, lambda_1 + beads - 1, before a bead
    # is built: 2 * 10**6 beads would take about 200 MB
    def no_build(*args):
        raise AssertionError("abacus_of ran before the cell bound")

    monkeypatch.setattr(cli, "abacus_of", no_build)
    code, out, err = run_cli(
        capsys, ["abacus", "--lambda", "1", "--runners", "2", "--beads", "2000000"]
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "plethabacus: error: abacus grid of 2000004 cells is over the bound of 8"
    )


def test_verify_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["verify"])
    config = cli.VerifyConfig()
    assert {name: getattr(args, name) for name in config._fields} == config._asdict()


def test_verify_small_sweep_passes(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify", "--max-nu-size", "1", "--r-range", "1..2", "--m-range", "1..2",
         "--max-degree", "5"],
    )
    assert code == 0
    assert out.splitlines() == [
        "expansion vs determinant oracle: 8 cases",
        "sign recursion: 25 cases",
        "PASS: all identities hold in the swept range",
    ]
    # progress goes to stderr only
    assert err.count("verify:") == 8


def test_verify_degree_zero_checks_nothing(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-nu-size", "1", "--r-range", "1..1", "--m-range", "1..1",
         "--max-degree", "0"],
    )
    assert code == 0
    assert "0 cases" in out
    assert "PASS" in out


def test_verify_classical_row_only(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-nu-size", "2", "--r-range", "1..1", "--m-range", "1..3",
         "--max-degree", "5"],
    )
    assert code == 0
    assert "PASS" in out


def test_verify_default_sweep():
    out, err = io.StringIO(), io.StringIO()
    assert cli.run_verify(cli.VerifyConfig(), out, err) == 0
    assert out.getvalue().splitlines() == [
        "expansion vs determinant oracle: 103 cases",
        "sign recursion: 1440 cases",
        "PASS: all identities hold in the swept range",
    ]


def test_verify_loops_stop_at_the_degree_bound(capsys):
    # r*m > max_degree has no case: a huge r range ends at once, with the
    # same output as the range that holds every case
    wide = run_cli(capsys, ["verify", "--r-range", "1..1000000000", "--max-degree", "5"])
    narrow = run_cli(capsys, ["verify", "--r-range", "1..5", "--max-degree", "5"])
    assert wide == narrow
    assert wide[0] == 0 and "PASS" in wide[1]
    # no nu past max_degree - r*m at the least r and m has a case either:
    # a huge size bound lists no more of them, stderr included
    wide = run_cli(capsys, ["verify", "--max-nu-size", "1000"])
    narrow = run_cli(capsys, ["verify", "--max-nu-size", "12"])
    assert wide == narrow
    assert wide[0] == 0 and "PASS" in wide[1]


def test_verify_past_degree_15(capsys):
    # degree 16 is past what the dense ring's packed exponent fields hold
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-nu-size", "0", "--r-range", "2..2", "--m-range", "8..8",
         "--max-degree", "16"],
    )
    assert code == 0
    assert "expansion vs determinant oracle: 1 cases" in out
    assert "sign recursion: 231 cases" in out


def test_verify_reports_mismatches(capsys, monkeypatch):
    # force one failing case to exercise the mismatch path
    monkeypatch.setattr(cli, "_expansion_case", lambda case: f"boom {case}")
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-nu-size", "0", "--r-range", "1..1", "--m-range", "1..1",
         "--max-degree", "3"],
    )
    assert code == 1
    assert "FAIL: 1 mismatches; first: boom" in out


def test_verify_names_smallest_degree_mismatch_with_runnable_repro(capsys, monkeypatch):
    # two wrong oracle answers; the degree-3 one is swept before the degree-2 one
    real = cli.oracle_plethystic_mn
    wrong = {((1,), 1, 2), ((), 2, 1)}

    def oracle(nu, r, m):
        truth = real(nu, r, m)
        return SchurExpansion(truth.degree, {}) if (nu.parts, r, m) in wrong else truth

    monkeypatch.setattr(cli, "oracle_plethystic_mn", oracle)
    code, out, _ = run_cli(
        capsys, ["verify", "--max-nu-size", "1", "--r-range", "1..2", "--m-range", "1..2"]
    )
    assert code == 1
    (summary,) = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert summary.startswith("FAIL: 2 mismatches; first: expansion mismatch at nu=[] r=2 m=1;")
    repro = summary.split("repro: ")[1]
    assert repro == "plethabacus expand --nu - --r 2 --m 1"
    code, out, _ = run_cli(capsys, shlex.split(repro)[1:])
    assert code == 0
    assert out == "+ s[2] - s[1,1]\n"


def test_recursion_mismatch_prints_runnable_repro(capsys, monkeypatch):
    real = cli.sign_recursion_check

    def check(skew, r):
        report = real(skew, r)
        if (skew.outer.parts, skew.inner.parts, r) == ((2, 1), (1,), 1):
            return SignRecursionReport(
                report.skew, r, report.m + 1, report.sgn_r_value, report.summands
            )
        return report

    monkeypatch.setattr(cli, "sign_recursion_check", check)
    code, out, _ = run_cli(
        capsys, ["verify", "--max-nu-size", "1", "--r-range", "1..2", "--m-range", "1..2"]
    )
    assert code == 1
    (summary,) = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert "recursion mismatch at lambda=[2, 1] nu=[1] r=1:" in summary
    repro = summary.split("repro: ")[1]
    assert repro == "plethabacus sgn --lambda 2,1 --nu 1 --r 1"
    code, out, _ = run_cli(capsys, shlex.split(repro)[1:])
    assert code == 0
    assert out.startswith("sgn_1((2,1)/(1)) = ")


def test_expand_and_verify_leave_numpy_unloaded():
    # and dataclasses, with the inspect it imports, stay unloaded as well
    code = (
        "import sys\n"
        "import plethabacus\n"
        "import plethabacus.cli as cli\n"
        "codes = [cli.main(['expand', '--r', '2', '--m', '2']), cli.main(\n"
        "    ['verify', '--max-nu-size', '1', '--r-range', '1..2', '--m-range', '1..2'])]\n"
        "print(codes, sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_package_import_leaves_the_cli_unloaded():
    # the command line, and argparse and json with it, load with plethabacus.cli;
    # dataclasses and inspect load with neither
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import plethabacus\n"
        "loaded = set(sys.modules) - before\n"
        "cli = {'plethabacus.cli', 'argparse', 'json'}\n"
        "print(sorted((cli | {'dataclasses', 'inspect'}) & loaded))\n"
        "from plethabacus.cli import main\n"
        "print(main(['expand', '--r', '2', '--m', '1']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0"


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--nu", "2,3", "--r", "1", "--m", "1"],  # increasing parts
        ["expand", "--nu", "-", "--r", "1"],  # neither --m nor --ms
        ["expand", "--nu", "-", "--r", "1", "--m", "1", "--ms", "1"],  # both
        ["expand", "--nu", "-", "--r", "0", "--m", "1"],  # r < 1
        ["expand", "--nu", "-", "--r", "1", "--m", "0"],  # m < 1
        ["expand", "--nu", "-", "--r", "1", "--m", "1", "--format", "xml"],
        ["sgn", "--lambda", "1,1", "--nu", "2", "--r", "1"],  # nu not inside
        ["sgn", "--lambda", "x", "--nu", "-", "--r", "1"],
        ["abacus", "--lambda", "3,2,1", "--runners", "2", "--beads", "2"],
        ["abacus", "--lambda", "1", "--runners", "0"],
        ["verify", "--r-range", "2..1"],
        ["verify", "--r-range", "1-2"],
        ["verify", "--max-nu-size", "-1"],
        ["nosuchcommand"],
        ["expand", "--nu", "-", "--r", "1", "--ms", "1,0"],  # an m < 1
        ["sgn", "--lambda", "1", "--nu", "-", "--r", "0"],  # r < 1
        ["verify", "--max-degree", "-3"],
        ["verify", "--m-range", "2..1"],
    ],
)
def test_usage_errors_exit_2(capsys, args):
    # one format for every usage error, whether argparse or the library finds it
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"plethabacus( \w+)?: error: \S.*", err.splitlines()[-1]), err


@pytest.mark.parametrize(
    "args, message",
    [
        (["expand", "--nu", "3,,1", "--r", "1", "--m", "1"], "--nu: bad partition '3,,1': "),
        (["sgn", "--lambda", "3,1,", "--r", "2"], "--lambda: bad partition '3,1,': "),
        (["expand", "--r", "1", "--ms", "1,,2"], "--ms: bad list '1,,2': bad integer ''"),
        (["expand", "--r", "1", "--ms", "1,0"], "--ms: bad list '1,0': must be >= 1, got 0"),
        # `-` is the only spelling of the empty partition
        (["expand", "--nu", "", "--r", "1", "--m", "1"], "--nu: bad partition '': "),
    ],
    ids=["nu", "lambda", "ms", "ms-below-1", "empty-nu"],
)
def test_a_blank_field_is_a_usage_error(capsys, args, message):
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"plethabacus {args[0]}: error: argument {message}")


def test_spaces_around_parts_are_accepted(capsys):
    spaced = run_cli(capsys, ["expand", "--nu", "3, 1", "--r", "1", "--ms", " 1 , 1"])
    assert spaced[0] == 0
    assert spaced == run_cli(capsys, ["expand", "--nu", "3,1", "--r", "1", "--ms", "1,1"])
    code, out, _ = run_cli(capsys, ["expand", "--nu", " - ", "--r", "1", "--m", "1"])
    assert (code, out) == (0, "+ s[1]\n")


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--r", str(10**20), "--m", "1"],
        ["abacus", "--lambda", "1", "--runners", "2", "--beads", str(10**20)],
    ],
)
def test_an_integer_too_large_for_an_index_exits_2(capsys, args):
    # past sys.maxsize, so the call fails before it allocates anything;
    # sgn at such an r still answers (test_sgn_runner_report_is_sized_by...).
    # abacus meets its cell bound first: 2 runners x (5 * 10**19 + 2) rows
    message = {
        "expand": "cannot fit 'int' into an index-sized integer",
        "abacus": "abacus grid of 100000000000000000004 cells is over the bound of 1000000",
    }[args[0]]
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith("usage: plethabacus ")
    assert err.splitlines()[-1] == f"plethabacus: error: {message}"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plethabacus", "expand", "--nu", "-", "--r", "2", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "+ s[4] - s[3,1] + s[2,2]\n"


def test_expand_under_optimize_flag_matches_default():
    # python -O strips bare asserts; the expansion must not depend on them
    args = ["-m", "plethabacus", "expand", "--nu", "2,1", "--r", "2", "--m", "3"]
    args += ["--format", "json"]
    plain = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True
    )
    assert plain.returncode == optimized.returncode == 0
    assert json.loads(plain.stdout)["terms"]
    assert optimized.stdout == plain.stdout


def test_library_has_no_bare_asserts():
    # python -O would drop them, so checks raise AssertionError explicitly
    hits = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
