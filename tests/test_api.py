"""The public surface of the package root: exactly these names, no others."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import plethabacus

LAYERS = ("partitions", "abacus", "strips", "symfunc", "oracle")

SUBMODULES = {"abacus", "cli", "oracle", "partitions", "ring", "strips", "symfunc"}

# the public names of the root, its submodules aside
PUBLIC = {
    # partitions
    "Box",
    "InvalidPartition",
    "NotContained",
    "Partition",
    "SchurExpansion",
    "SkewPartition",
    "make_partition",
    "make_skew",
    "partitions_of_size",
    "partitions_of_size_containing",
    "partitions_up_to",
    # abacus
    "Abacus",
    "BadRunner",
    "BeadCountTooSmall",
    "BeadMove",
    "IllegalMove",
    "IncompatibleAbaci",
    "InvalidAbacus",
    "abacus_of",
    "final_positions",
    "inversion_sign",
    "partition_of",
    "runner_beads",
    "single_step_moves",
    # strips
    "BorderStrip",
    "Decomposition",
    "EmptySkew",
    "NotDivisible",
    "NotTypeIICase",
    "PairingWitness",
    "RecursionSummand",
    "RunnerType",
    "SignRecursionReport",
    "border_strips",
    "classify_runner",
    "final_border_strip",
    "order_independent_sign",
    "pairing_witness",
    "r_decompose",
    "runner_profile",
    "runner_types",
    "sgn_r",
    "sign_recursion_check",
    # symfunc
    "mn_multiply",
    "plethystic_mn",
    "plethystic_mn_multi",
    "power_product_pleth",
    # oracle
    "oracle_plethystic_mn",
}


def test_root_exports_exactly_the_public_names():
    names = {n for n in dir(plethabacus) if not n.startswith("_")}
    values = {n: getattr(plethabacus, n) for n in names}
    # which submodules are attributes depends on what was imported before
    modules = {n for n, v in values.items() if isinstance(v, ModuleType)}
    assert modules <= SUBMODULES
    assert names - modules == PUBLIC


def test_every_public_function_and_class_is_exported():
    for layer in LAYERS:
        module = importlib.import_module(f"plethabacus.{layer}")
        for name, value in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(value) or inspect.isclass(value)):
                continue
            if value.__module__ == module.__name__:
                assert getattr(plethabacus, name, None) is value, f"{layer}.{name}"


def test_cli_imports_no_private_name_of_the_combinatorial_layers():
    # the command line rebuilds no runner or expansion rule of its own
    path = Path(plethabacus.__file__).parent / "cli.py"
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] in {"abacus", "strips", "symfunc"}
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_root_documents_and_lists_itself_without_numpy():
    # `pip install .` brings no numpy: with it blocked, help() and
    # getmembers read the root, which names no object of the dense ring
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(f'{name} is blocked', name=name)\n"
        "sys.meta_path.insert(0, Block())\n"
        "import inspect, pydoc\n"
        "import plethabacus\n"
        "pydoc.render_doc(plethabacus)\n"
        "inspect.getmembers(plethabacus)\n"
        "try:\n"
        "    import plethabacus.ring\n"
        "except ModuleNotFoundError as e:\n"
        "    blocked = e.name\n"
        "print(hasattr(plethabacus, 'poly_h'), 'numpy' in sys.modules, blocked)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False numpy"
