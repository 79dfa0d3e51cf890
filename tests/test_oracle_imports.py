"""The test references stay independent of the code they referee.

oracles.py may import from the package only the plain data containers, the
error it raises and the seeded Philox streams (its docstring says so), and
the stepwise engine may use none of the package's settle functions.  Both
are read from the sources with ast, so a reference that starts calling the
engine it checks fails here.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

ORACLE_NAMES = {"GraphInvalid", "Graph", "RotorMechanism", "HarmonicProfile", "philox_generator"}
SETTLE_NAMES = {"run_until_settled", "settle_trials", "_round_step"}


def package_imports(path):
    """The names a module imports from rotorwalk, and the rotorwalk modules it imports whole."""
    names, modules = set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rotorwalk":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names if a.name.split(".")[0] == "rotorwalk"]
    return names, modules


def referenced_names(path):
    """Every identifier a module names: variables, attributes and imported names."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_oracles_import_only_the_containers_and_streams():
    names, modules = package_imports(TESTS / "oracles.py")
    assert modules == []
    assert names  # the reader sees the imports it checks
    assert names <= ORACLE_NAMES, names - ORACLE_NAMES


def test_stepwise_calls_no_settle_function():
    names, modules = package_imports(TESTS / "stepwise.py")
    assert modules == []
    assert names
    assert not referenced_names(TESTS / "stepwise.py") & SETTLE_NAMES


@pytest.mark.parametrize("source, reader", [
    ("from rotorwalk.experiment import run_until_settled\n", "stepwise"),
    ("from rotorwalk import experiment\nexperiment._round_step\n", "stepwise"),
    ("from rotorwalk.experiment import compute_invariant\n", "oracles"),
    ("import rotorwalk.experiment\n", "oracles"),
])
def test_the_readers_catch_a_forbidden_use(tmp_path, source, reader):
    path = tmp_path / "reference.py"
    path.write_text(source)
    names, modules = package_imports(path)
    if reader == "stepwise":
        assert referenced_names(path) & SETTLE_NAMES
    else:
        assert modules or not names <= ORACLE_NAMES
