"""Static checks on the package source: it parses as the oldest Python the
package declares, it imports only the standard library and itself, and no
binary float enters a computation.

The one place floats may appear is the trial generator's sampling
thresholds in `harness.py`, where `rng.random()` (a float in [0, 1)) is
compared against a literal to pick a shape; no float reaches a result.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reswitch"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_random_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and not node.args
    )


def _sampling_thresholds(tree: ast.Module) -> set:
    """Float literals compared as `draw < literal`, where the draw is an
    `rng.random()` call or a name bound only to one."""
    draws = set()
    rebound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    (draws if _is_random_call(node.value) else rebound).add(target.id)
    draws -= rebound
    allowed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        left, right = node.left, node.comparators[0]
        is_draw = _is_random_call(left) or (
            isinstance(left, ast.Name) and left.id in draws
        )
        if is_draw and isinstance(node.ops[0], ast.Lt) and isinstance(right, ast.Constant):
            allowed.add(id(right))
    return allowed


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"polynomial.py", "switching.py", "harness.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_call(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", f"{path.name}:{node.lineno} calls float"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_float_literals_only_as_sampling_thresholds(path):
    tree = _tree(path)
    allowed = _sampling_thresholds(tree) if path.name == "harness.py" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            assert id(node) in allowed, f"{path.name}:{node.lineno} float literal {node.value}"


def test_harness_thresholds_are_seen():
    # the scan above must recognise the generator's draws, or it proves nothing
    assert len(_sampling_thresholds(_tree(PACKAGE / "harness.py"))) >= 5
