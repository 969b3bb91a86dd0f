"""Static checks on the package source: it parses as the oldest Python the
package declares, it imports only the standard library and itself, no
binary float enters a computation, and no check is an `assert` statement,
which `python -O` would drop.

The one place floats may appear is the trial generator's sampling
thresholds in `harness.py`, where `rng.random()` (a float in [0, 1)) is
compared against a literal to pick a shape; no float reaches a result.

The README's Python examples run against the package source, so the public
surface they show stays in place, and every function the package defines is
used or shown somewhere, so no dead helper lingers.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reswitch"
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants raise explicitly, so they hold under `python -O` too
    for node in ast.walk(_tree(path)):
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"


def test_harness_thresholds_are_seen():
    # the scan above must recognise the generator's draws, or it proves nothing
    assert len(_sampling_thresholds(_tree(PACKAGE / "harness.py"))) >= 5


def test_readme_python_examples_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), {})
    assert Path(sys.modules["reswitch"].__file__).parent == PACKAGE


def test_every_function_is_referenced():
    # a name counts as referenced when it occurs in src, tests, bench or the
    # README more often than it is defined with `def`; dunders run implicitly
    texts = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defs = Counter(d for text in texts for d in re.findall(r"\bdef\s+(\w+)", text))
    unreferenced = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and words[node.name] <= defs[node.name]
    )
    assert not unreferenced, f"defined but never referenced: {unreferenced}"
