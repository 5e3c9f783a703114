"""Every top-level name in `src/sqsig` is used somewhere, and not by tests alone.

A name counts as used when an identifier, attribute, import or dotted
string constant (the traced benchmark binds names by string) mentions it
in `src/`, `tests/` or `benchmarks/`, outside the lines of its own
definition. A re-export in `__init__.py` is not a use for the second
check: a name that only tests use belongs in the tests, unless it is a
reference the tests check the package against (REFERENCE_ONLY).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqsig"
TESTS = ROOT / "tests"
SEARCHED = [SRC, TESTS, ROOT / "benchmarks"]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# Names only tests use that stay in the package, each with its reason.
REFERENCE_ONLY = {
    "quantum.measurement_branches": "the exact oracle the sampled measurement is checked against",
    "quantum.tensor": "builds the joint states the probe-oracle tests compare with",
    "quantum.equal_up_to_phase": "the state comparison the party and probe tests assert with",
}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _references(tree: ast.Module):
    """(identifier, line) for every mention of a name in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _uses() -> dict[str, list[Path]]:
    """Each top-level src name, as module.name -> the files that mention it
    outside its own definition."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in SEARCHED for path in sorted(root.rglob("*.py"))
    }
    mentions: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            mentions.setdefault(name, []).append((path, line))
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if not name.startswith("__"):
                uses[f"{path.stem}.{name}"] = [
                    p for p, line in mentions.get(name, [])
                    if p != path or not node.lineno <= line <= node.end_lineno
                ]
    return uses


def unused_names() -> list[str]:
    return [name for name, files in _uses().items() if not files]


def names_only_tests_use() -> list[str]:
    """Names whose every use, apart from re-exports, is in `tests/`."""
    only = []
    for name, files in _uses().items():
        files = [p for p in files if p != SRC / "__init__.py"]
        if files and all(TESTS in p.parents for p in files):
            only.append(name)
    return only


def test_no_unused_top_level_names():
    assert unused_names() == []


def test_no_names_only_tests_use():
    assert sorted(names_only_tests_use()) == sorted(REFERENCE_ONLY)
