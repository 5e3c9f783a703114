"""Every top-level name in `src/sqsig` is used somewhere.

A name counts as used when an identifier, attribute, import or dotted
string constant (the traced benchmark binds names by string) mentions it
in `src/`, `tests/` or `benchmarks/`, outside the lines of its own
definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqsig"
SEARCHED = [SRC, ROOT / "tests", ROOT / "benchmarks"]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def unused_names() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in SEARCHED for path in sorted(root.rglob("*.py"))
    }
    mentions: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            mentions.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__"):
                continue
            outside = [
                (p, line) for p, line in mentions.get(name, [])
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_no_unused_top_level_names():
    assert unused_names() == []
