"""Every top-level name in `src/sqsig` is used somewhere, and not by tests alone.

A name counts as used when an identifier, attribute, import or dotted
string constant (the traced benchmark binds names by string) mentions it
in `src/`, `tests/` or `benchmarks/`, outside the lines of its own
definition. A re-export in `__init__.py` is not a use for the second
check: a name that only tests use belongs in the tests, unless it is a
reference the tests check the package against (REFERENCE_ONLY).

Likewise every defaulted parameter of a `src/sqsig` function or method is
passed by some call in `src/` or `benchmarks/`, unless it is listed in
OPTIONS_OF_ENTRY_POINTS: an option that only tests set belongs in the tests.
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
    "quantum.CNOT": "the matrix the probe's CNOT swap and the probe oracles are checked against",
}

# Defaulted parameters no call in `src/` or `benchmarks/` passes, each with its reason.
OPTIONS_OF_ENTRY_POINTS = {
    "cli.main.argv": "the console script reads sys.argv; tests pass the arguments",
    "quantum.DensityMatrix.maximally_mixed.num_qubits":
        "a reference state the density tests build at one and two qubits",
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


def _defaulted_parameters():
    """(module.qualname.param, callee names, position, param) for every
    parameter with a default of a function or method in `src/sqsig`.

    A class's `__init__` is also called by the class name. The position
    counts the arguments a call passes positionally (a method's `self` or
    `cls` is bound) and is None for a keyword-only parameter.
    """
    for path in sorted(SRC.glob("*.py")):
        scopes = [(ast.parse(path.read_text(), filename=str(path)), path.stem, None)]
        while scopes:
            node, prefix, cls = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    scopes.append((child, f"{prefix}.{child.name}", child.name))
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = f"{prefix}.{child.name}"
                scopes.append((child, name, None))
                callees = {child.name, cls} if child.name == "__init__" else {child.name}
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                bound = cls is not None and not static
                args = child.args
                positional = args.posonlyargs + args.args
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    yield f"{name}.{positional[i].arg}", callees, i - bound, positional[i].arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{name}.{arg.arg}", callees, None, arg.arg


def _calls():
    """(callee name, positional arg count, keyword names) for every call in
    `src/` and `benchmarks/`; `functools.partial(f, ...)` counts as a call of
    f. A call with a `*` argument passes every positional parameter, and one
    with a `**` argument every keyword."""
    for root in (SRC, ROOT / "benchmarks"):
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func, args = node.func, node.args
                if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                    func, args = args[0], args[1:]
                name = getattr(func, "id", getattr(func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in args)
                keywords = {k.arg for k in node.keywords}
                yield name, (float("inf") if starred else len(args)), keywords


def options_only_tests_set() -> list[str]:
    calls = list(_calls())
    unset = []
    for qualified, callees, index, arg in _defaulted_parameters():
        if not any(name in callees and (arg in keywords or None in keywords
                                        or (index is not None and count > index))
                   for name, count, keywords in calls):
            unset.append(qualified)
    return unset


def test_no_options_only_tests_set():
    assert sorted(options_only_tests_set()) == sorted(OPTIONS_OF_ENTRY_POINTS)
