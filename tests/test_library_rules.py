"""Rules on the library's source, checked from its files.

Every library, test and benchmark file is read, tokenized and parsed once,
and the four rules share that pass.  A name counts only where it is code:
a NAME token, so a comment or a string does not keep anything alive.
This module is not a reader for the dead-export rule, so no export stays
alive by being named here.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "logcouple"

# _element, _reduced and _combine skip validation: only element.py may name them.
TRUSTED = {"_element", "_reduced", "_combine"}


@pytest.fixture(scope="module")
def sources():
    """path -> (syntax tree, [(name, line)] of every code NAME token)."""
    paths = sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    paths += sorted((ROOT / "bench").rglob("*.py"))
    read = {}
    for path in paths:
        text = path.read_text()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        read[path] = ast.parse(text), [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]
    return read


def _library(sources, skip=None):
    return [(path, *sources[path]) for path in sources if path.parent == LIBRARY and path.name != skip]


def _exported(tree):
    """The names listed in a module's top-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def test_no_unused_imports(sources):
    # __init__.py is skipped because it re-exports what it imports
    unused = []
    for path, tree, _ in _library(sources, skip="__init__.py"):
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path}:{node.lineno}: {name} is imported and never used")
    assert not unused, "\n".join(unused)


def test_no_dead_exports(sources):
    # another library module, a test or the benchmark must name each export;
    # __init__.py is skipped because it re-exports everything
    skip = {LIBRARY / "__init__.py", Path(__file__).resolve()}
    readers = {path: {name for name, _ in held} for path, (_, held) in sources.items() if path not in skip}
    dead = [
        f"{path}: {name} is exported and named in no other file"
        for path, tree, _ in _library(sources, skip="__init__.py")
        for name in _exported(tree)
        if not any(name in held for other, held in readers.items() if other != path)
    ]
    assert not dead, "\n".join(dead)


def test_no_dead_private_helpers(sources):
    # a module-level _name (a def, a class or an assignment) must be named
    # somewhere in the library outside its own definition
    library = _library(sources)
    dead = []
    for path, tree, _ in library:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                uses = [(other, line) for other, _, held in library for tok, line in held if tok == name]
                if all(other == path and line in span for other, line in uses):
                    dead.append(f"{path}:{node.lineno}: {name} is named only in its own definition")
    assert not dead, "\n".join(dead)


def test_trusted_constructors_stay_in_element(sources):
    leaks = [
        f"{path}:{line}: names {name}"
        for path, _, held in _library(sources, skip="element.py")
        for name, line in held
        if name in TRUSTED
    ]
    assert not leaks, "\n".join(leaks)
