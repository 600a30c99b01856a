"""A census of imports: every name a module imports, the module reads.

Walks each module under ``src/``, ``tests/`` and ``benchmarks/`` with the
standard library's :mod:`ast` and fails on any imported name that the
module never reads, so an import cannot outlive its last reader. A name
counts as read when it appears as a name anywhere in the module (an
attribute chain ``a.b`` reads ``a``) or inside a string annotation.

The census does not count four kinds of import, each for its reason:

- a package ``__init__``'s imports: it imports names to re-export them,
  and its readers are other modules;
- a name listed in ``__all__``: it is exported, read here or not;
- imports under ``if TYPE_CHECKING:``: they exist for annotations only and
  never run;
- ``from __future__`` imports: they switch compiler features on.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks")


def _modules() -> Iterator[Path]:
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _annotation_names(annotation: Optional[ast.expr]) -> Iterator[str]:
    """Names read by an annotation, string annotations included."""
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval").body)


def census(tree: ast.Module) -> List[Tuple[str, int]]:
    """(name, line) of every counted import that ``tree`` never reads.

    One walk collects both the imports and the reads: the whole census
    parses and walks some 200 modules, so each extra pass would cost tier-1
    a few tenths of a second.
    """
    imports: List[Tuple[str, int]] = []
    reads: Set[str] = set()
    exempt: Set[int] = set()
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            reads.add(node.id)
        elif kind is ast.Import or kind is ast.ImportFrom:
            if id(node) in exempt or (
                kind is ast.ImportFrom and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                if kind is ast.Import:  # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                elif alias.name == "*":
                    continue
                else:
                    name = alias.asname or alias.name
                imports.append((name, node.lineno))
        elif kind is ast.If and _is_type_checking(node.test):
            exempt.update(id(child) for child in ast.walk(node))
        elif kind is ast.arg or kind is ast.AnnAssign:
            reads.update(_annotation_names(node.annotation))
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            reads.update(_annotation_names(node.returns))
        elif kind is ast.Assign and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            reads.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imports if name not in reads]


def unused_imports() -> List[str]:
    """``path:line name`` for every counted import its module never reads."""
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _modules()
        for name, line in census(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_every_import_is_read():
    assert unused_imports() == []


def test_census_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING, List, Optional, Set\n"
        "if TYPE_CHECKING:\n"
        "    from json import JSONDecoder\n"
        "from sys import argv, path\n"
        "__all__ = ['argv']\n"
        "x: 'Optional[List[int]]' = None\n"
    )
    assert census(tree) == [("os", 2), ("Set", 3), ("path", 6)]
