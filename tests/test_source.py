"""Source hygiene: every name a cxrgen module imports is used in it."""

import ast
from pathlib import Path

import pytest

import cxrgen

MODULES = sorted(p for p in Path(cxrgen.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - referenced_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from typing import Optional, Sequence\n"
                     "def f(x: 'Optional[int]') -> None: pass\n")
    assert imported_names(tree) - referenced_names(tree) == {"Sequence"}
