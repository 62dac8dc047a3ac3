"""Source hygiene: every name a cxrgen module imports is used in it, and every
tensor op has a finite-difference case in acceptance criterion 1."""

import ast
import inspect
from pathlib import Path

import pytest

import cxrgen
from cxrgen import tensor

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


# public functions of cxrgen.tensor that are no differentiable op
NOT_OPS = {"active_tape", "no_tape"}


def tensor_ops() -> set[str]:
    return {name for name, fn in inspect.getmembers(tensor, inspect.isfunction)
            if fn.__module__ == tensor.__name__ and not name.startswith("_")} - NOT_OPS


def criterion_1_cases() -> dict[str, set[str]]:
    """Each case criterion 1 runs (the ``op_*`` functions its loop goes over)
    -> the names the case calls."""
    source = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    test = next(node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
                and node.name == "test_criterion_1_gradient_correctness")
    run = {elt.id for node in ast.walk(test) if isinstance(node, ast.For)
           and isinstance(node.iter, ast.Tuple) for elt in node.iter.elts}
    return {node.name: {call.func.id for call in ast.walk(node)
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
            for node in ast.walk(test) if isinstance(node, ast.FunctionDef) and node.name in run}


def uncovered_ops(ops: set[str], cases: dict[str, set[str]]) -> list[str]:
    """Ops with no case named ``op_<op>`` or ``op_<op>_<variant>`` that calls them."""
    return sorted(op for op in ops if not any(
        (name == f"op_{op}" or name.startswith(f"op_{op}_")) and op in calls
        for name, calls in cases.items()))


def test_every_tensor_op_has_a_criterion_1_case():
    missing = uncovered_ops(tensor_ops(), criterion_1_cases())
    assert not missing, f"tensor ops without a criterion-1 finite-difference case: {missing}"


def test_an_uncovered_op_is_caught():
    cases = criterion_1_cases()
    assert "add" in tensor_ops() and uncovered_ops({"add"}, cases) == []
    assert uncovered_ops({"add", "sub"}, cases) == ["sub"]
    # a case must both carry the op's name and call it
    assert uncovered_ops({"add"}, {"op_add_same": {"mul"}, "op_mul": {"add"}}) == ["add"]
