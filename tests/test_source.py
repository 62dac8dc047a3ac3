"""Source hygiene: every name a cxrgen module imports is used in it, every
tensor op has a finite-difference case in acceptance criterion 1, only
cxrgen.tensor writes the exp, log and variance formulas, and only
cxrgen.errors decides which values a config field takes."""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

import cxrgen
from cxrgen import tensor

from helpers import CONFIGS

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


def restated_formulas(tree: ast.AST) -> list[int]:
    """Lines that call ``np.exp``, ``np.log`` or a ``.var(`` method: the
    softmax, log-softmax and layer-norm formulas that belong to the kernels
    of cxrgen.tensor."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "var" or node.func.attr in ("exp", "log")
                       and isinstance(node.func.value, ast.Name)
                       and node.func.value.id == "np"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor.py"],
                         ids=lambda p: p.name)
def test_only_tensor_writes_the_kernel_formulas(path):
    lines = restated_formulas(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} restates a tensor kernel's formula at lines {lines}; "
                       f"call the kernel in cxrgen.tensor instead")


def test_a_restated_formula_is_caught():
    tree = ast.parse("e = np.exp(x - x.max())\n"
                     "s = math.exp(1.0) + np.sqrt(x.var(axis=-1))\n"
                     "y = np.log(e).sum()\n")
    assert restated_formulas(tree) == [1, 2, 3]
    assert restated_formulas(ast.parse("math.log(2.0) + np.expm1(x)")) == []


def checks_fields_first(source: str) -> bool:
    """Whether the function in ``source`` starts with
    ``check_fields(type(self), vars(self))``."""
    (function,) = ast.parse(textwrap.dedent(source)).body
    return ast.unparse(function.body[0]) == "check_fields(type(self), vars(self))"


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_checks_its_fields_first(cls):
    assert checks_fields_first(inspect.getsource(cls.__post_init__)), (
        f"{cls.__name__}.__post_init__ must call check_fields(type(self), vars(self)) first")


def test_a_config_that_checks_late_is_caught():
    assert checks_fields_first("def __post_init__(self):\n"
                               "    check_fields(type(self), vars(self))\n"
                               "    if self.x <= 0: raise ValueError\n")
    assert not checks_fields_first("def __post_init__(self):\n"
                                   "    if self.x < 1: raise ValueError\n"
                                   "    check_fields(type(self), vars(self))\n")


def reads_type_hints(tree: ast.AST) -> bool:
    """Whether ``tree`` calls ``get_type_hints``, bare or as an attribute."""
    return any(isinstance(node, ast.Call) and "get_type_hints" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_errors_reads_config_annotations(path):
    assert not reads_type_hints(ast.parse(path.read_text(encoding="utf-8"))), (
        f"{path.name} reads type hints; check config values with errors.check_fields")


def test_a_type_hint_reader_is_caught():
    assert reads_type_hints(ast.parse("kinds = typing.get_type_hints(cls)"))
    assert reads_type_hints(ast.parse("kinds = get_type_hints(cls)"))
    assert not reads_type_hints(ast.parse("check_fields(cls, section)"))
