"""Source hygiene: every name a cxrgen module imports is used in it, every
tensor op has a finite-difference case in acceptance criterion 1, only
cxrgen.tensor writes the exp, log and variance formulas and the attention
product q·kT and splits rows into attention heads or merges them back, only
cxrgen.errors decides which values a config field takes, only cxrgen.records
opens and decodes input files, only cxrgen.records decides which values a row
field takes, only cxrgen.records decides which values a document field
takes, and only cxrgen.model builds an input mask: every other caller names
an input preset. README's package table names exactly the package's modules."""

import ast
import inspect
import pkgutil
import re
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


def _is_swapaxes(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "swapaxes" and isinstance(node.func.value, ast.Name) \
        and node.func.value.id == "np"


def transposed_products(tree: ast.AST) -> list[int]:
    """Lines with a matrix product (``@``, ``np.matmul`` or ``np.dot``) one of
    whose operands is ``np.swapaxes(...)``: the q·kT of the attention
    formula, which belongs to the kernel ``tensor._attention``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("matmul", "dot"):
            operands = node.args
        else:
            continue
        if any(_is_swapaxes(x) for x in operands):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor.py"],
                         ids=lambda p: p.name)
def test_only_tensor_writes_the_attention_product(path):
    lines = transposed_products(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} multiplies by a transposed operand at lines {lines}; "
                       f"call tensor._attention or tensor.attention instead")


def test_a_restated_attention_product_is_caught():
    tree = ast.parse("logits = (q @ np.swapaxes(keys, -1, -2)) * scale\n"
                     "g = np.swapaxes(a, 0, 1) @ b\n"
                     "s = np.matmul(q, np.swapaxes(k, 1, 2))\n"
                     "d = x.dot(np.swapaxes(k, -1, -2))\n")
    assert transposed_products(tree) == [1, 2, 3, 4]
    assert transposed_products(ast.parse(
        "out = _attention(q, np.swapaxes(keys, -1, -2), values, None)[0]\n"
        "y = np.swapaxes(out, 1, 2).reshape(n, -1) @ w_o\n"
        "z = x @ w.T\n")) == []


def head_swaps(tree: ast.AST) -> list[int]:
    """Lines that exchange axes 1 and 2 by ``np.swapaxes(x, 1, 2)``,
    ``x.swapaxes(1, 2)`` or ``swap_axes(x, 1, 2)``: the split of [B·n, h·w]
    rows into [B, h, n, w] heads, or the merge back, which belong to
    ``tensor._heads`` and the attention op."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "swap_axes" or _is_swapaxes(node):
            axes = node.args[1:3]
        elif isinstance(func, ast.Attribute) and func.attr == "swapaxes":
            axes = node.args[:2]
        else:
            continue
        if {getattr(axis, "value", None) for axis in axes} == {1, 2}:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor.py"],
                         ids=lambda p: p.name)
def test_only_tensor_splits_heads(path):
    lines = head_swaps(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} splits or merges attention heads at lines {lines}; "
                       f"pass rows and a head count to tensor.attention, or use "
                       f"tensor._heads")


def test_a_head_split_is_caught():
    tree = ast.parse("q = np.swapaxes(x.reshape(b, n, h, -1), 1, 2)\n"
                     "y = out.swapaxes(2, 1).reshape(n, -1)\n"
                     "z = swap_axes(reshape(t, (b, n, h, w)), 1, 2)\n")
    assert head_swaps(tree) == [1, 2, 3]
    assert head_swaps(ast.parse("kt = np.swapaxes(keys, -1, -2)\n"
                                "a = x.swapaxes(0, 1)\n"
                                "b = np.swapaxes(x, 0, 2)\n"
                                "c = swap_axes(x, 1, 3)\n")) == []


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


# records.py reads every input file; params.py opens the binary .npz
# checkpoint and parses the metadata embedded in it
FILE_READERS = ("records.py", "params.py")


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether ``call`` is ``open(path, mode)`` or ``path.open(mode)`` with a
    mode that reads: none given, one with "r" or "+", or one not spelled out."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        position = 1
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        position = 0
    else:
        return False
    modes = call.args[position:position + 1] + [kw.value for kw in call.keywords
                                                 if kw.arg == "mode"]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+"))


def file_reads(tree: ast.AST) -> list[int]:
    """Lines that call ``json.load`` or ``json.loads``, a ``.read_text`` or
    ``.read_bytes`` method, or open a file for reading."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        _opens_for_reading(node)
        or isinstance(node.func, ast.Attribute) and (
            node.func.attr in ("read_text", "read_bytes")
            or node.func.attr in ("load", "loads") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FILE_READERS],
                         ids=lambda p: p.name)
def test_only_records_reads_input_files(path):
    lines = file_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} opens or decodes a file at lines {lines}; read it "
                       f"with cxrgen.records.read_rows or read_json instead")


def test_a_file_reader_is_caught():
    tree = ast.parse("a = json.loads(text)\n"
                     "b = json.load(fh)\n"
                     "c = Path(path).read_text(encoding='utf-8')\n"
                     "with open(path, encoding='utf-8') as fh: pass\n"
                     "with open(path, 'rb') as fh: pass\n"
                     "with path.open() as fh: pass\n"
                     "with open(path, mode='r+') as fh: pass\n"
                     "with open(path, some_mode) as fh: pass\n"
                     "d = path.read_bytes()\n")
    assert file_reads(tree) == list(range(1, 10))
    assert file_reads(ast.parse("s = json.dumps(x)\n"
                                "with open(path, 'w', encoding='utf-8') as fh: pass\n"
                                "with path.open('xb') as fh: pass\n"
                                "with open(path, mode='a') as fh: pass\n"
                                "with atomic_open(path) as fh: pass\n"
                                "payload = read_json(path, 'vocabulary')\n")) == []


# the schema check, and the CSV cell conversion: CSV has no number type
ROW_FIELD_CONVERTERS = ("check_row", "_csv_record")
_CONVERSIONS = ("int", "float", "str")


def _is_row_field(node: ast.AST) -> bool:
    """Whether ``node`` is ``row[...]`` or ``row.get(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get":
        node = node.func
    elif not isinstance(node, ast.Subscript):
        return False
    return isinstance(node.value, ast.Name) and node.value.id == "row"


def row_field_conversions(tree: ast.AST, exempt: tuple[str, ...] = ()) -> list[int]:
    """Lines that apply ``int``, ``float`` or ``str`` to a row field
    (``row[...]`` or ``row.get(...)``): directly, through ``map``, or to each
    element a comprehension takes from it. The bodies of the functions named
    in ``exempt`` are not searched."""
    lines = []

    def visit(node: ast.AST, elements: frozenset) -> None:
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            elements |= {gen.target.id for gen in node.generators
                         if isinstance(gen.target, ast.Name) and _is_row_field(gen.iter)}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name in _CONVERSIONS and any(_is_row_field(arg) or isinstance(arg, ast.Name)
                                            and arg.id in elements for arg in args) \
                    or name == "map" and len(args) == 2 and _is_row_field(args[1]) \
                    and isinstance(args[0], ast.Name) and args[0].id in _CONVERSIONS:
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, elements)

    visit(tree, frozenset())
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_row_schema_converts_row_fields(path):
    exempt = ROW_FIELD_CONVERTERS if path.name == "records.py" else ()
    lines = row_field_conversions(ast.parse(path.read_text(encoding="utf-8")), exempt)
    assert not lines, (f"{path.name} converts a row field with int, float or str at lines "
                       f"{lines}; declare the field's kind for cxrgen.records.check_row")


def test_a_row_field_conversion_is_caught():
    tree = ast.parse("sid = str(row['sample_id'])\n"
                     "n = int(row.get('ethnicity', 0))\n"
                     "ids = [int(i) for i in row['icd_ids']]\n"
                     "xs = list(map(float, row['features']))\n")
    assert row_field_conversions(tree) == [1, 2, 3, 4]
    assert row_field_conversions(ast.parse("v = float(value)\n"
                                           "s = str(record.sample_id)\n"
                                           "n = len(row['ids'])\n"
                                           "ids = [int(i) for i in ids]\n"
                                           "xs = list(map(float, feats))\n")) == []
    exempt = ast.parse("def check_row(row):\n    return float(row['x'])\n"
                       "def parse(row):\n    return str(row['x'])\n")
    assert row_field_conversions(exempt, ROW_FIELD_CONVERTERS) == [4]
    # a parser that coerces a field again, in the module that holds the schema
    source = Path(cxrgen.__file__).with_name("records.py").read_text(encoding="utf-8")
    good = "return cls(**check_row(row, field_types(cls)))"
    assert source.count(good) == 2
    mutant = source.replace(good, "return cls(**check_row({**row, 'sample_id': "
                                  "str(row['sample_id'])}, field_types(cls)))", 1)
    assert row_field_conversions(ast.parse(source), ROW_FIELD_CONVERTERS) == []
    assert len(row_field_conversions(ast.parse(mutant), ROW_FIELD_CONVERTERS)) == 1


# cli's config file: check_fields checks each of its sections by their config class
UNCHECKED_DOCUMENTS = {"cli.py": 1}


def unchecked_documents(tree: ast.AST) -> list[int]:
    """Lines that call ``read_json`` without a field map: no fourth argument
    and no ``kinds`` keyword, or None for either."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "read_json" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            kinds = node.args[3:4] + [kw.value for kw in node.keywords if kw.arg == "kinds"]
            if not kinds or isinstance(kinds[0], ast.Constant) and kinds[0].value is None:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_document_read_passes_a_field_map(path):
    lines = unchecked_documents(ast.parse(path.read_text(encoding="utf-8")))
    assert len(lines) == UNCHECKED_DOCUMENTS.get(path.name, 0), (
        f"{path.name} reads a JSON document without a field map at lines {lines}; pass "
        f"read_json the kind of each field, for cxrgen.records.check_row to check")


def test_a_document_read_without_a_field_map_is_caught():
    assert unchecked_documents(ast.parse("a = read_json(path, 'vocabulary')\n"
                                         "b = records.read_json(path, 'x', DataError)\n"
                                         "c = read_json(path, 'x', DataError, None)\n"
                                         "d = read_json(path, 'x', kinds=None)\n")) == [1, 2, 3, 4]
    assert unchecked_documents(ast.parse("a = read_json(path, 'x', DataError, KINDS)\n"
                                         "b = read_json(path, 'x', kinds={'a': str})\n"
                                         "c = read_rows(path, parse)\n")) == []
    # a vocabulary loader that no longer declares its tokens
    source = Path(cxrgen.__file__).with_name("vocab.py").read_text(encoding="utf-8")
    good = 'read_json(path, "vocabulary", DataError, {"tokens": list[str]})'
    assert source.count(good) == 1
    mutant = source.replace(good, 'read_json(path, "vocabulary")')
    assert unchecked_documents(ast.parse(source)) == []
    assert len(unchecked_documents(ast.parse(mutant))) == 1


def input_mask_builds(tree: ast.AST) -> list[int]:
    """Lines that call ``InputMask``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "InputMask" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))


def input_mask_parameters(tree: ast.AST) -> list[int]:
    """Lines of functions and lambdas that take an ``input_mask`` parameter."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None]
            if "input_mask" in names:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_model_builds_input_masks(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    builds = [] if path.name == "model.py" else input_mask_builds(tree)
    assert not builds, (f"{path.name} builds an InputMask at lines {builds}; name an "
                        f"input preset, and let cxrgen.model's INPUT_PRESETS hold it")
    params = input_mask_parameters(tree)
    assert not params, (f"{path.name} takes an input_mask parameter at lines {params}; "
                        f"take the name of an input preset instead")


def test_an_input_mask_outside_model_is_caught():
    assert input_mask_builds(ast.parse("a = InputMask('x')\n"
                                       "b = model.InputMask(label='y')\n")) == [1, 2]
    assert input_mask_parameters(ast.parse("def f(input_mask=None): pass\n"
                                           "def g(*, input_mask): pass\n"
                                           "h = lambda input_mask: 0\n")) == [1, 2, 3]
    assert input_mask_builds(ast.parse("m = INPUT_PRESETS[name]\n")) == []
    assert input_mask_parameters(ast.parse("def f(inputs='all', mask=None): pass\n")) == []
    # the pipeline building its own mask, and the model taking one again
    pipeline = Path(cxrgen.__file__).with_name("pipeline.py").read_text(encoding="utf-8")
    label = "INPUT_PRESETS[name].label"
    assert pipeline.count(label) == 1 and input_mask_builds(ast.parse(pipeline)) == []
    mutant = pipeline.replace(label, "InputMask(name).label")
    assert len(input_mask_builds(ast.parse(mutant))) == 1
    model = Path(cxrgen.__file__).with_name("model.py").read_text(encoding="utf-8")
    inputs = 'seed: int = 0, inputs: str = "all"'
    assert model.count(inputs) == 1 and input_mask_parameters(ast.parse(model)) == []
    mutant = model.replace(inputs, "seed: int = 0, input_mask=None")
    assert len(input_mask_parameters(ast.parse(mutant))) == 1


README = Path(cxrgen.__file__).parents[2] / "README.md"


def package_table_rows(readme: str) -> list[str]:
    """Module names the first column of README's "Package layout" table gives,
    in order: ``| `cxrgen.tensor` | ... |`` gives ``tensor``."""
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `cxrgen\.(\w+)` \|", section, flags=re.MULTILINE)


def test_readme_package_table_names_every_module():
    modules = sorted(m.name for m in pkgutil.iter_modules(cxrgen.__path__))
    rows = package_table_rows(README.read_text(encoding="utf-8"))
    assert sorted(rows) == modules, (
        f"README's package table names {sorted(rows)}; the package holds {modules}")


def test_a_stale_package_table_is_caught():
    readme = README.read_text(encoding="utf-8")
    modules = sorted(m.name for m in pkgutil.iter_modules(cxrgen.__path__))
    assert sorted(package_table_rows(readme)) == modules
    row = "| `cxrgen.errors` |"
    assert readme.count(row) == 1
    # a module without a row, a row without a module, and a module named twice
    without = re.sub(r"^\| `cxrgen\.errors` \|.*\n", "", readme, flags=re.MULTILINE)
    assert sorted(package_table_rows(without)) != modules
    for mutant in (readme.replace(row, "| `cxrgen.mask` |"),
                   readme.replace(row, "| `cxrgen.tensor` |")):
        assert sorted(package_table_rows(mutant)) != modules
    # a module named only outside the table does not count
    assert package_table_rows("| `cxrgen.tensor` | x |\n## Package layout\n\n"
                              "| `cxrgen.errors` | y |\n## Next\n| `cxrgen.cli` | z |\n"
                              ) == ["errors"]
