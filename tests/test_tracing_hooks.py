"""The benchmark's tracer (perfbench/tracing.py) wraps cxrgen functions and
methods by name. Installing it must find every name it spans, and
uninstalling it must put every original back."""

import importlib
import pkgutil
import types
from pathlib import Path

import cxrgen

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    # compiled from its source, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def spanned_owners(tracing) -> list:
    """(owner, attribute) for each spanned name: a class or a module."""
    owners = []
    for module_name, names in tracing.SPANNED.items():
        module = importlib.import_module(f"cxrgen.{module_name}")
        for qualname in names:
            *cls, attr = qualname.split(".")
            owners.append((getattr(module, cls[0]) if cls else module, attr))
    return owners


def test_tracer_installs_and_uninstalls_against_src():
    tracing = load_tracing()
    modules = [importlib.import_module(f"cxrgen.{info.name}")
               for info in pkgutil.iter_modules(cxrgen.__path__)]
    owners = spanned_owners(tracing)
    namespaces = modules + [owner for owner, _ in owners if isinstance(owner, type)]
    before = [dict(vars(ns)) for ns in namespaces]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in owners:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            assert hasattr(fn, "__wrapped__"), f"{owner.__name__}.{attr} is not spanned"
    finally:
        tracer.uninstall()

    for ns, names in zip(namespaces, before):
        changed = sorted(key for key, value in names.items() if vars(ns).get(key) is not value)
        assert not changed, f"{ns.__name__}: {changed} not restored by uninstall"
