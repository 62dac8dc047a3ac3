"""The one field check every config dataclass, the CLI's config sections and
checkpoint metadata go through: types, counts and seeds."""

import dataclasses
import json
import math
import re
from typing import get_args, get_type_hints

import pytest

from cxrgen import cli
from cxrgen.errors import ConfigurationError, check_fields
from cxrgen.training import TrainConfig

from helpers import CONFIGS


def field_kind(cls, name: str) -> type:
    """The annotated type of field ``name``; ``X`` for ``Optional[X]``."""
    hint = get_type_hints(cls)[name]
    return (get_args(hint) or (hint,))[0]


def bad_values(name: str, kind: type) -> list[tuple[str, object]]:
    """(label, value) pairs that a field ``name`` of type ``kind`` rejects."""
    common = [("bool", True), ("string", "1")]
    if kind is float:
        return common + [("nan", math.nan), ("inf", math.inf)]
    if name == "seed":
        return common + [("fraction", 2.5), ("negative", -1)]
    return common + [("fraction", 2.5), ("zero", 0)]


CASES = [pytest.param(cls, field.name, value, id=f"{cls.__name__}.{field.name}-{label}")
         for cls in CONFIGS
         for field in dataclasses.fields(cls)
         for label, value in bad_values(field.name, field_kind(cls, field.name))]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_every_config_field_rejects_a_bad_value_by_name(tmp_path, cls, name, value):
    with pytest.raises(ConfigurationError, match=re.escape(repr(name))):
        cls(**{name: value})
    (section,) = [s for s, section_cls in cli.SECTIONS.items() if section_cls is cls]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {name: value}}), encoding="utf-8")
    where = re.escape(f"config file {path}, section {section!r}: {name!r}")
    with pytest.raises(ConfigurationError, match=f"^{where}"):
        cli._load_config_file(str(path))


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_configs_are_frozen(cls):
    config = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, dataclasses.fields(cls)[0].name, 1)


def test_unknown_key_and_non_mapping_rejected():
    with pytest.raises(ConfigurationError,
                       match=re.escape("unknown key 'lr'; known keys are ['base_lr', ")):
        check_fields(TrainConfig, {"lr": 0.1})
    with pytest.raises(ConfigurationError, match="mapping of field names.*got list"):
        check_fields(TrainConfig, [("base_lr", 0.1)])
