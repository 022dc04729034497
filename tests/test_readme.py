"""The README against the code: the "Caps and tolerances" table and the example configs."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import detjump
from detjump.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"
_ROW = re.compile(r"^\| `(\w+)` \| ([^|]+?) \|")


def _caps_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Caps and tolerances", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(_ROW.match, section.splitlines()) if m]


def _value(text):
    """A stated value: 2^k or a decimal literal."""
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else (int(text) if text.isdigit() else float(text))


def test_every_caps_row_names_a_constant_with_its_stated_value():
    modules = [importlib.import_module(f"detjump.{m.name}")
               for m in pkgutil.iter_modules(detjump.__path__)]
    rows = _caps_rows()
    assert rows
    for name, stated in rows:
        found = {m.__name__: getattr(m, name) for m in modules if hasattr(m, name)}
        assert found, f"{name} is not defined in any detjump module"
        assert all(v == _value(stated) for v in found.values()), (name, stated, found)


def _example_configs():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [block for block in blocks if "analysis" in json.loads(block)]


def test_every_example_config_loads(tmp_path):
    examples = _example_configs()
    assert examples
    for i, block in enumerate(examples):
        path = tmp_path / f"example{i}.json"
        path.write_text(block, encoding="utf-8")
        assert load_config(path).analyses
