"""The README against the code: the quick start, the "Budgets and tolerances" table, the
analysis parameter table, the hof spec example and the example configs."""

import ast
import builtins
import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import detjump
from detjump.cli import ANALYSES, HOF_SPEC, load_config

README = Path(__file__).resolve().parents[1] / "README.md"
_ROW = re.compile(r"^\| `(\w+)` \| ([^|]+?) \|")


def _caps_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Budgets and tolerances", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(_ROW.match, section.splitlines()) if m]


def _value(text):
    """A stated value: 2^k or a decimal literal."""
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else (int(text) if text.isdigit() else float(text))


def _has_member(cls, member):
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return hasattr(cls, member) or member in fields


def test_every_class_the_readme_names_exists():
    # a backticked CamelCase name opening `Name`, `Name.attr` or `Name(`; a
    # `Name.member` must also name a member or dataclass field of that class
    text = README.read_text(encoding="utf-8")
    camel = r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*"
    names = set(re.findall(rf"`({camel})[`.(]", text))
    modules = [detjump] + [importlib.import_module(f"detjump.{m.name}")
                           for m in pkgutil.iter_modules(detjump.__path__)]
    assert "StateSet" in names
    missing = {name for name in names - set(dir(builtins))
               if not any(hasattr(m, name) for m in modules)}
    assert not missing
    members = set(re.findall(rf"`({camel})\.(\w+)", text))
    assert ("StateSet", "from_indices") in members
    unknown = {(name, member) for name, member in members
               if not any(_has_member(getattr(m, name), member)
                          for m in modules if hasattr(m, name))}
    assert not unknown


def test_every_caps_row_names_a_constant_with_its_stated_value():
    modules = [importlib.import_module(f"detjump.{m.name}")
               for m in pkgutil.iter_modules(detjump.__path__)]
    rows = _caps_rows()
    assert rows
    for name, stated in rows:
        found = {m.__name__: getattr(m, name) for m in modules if hasattr(m, name)}
        assert found, f"{name} is not defined in any detjump module"
        assert all(v == _value(stated) for v in found.values()), (name, stated, found)


def test_caps_table_names_exactly_the_caps_and_tolerances_of_the_modules():
    # every *_CAP and *_TOL constant (the two budgets, the exactness guard and the
    # tolerances) and SUBSET_BLOCK, each with its value
    named = re.compile(r"[A-Z][A-Z_]*_(CAP|TOL)|SUBSET_BLOCK")
    constants = {name: value
                 for m in pkgutil.iter_modules(detjump.__path__)
                 for name, value in vars(importlib.import_module(f"detjump.{m.name}")).items()
                 if named.fullmatch(name)}
    rows = dict(_caps_rows())
    assert rows.keys() == constants.keys()
    assert {name: _value(stated) for name, stated in rows.items()} == constants


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


def test_analysis_table_names_exactly_the_declared_keys():
    # a row's parameters are its backticked names outside parentheses (which hold values)
    text = README.read_text(encoding="utf-8")
    section = text.split("| type ", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for m in re.finditer(r"^\| `(\w+)` +\| ([^|]+)\|", section, re.M):
        rows[m.group(1)] = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", m.group(2))))
    assert rows.keys() == ANALYSES.keys()
    for kind, analysis in ANALYSES.items():
        assert rows[kind] == analysis.fields.keys(), kind


def test_hof_spec_example_names_exactly_the_declared_keys():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    specs = [json.loads(block) for block in blocks if "base_kernel_csv" in block]
    assert len(specs) == 1
    assert specs[0].keys() == HOF_SPEC.keys()


def test_quick_start_runs_and_prints_what_it_claims(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
    # "(60, ~5e-14) vs ~0.64 for plain P at k=100"
    k, tv = ast.literal_eval(capsys.readouterr().out)
    assert k == 60 and tv < 1e-13
    k, plain = detjump.mixing_profile(detjump.build_lazy_cycle_walk(101), 100)[100]
    assert k == 100 and abs(plain - 0.64) < 0.01
