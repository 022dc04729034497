"""The benchmark runs at smoke size on a copy of the tree and checks its own outputs.

`bench/run.py` pins package names and artifacts that no other test reads,
so each workload is run here once, at its smallest size, on a copy of
`src/`, `bench/` and `BENCHMARK.json`. It runs in a subprocess because
`bench/` has its own `oracles` module, which would shadow `tests/oracles.py`
in this interpreter; the copy keeps the run's files out of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    copy = tmp_path_factory.mktemp("tree")
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
    shutil.copytree(ROOT / "bench", copy / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    return copy


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_at_smoke_size_and_checks_out(tree, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "smoke",
         "--seconds", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
