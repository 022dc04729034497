"""Smoke tests of the benchmark itself, at a size that runs in well under a second per pass.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool, seed: int = harness.DEFAULT_SEED) -> tuple[dict, dict]:
    out = io.StringIO()
    assert harness.main(workload, seed, 0.0, trace, size="smoke", out=out) == 0
    *_, info, result = out.getvalue().splitlines()
    return json.loads(info), json.loads(result)


def test_spec_names_the_workloads_and_metrics_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [harness.DEFAULT_SEED, 7])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, seed, tmp_path):
    info, result = _run(workload, trace, seed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and info["failed_frac"] == 0.0, info
    assert result["attempted"] == info["passes"] * len(
        workloads.build(workload, seed, "smoke", tmp_path, 1))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert {"nproc", "python", "numpy", "blas", "detjump", "commit"} <= set(info["machine"])


def _corrupt(text: str) -> str:
    """Bump the first digit: the artifact still parses, but a value is wrong."""
    m = re.search(r"\d", text)
    return text[:m.start()] + str((int(m.group()) + 1) % 10) + text[m.end():]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("every_pass", [True, False])
def test_corrupted_artifact_raises_failed_frac(workload, every_pass, monkeypatch):
    """Corrupting every pass trips the output checks; corrupting one trips the determinism check."""
    build = workloads.build

    def corrupting_build(*args):
        jobs = build(*args)
        for job in jobs:
            run, calls = job.run, []

            def corrupted(job=job, run=run, calls=calls):
                code, text = run()
                calls.append(1)
                if every_pass or len(calls) == 2:
                    if text is None:
                        job.artifact.write_text(_corrupt(job.artifact.read_text()))
                    else:
                        text = _corrupt(text)
                return code, text
            job.run = corrupted
        return jobs

    monkeypatch.setattr(workloads, "build", corrupting_build)
    info, result = _run(workload, False)
    assert not result["correct"] and result["failed"] > 0
    assert info["failed_frac"] > 0
    n_jobs = result["attempted"] // info["passes"]
    assert result["failed"] == (result["attempted"] if every_pass else n_jobs)
