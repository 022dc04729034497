"""The benchmark's tracer must see the package calls it times.

`bench/tracing.py` wraps functions by (module, attribute) while a traced
pass runs. A call made through a reference taken before that (a function
stored in a table at import, say) bypasses the wrapper: the span is missing
and its per-layer metrics read zero, with no error. These tests read
`bench/` and change nothing in it.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import detjump as dj
from detjump import cli, fibonacci

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    # bench/ holds its own oracles.py, so it is on the path only for this import
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_name_resolves(tracing):
    for layer, targets in tracing._TRACED.items():
        for module, attr in targets:
            assert callable(getattr(importlib.import_module(module), attr, None)), \
                (layer, module, attr)


def test_one_job_per_subcommand_records_its_spans(tracing, tmp_path):
    def config(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    cycle = {"family": "lazy_cycle", "n": 8}
    jump = {"kind": "random", "seed": 1}
    mix = config("mix.json", {"chain": cycle, "bijection": jump,
                              "analysis": [{"type": "mixing", "kmax": 3}]})
    dj.save_matrix_csv(tmp_path / "base.csv", dj.build_lazy_cycle_walk(3))
    spec = config("hof.json", {"base_n": 3, "order": 2, "update": "additive",
                               "base_kernel_csv": str(tmp_path / "base.csv")})
    jobs = {
        "validate": (["validate", "--config", mix], "chains.validate"),
        "mix": (["mix", "--config", mix], "spectral.mixing_profile"),
        "compare": (["compare", "--config-a", mix, "--config-b", mix],
                    "spectral.mixing_profile"),
        "spectral": (["spectral", "--config", config("spectral.json", {
            "chain": cycle, "bijection": jump, "analysis": [{"type": "spectral"}]})],
            "spectral.cheeger_constant"),
        "expansion": (["expansion", "--config", config("expansion.json", {
            "chain": cycle, "bijection": jump, "analysis": [{"type": "expansion"}]})],
            "expansion.check_expansion"),
        "scan": (["scan", "--config", config("scan.json", {
            "chain": cycle,
            "analysis": [{"type": "scan", "epsilon": 0.5, "trials": 2, "seed": 1}]})],
            "expansion.scan_random_bijections"),
        "fibonacci": (["fibonacci", "--n", "22", "--kmax", "4"], "fibonacci.fourier_tv_bound"),
        "hof": (["hof", "--config", spec], "fibonacci.verify_uniform_ergodicity"),
    }
    tracer = tracing.Tracer()
    with tracer.installed(0):
        for name, (argv, _) in jobs.items():
            tracer.job = name
            # looked up on the module, as the benchmark does, so the wrapper runs
            assert cli.main([*argv, "--out", str(tmp_path / f"{name}.out")]) == 0, name
    spans = {(s.job, s.name) for s in tracer.spans}
    for name, (_, expected) in jobs.items():
        assert (name, "cli.main") in spans, name
        assert (name, expected) in spans, (name, expected)
    assert ("mix", "chains.build_lazy_cycle_walk") in spans
    assert ("validate", "chains.build_lazy_cycle_walk") in spans


def test_every_counter_reads_the_arguments_it_names(tracing, tmp_path):
    # a counter binds the traced call's arguments by name, so a renamed argument fails here
    chain = {"family": "lazy_cycle", "n": 8}
    jump = {"kind": "random", "seed": 1}
    configs = {
        "sampled": {"chain": chain, "bijection": jump, "analysis": [
            {"type": "expansion", "mode": "sampled", "num_samples": 20, "seed": 3}]},
        "exhaustive": {"chain": chain, "bijection": jump, "analysis": [{"type": "expansion"}]},
        "spectral": {"chain": chain, "bijection": jump, "analysis": [{"type": "spectral"}]},
        "mix": {"chain": chain, "bijection": jump, "analysis": [{"type": "mixing", "kmax": 3}]},
    }
    tracer = tracing.Tracer()
    with tracer.installed(0):
        for name, obj in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            command = "expansion" if name in ("sampled", "exhaustive") else name
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / f"{name}.out")]) == 0, name
        assert cli.main(["fibonacci", "--n", "22", "--kmax", "4",
                         "--out", str(tmp_path / "fib.out")]) == 0
        spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(3), order=2)
        # looked up on the module, as the tracer wraps it
        assert fibonacci.build_higher_order_chain(spec).n == 9
    counted = {}
    for s in tracer.spans:
        counted.setdefault(s.name, set()).update(s.counts)
    for name in tracing._COUNTERS:
        assert counted.get(name), name
    assert {"exhaustive_sets", "sampled_sets"} <= counted["expansion.check_expansion"]
    assert counted["fibonacci.build_higher_order_chain"] == {"register_states"}
