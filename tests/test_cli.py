import contextlib
import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import chains, cli, fibonacci, spectral
from detjump.cli import load_config, main
from detjump.errors import ConfigError
from detjump.chains import MEMORY_CAP, WORK_CAP
from oracles import mixing_profile_dense


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def mixing_config(tmp_path, name="cfg.json", n=31, bijection=None, kmax=40, **extra):
    cfg = {
        "chain": {"family": "lazy_cycle", "n": n},
        "analysis": [{"type": "mixing", "kmax": kmax, **extra}],
    }
    if bijection is not None:
        cfg["bijection"] = bijection
    return write_config(tmp_path, name, cfg)


def test_mix_row_count_and_header(tmp_path):
    cfg = mixing_config(tmp_path, n=101, bijection={"kind": "random", "seed": 1}, kmax=100)
    out = tmp_path / "mix.csv"
    assert main(["mix", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,worst_tv"
    assert len(lines) == 1 + 101  # header + k = 0..100
    assert lines[1].startswith("0,")


def test_mix_bound_columns(tmp_path):
    cfg = mixing_config(tmp_path, n=13, bijection={"kind": "doubling"},
                        kmax=10, epsilon=0.25, spectral_bound=True)
    out = tmp_path / "mix.csv"
    assert main(["mix", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,worst_tv,bound_expansion,bound_spectral"
    # bounds are only defined from k = 1 and k = 2 respectively
    assert lines[1].split(",")[2] == "" and lines[1].split(",")[3] == ""
    assert lines[2].split(",")[2] != "" and lines[2].split(",")[3] == ""
    assert lines[3].split(",")[2] != "" and lines[3].split(",")[3] != ""


def test_identical_runs_identical_bytes(tmp_path):
    cfg = mixing_config(tmp_path, n=41, bijection={"kind": "random", "seed": 5}, kmax=30)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["mix", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["mix", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_missing_matrix_file_exits_2_with_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "file", "path": str(tmp_path / "nope.csv")},
        "analysis": [{"type": "mixing", "kmax": 5}],
    })
    assert main(["mix", "--config", cfg]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_empty_matrix_file_exits_2_with_one_line(tmp_path, capsys):
    matrix = tmp_path / "empty.csv"
    matrix.write_text("")
    cfg = write_config(tmp_path, "cfg.json", {"chain": {"family": "file", "path": str(matrix)}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: matrix CSV {matrix} holds no rows\n"


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "chain": oops\n}')
    assert main(["mix", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


@pytest.mark.parametrize("command", ["mix", "hof"])
def test_deeply_nested_json_exits_2(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text('{"chain": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, err = _run_quietly([command, "--config", str(path)])
    assert code == 2
    assert "nested too deeply" in err


def test_compare_jump_chain_dominates(tmp_path):
    plain = mixing_config(tmp_path, "plain.json", n=101, kmax=100)
    jumped = mixing_config(tmp_path, "jump.json", n=101,
                           bijection={"kind": "random", "seed": 1}, kmax=100)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config-a", plain, "--config-b", jumped,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,worst_tv_A,worst_tv_B"
    for line in lines[1:]:
        k, tva, tvb = line.split(",")
        if int(k) >= 20:
            assert float(tvb) < float(tva), k


def test_mix_holds_no_dense_matrix_of_a_sparse_chain(tmp_path, allocation_peak):
    # P and Q are rows tables of 4096 x 3, and the shift step works in blocks of
    # 2^16 doubles; a dense P and Q would be 128 MiB each
    n = 4096
    cfg = mixing_config(tmp_path, n=n, bijection={"kind": "random", "seed": 1}, kmax=4)
    out = tmp_path / "mix.csv"
    with allocation_peak() as peak:
        assert _run_quietly(["mix", "--config", cfg, "--out", str(out)])[0] == 0
    assert len(out.read_text().splitlines()) == 1 + 5
    assert peak.bytes < 16 << 20


def test_mix_with_the_spectral_bound_holds_two_dense_matrices(tmp_path, allocation_peak):
    # the kernel's L and A, then A and R, then R: never three n x n arrays at once
    # (LAPACK's working copy in the eigensolve is allocated outside tracemalloc)
    n = 1024
    cfg = mixing_config(tmp_path, n=n, bijection={"kind": "random", "seed": 1}, kmax=10,
                        spectral_bound=True)
    out = tmp_path / "mix.csv"
    with allocation_peak() as peak:
        assert _run_quietly(["mix", "--config", cfg, "--out", str(out)])[0] == 0
    assert out.read_text().splitlines()[0] == "k,worst_tv,bound_spectral"
    assert peak.bytes < 2 * n * n * 8 + (1 << 20)


def test_compare_identical_configs_equal_columns(tmp_path):
    cfg = mixing_config(tmp_path, n=21, bijection={"kind": "random", "seed": 2}, kmax=25)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config-a", cfg, "--config-b", cfg, "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        _, a, b = line.split(",")
        assert a == b


def test_mix_takes_the_gather_route_on_a_sparse_file_chain(tmp_path):
    # I/3 + (C + C^T)/6 + (D + D^T)/6, C a random n-cycle and D a random
    # permutation: at most 5 nonzeros a row, 5 * 128 <= n, and no factoring
    n = 640
    rng = np.random.default_rng(11)
    cycle, perm = rng.permutation(n), rng.permutation(n)
    a = np.eye(n) / 3
    np.add.at(a, (cycle, np.roll(cycle, 1)), 1 / 6)
    np.add.at(a, (np.roll(cycle, 1), cycle), 1 / 6)
    np.add.at(a, (np.arange(n), perm), 1 / 6)
    np.add.at(a, (perm, np.arange(n)), 1 / 6)
    matrix = tmp_path / "sparse.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(a))
    cfg = write_config(tmp_path, "cfg.json", {"chain": {"family": "file", "path": str(matrix)},
                                              "analysis": [{"type": "mixing", "kmax": 8}]})
    mix, both = tmp_path / "mix.csv", tmp_path / "both.csv"
    assert _run_quietly(["mix", "--config", cfg, "--out", str(mix)])[0] == 0
    Q = dj.load_matrix_csv(matrix)
    assert spectral._plan(Q, 8)[1][0] == "gather"
    rows = [line.split(",") for line in mix.read_text().splitlines()[1:]]
    want = mixing_profile_dense(Q, 8)
    assert max(abs(float(tv) - w) for (_, tv), w in zip(rows, want)) <= 1e-14
    assert _run_quietly(["compare", "--config-a", cfg, "--config-b", cfg,
                         "--out", str(both)])[0] == 0
    assert [line.split(",")[2] for line in both.read_text().splitlines()[1:]] == \
        [tv for _, tv in rows]


def test_compare_kmax_mismatch_exits_2(tmp_path, capsys):
    a = mixing_config(tmp_path, "a.json", kmax=10)
    b = mixing_config(tmp_path, "b.json", kmax=20)
    assert main(["compare", "--config-a", a, "--config-b", b]) == 2
    assert "kmax" in capsys.readouterr().err


def test_compare_refuses_a_config_with_two_mixing_entries(tmp_path, capsys):
    # compare reads one entry's kmax; a second entry, or the first's output.path, would be ignored
    chain = {"family": "lazy_cycle", "n": 9}
    two = write_config(tmp_path, "two.json", {"chain": chain, "analysis": [
        {"type": "mixing", "kmax": 5, "output": {"path": str(tmp_path / "a_out.csv")}},
        {"type": "mixing", "kmax": 5, "epsilon": 0.5}]})
    one = mixing_config(tmp_path, "one.json", n=9, kmax=5)
    for argv in (["--config-a", one, "--config-b", two], ["--config-a", two, "--config-b", one]):
        assert main(["compare", *argv]) == 2
        captured = capsys.readouterr()
        assert "two.json" in captured.err and "exactly one mixing analysis" in captured.err
        assert "got 2" in captured.err and captured.out == ""
    assert not (tmp_path / "a_out.csv").exists()


def test_compare_needs_a_mixing_entry_in_each_config(tmp_path, capsys):
    spectral_only = write_config(tmp_path, "spectral.json", {
        "chain": {"family": "lazy_cycle", "n": 9}, "analysis": [{"type": "spectral"}]})
    one = mixing_config(tmp_path, "one.json", n=9, kmax=5)
    assert main(["compare", "--config-a", one, "--config-b", spectral_only]) == 2
    assert "spectral.json: compare needs exactly one mixing analysis" in capsys.readouterr().err


def test_validate_subcommand_good_chain(tmp_path, capsys):
    cfg = mixing_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["aperiodic"]
    assert report["delta"] == pytest.approx(1 / 3)


def test_validate_subcommand_flags_violations(tmp_path, capsys):
    # plain (non-lazy) cycle: zero diagonal
    n = 6
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 0.5
    a[idx, (idx - 1) % n] = 0.5
    matrix = tmp_path / "plain.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(a))
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "file", "path": str(matrix)},
        "analysis": [],
    })
    assert main(["validate", "--config", cfg]) == 4
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert report["violations"]["positive_diagonal"] == [0, 0]


@pytest.mark.parametrize("n,aperiodic", [(3, True), (4, False), (5, True), (6, False)])
def test_validate_reports_aperiodic_from_the_period_of_a_non_lazy_chain(tmp_path, capsys, n,
                                                                        aperiodic):
    # the plain n-cycle has period 2 for even n and 1 for odd n, diagonal zero either way
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 0.5
    a[idx, (idx - 1) % n] = 0.5
    matrix = tmp_path / "plain.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(a))
    cfg = write_config(tmp_path, "cfg.json", {"chain": {"family": "file", "path": str(matrix)}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")]) == 4
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["aperiodic"] is aperiodic
    assert not report["assumptions"]["positive_diagonal"]


def test_expansion_json_payload(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 12},
        "bijection": {"kind": "identity"},
        "analysis": [{"type": "expansion"}],
    })
    out = tmp_path / "exp.json"
    assert main(["expansion", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"epsilon_star", "witness", "mode", "sets_checked"}
    assert payload["epsilon_star"] == pytest.approx(2 / 3)
    assert payload["witness"] == [0, 1, 2, 3, 4, 5]
    assert payload["mode"] == "exhaustive"


def test_expansion_capacity_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 101},
        "analysis": [{"type": "expansion"}],
    })
    assert main(["expansion", "--config", cfg]) == 3
    assert "over WORK_CAP" in capsys.readouterr().err


def test_scan_csv_payload(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 10},
        "analysis": [{"type": "scan", "epsilon": 0.2, "trials": 8, "seed": 3}],
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,epsilon_star,good"
    assert len(lines) == 9
    assert lines[1].startswith("3,")
    assert lines[8].startswith("10,")


def test_scan_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 10},
        "analysis": [{"type": "scan", "epsilon": 0.2, "trials": 8}],
    })
    assert main(["scan", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_spectral_json_payload(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 12},
        "bijection": {"kind": "random", "seed": 1},
        "analysis": [{"type": "spectral", "compute_epsilon": True}],
    })
    out = tmp_path / "spec.json"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 12
    assert 0.0 <= payload["lambda2"] < 1.0
    assert payload["cheeger"] > 0.0
    assert payload["expansion_epsilon"] > 0.0
    assert payload["cheeger"] >= payload["expansion_epsilon"] * (1 / 3) ** 4 - 1e-9


def test_fibonacci_subcommand(tmp_path):
    out = tmp_path / "fib.csv"
    assert main(["fibonacci", "--n", "22", "--kmax", "12", "--c", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,tv_exact,tv_fourier_bound"
    assert len(lines) == 1 + 12 + 1  # header, rows, guarantee summary
    assert lines[-1].startswith("# guarantee")
    for line in lines[1:-1]:
        _, tv, bound = line.split(",")
        assert float(tv) <= float(bound) + 1e-9


def test_fibonacci_small_modulus_has_no_summary(tmp_path):
    out = tmp_path / "fib.csv"
    assert main(["fibonacci", "--n", "10", "--kmax", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert not lines[-1].startswith("#")


def test_fibonacci_rejects_non_finite_c(capsys):
    for c in ("inf", "nan"):
        assert main(["fibonacci", "--n", "50", "--kmax", "5", "--c", c]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err


def test_scan_config_rejects_an_int_epsilon_too_large_for_a_float(tmp_path):
    cfg = write_config(tmp_path, "scan.json", {
        "chain": {"family": "lazy_cycle", "n": 5},
        "analysis": [{"type": "scan", "epsilon": 10**400, "trials": 1, "seed": 0}]})
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfg)


@pytest.mark.parametrize("argv", [
    ["--n", "50", "--kmax", "5", "--c", "1e300"],   # guarantee horizon near 1e302
    ["--n", "50", "--kmax", str(10**9)],
    ["--n", "2", "--kmax", str(MEMORY_CAP // 16 + 1)],
])
def test_fibonacci_horizon_over_the_marginal_cap_exits_3(argv, capsys):
    assert main(["fibonacci", *argv]) == 3
    err = capsys.readouterr().err
    assert "_CAP=" in err and "make kmax" in err and "Traceback" not in err


@pytest.mark.parametrize("kmax", [10**9, 10**20])
@pytest.mark.parametrize("command", ["mix", "compare"])
def test_mix_kmax_over_the_step_cap_exits_3(tmp_path, capsys, command, kmax):
    cfg = mixing_config(tmp_path, n=5, kmax=kmax)
    argv = ["mix", "--config", cfg] if command == "mix" else \
        ["compare", "--config-a", cfg, "--config-b", cfg]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "over WORK_CAP" in err and "make kmax smaller" in err and "Traceback" not in err


@pytest.mark.parametrize("kmax", [10**9, 10**20])
@pytest.mark.parametrize("command", ["mix", "compare"])
def test_mix_kmax_over_the_step_cap_with_an_epsilon_exits_3(tmp_path, capsys, command, kmax):
    # the bound_expansion column is not built per step before the cap is checked
    cfg = mixing_config(tmp_path, n=5, kmax=kmax, epsilon=0.5, spectral_bound=True)
    argv = ["mix", "--config", cfg] if command == "mix" else \
        ["compare", "--config-a", cfg, "--config-b", cfg]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "over WORK_CAP" in err and "make kmax smaller" in err and "Traceback" not in err


def test_compare_jumped_column_is_byte_equal_to_mix(tmp_path):
    # n = 128 with a random jump takes the shift step (w = 3, 3 * 32 <= 128)
    plain = mixing_config(tmp_path, "plain.json", n=128, kmax=40)
    jumped = mixing_config(tmp_path, "jump.json", n=128,
                           bijection={"kind": "random", "seed": 3}, kmax=40)
    mix_out, cmp_out = tmp_path / "mix.csv", tmp_path / "cmp.csv"
    assert main(["mix", "--config", jumped, "--out", str(mix_out)]) == 0
    assert main(["compare", "--config-a", plain, "--config-b", jumped,
                 "--out", str(cmp_out)]) == 0
    mixed = [line.split(",")[1] for line in mix_out.read_text().splitlines()]
    compared = [line.split(",")[2] for line in cmp_out.read_text().splitlines()]
    assert compared[1:] == mixed[1:] and len(mixed) == 42


def test_mix_refuses_an_epsilon_outside_the_bound_before_the_profile(tmp_path, capsys,
                                                                    monkeypatch):
    profiled = []
    monkeypatch.setattr(cli, "mixing_profile", lambda *args: profiled.append(args))
    cfg = mixing_config(tmp_path, n=16, bijection={"kind": "random", "seed": 1}, kmax=200,
                        epsilon=1e6)
    assert main(["mix", "--config", cfg]) == 2
    assert "epsilon^2*delta^8/2 exceeds 1" in capsys.readouterr().err
    assert profiled == []


def _count_validate_calls(monkeypatch):
    """Route the chains, cli and fibonacci bindings of ``validate`` through one counter."""
    calls = []
    original = chains.validate

    def counted(P):
        calls.append(P.n)
        return original(P)

    for module in (chains, cli, fibonacci):
        monkeypatch.setattr(module, "validate", counted)
    return calls


@pytest.mark.parametrize("family", ["lazy_cycle", "file"])
def test_every_subcommand_validates_each_chain_once(tmp_path, monkeypatch, family):
    chain = {"family": "lazy_cycle", "n": 8}
    if family == "file":
        dj.save_matrix_csv(tmp_path / "chain.csv", dj.build_lazy_cycle_walk(8))
        chain = {"family": "file", "path": str(tmp_path / "chain.csv")}
    jump = {"kind": "random", "seed": 1}

    def config(name, analysis, **sections):
        return write_config(tmp_path, name, {"chain": chain, "analysis": [analysis],
                                             **sections})

    mix = config("mix.json", {"type": "mixing", "kmax": 3}, bijection=jump)
    dj.save_matrix_csv(tmp_path / "base.csv", dj.build_lazy_cycle_walk(3))
    spec = write_config(tmp_path, "hof.json", {"base_n": 3, "order": 2, "update": "additive",
                                               "base_kernel_csv": str(tmp_path / "base.csv")})
    jobs = {
        "validate": (["validate", "--config", mix], [8]),
        "mix": (["mix", "--config", mix], [8]),
        "spectral": (["spectral", "--config",
                      config("spectral.json", {"type": "spectral"}, bijection=jump)], [8]),
        "expansion": (["expansion", "--config",
                       config("expansion.json", {"type": "expansion"}, bijection=jump)], [8]),
        "scan": (["scan", "--config", config("scan.json", {
            "type": "scan", "epsilon": 0.5, "trials": 2, "seed": 1})], [8]),
        "compare": (["compare", "--config-a", mix, "--config-b", mix], [8, 8]),
        "hof": (["hof", "--config", spec], [3, 9]),
    }
    calls = _count_validate_calls(monkeypatch)
    for name, (argv, expected) in jobs.items():
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / f"{name}.out")]) == 0, name
        assert calls == expected, name


def test_mix_rejects_an_epsilon_too_large_for_a_float(tmp_path, capsys):
    cfg = mixing_config(tmp_path, n=7, kmax=3, epsilon=10**400)
    assert main(["mix", "--config", cfg]) == 2
    assert "finite positive" in capsys.readouterr().err


@pytest.mark.parametrize("bijection", [None, {"kind": "random", "seed": 0}],
                         ids=["plain", "jumped"])
@pytest.mark.parametrize("command", ["mix", "compare"])
def test_single_start_is_an_undeclared_mixing_key(tmp_path, capsys, command, bijection):
    # the route, one start or all, follows from the chain; the key is not settable
    cfg = mixing_config(tmp_path, n=16, bijection=bijection, kmax=6, single_start=True)
    plain = mixing_config(tmp_path, "plain.json", n=16, kmax=6)
    argv = ["mix", "--config", cfg] if command == "mix" else \
        ["compare", "--config-a", plain, "--config-b", cfg]
    assert main(argv) == 2
    assert "undeclared key 'single_start'" in capsys.readouterr().err


def test_hof_subcommand(tmp_path):
    kernel = tmp_path / "base.csv"
    dj.save_matrix_csv(kernel, dj.build_lazy_cycle_walk(3))
    spec = write_config(tmp_path, "hof.json", {
        "base_n": 3,
        "order": 2,
        "update": "additive",
        "base_kernel_csv": str(kernel),
    })
    out = tmp_path / "hof.json.out"
    assert main(["hof", "--config", spec, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == {"states": 9, "ergodic": True, "uniform_stationary": True}


def test_hof_rejects_bad_update(tmp_path, capsys):
    kernel = tmp_path / "base.csv"
    dj.save_matrix_csv(kernel, dj.build_lazy_cycle_walk(5))
    table = [(x * x + y) % 5 for x in range(5) for y in range(5)]
    spec = write_config(tmp_path, "hof.json", {
        "base_n": 5, "order": 2, "update": table, "base_kernel_csv": str(kernel),
    })
    assert main(["hof", "--config", spec]) == 2
    assert "bijection" in capsys.readouterr().err


def _hof_spec(tmp_path, **fields):
    kernel = tmp_path / "base.csv"
    dj.save_matrix_csv(kernel, dj.build_lazy_cycle_walk(3))
    spec = {"base_n": 3, "order": 2, "update": "additive", "base_kernel_csv": str(kernel)}
    return write_config(tmp_path, "hof.json", {**spec, **fields})


@pytest.mark.parametrize("field,value", [
    ("order", "3"), ("order", 2.0), ("order", True), ("base_n", "3"), ("base_n", False),
    ("update", 5), ("update", [0, 1, "2", 1, 2, 0, 2, 0, 1]), ("update", [True] * 9),
    ("base_kernel_csv", 5), ("base_kernel_csv", None),
])
def test_hof_spec_field_types_exit_2(tmp_path, field, value):
    code, err = _run_quietly(["hof", "--config", _hof_spec(tmp_path, **{field: value})])
    assert code == 2
    assert field in err and "Traceback" not in err


def test_hof_register_cap_exits_3_without_building(tmp_path):
    kernel = tmp_path / "two.csv"
    dj.save_matrix_csv(kernel, dj.TransitionMatrix(np.full((2, 2), 0.5)))
    spec = write_config(tmp_path, "hof.json", {
        "base_n": 2, "order": 40, "update": "additive", "base_kernel_csv": str(kernel)})
    code, err = _run_quietly(["hof", "--config", spec])
    assert code == 3
    assert "2^40 register states" in err and "make order smaller" in err


def _identity_chain_config(tmp_path, analysis):
    matrix = tmp_path / "identity.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(np.eye(2)))
    return write_config(tmp_path, "cfg.json", {
        "chain": {"family": "file", "path": str(matrix)}, "analysis": [analysis]})


@pytest.mark.parametrize("command,analysis", [
    ("validate", {"type": "mixing", "kmax": 3}),
    ("mix", {"type": "mixing", "kmax": 3}),
    ("compare", {"type": "mixing", "kmax": 3}),
    ("spectral", {"type": "spectral", "compute_epsilon": True}),
    ("expansion", {"type": "expansion"}),
    ("scan", {"type": "scan", "epsilon": 0.5, "trials": 2, "seed": 1}),
])
def test_reducible_chain_exits_4_for_every_chain_analysis(tmp_path, command, analysis):
    cfg = _identity_chain_config(tmp_path, analysis)
    if command == "compare":
        argv = ["compare", "--config-a", cfg, "--config-b", cfg]
    else:
        argv = [command, "--config", cfg]
    code, err = _run_quietly(argv)
    assert code == 4
    if command != "validate":
        assert "irreducible" in err


def test_scan_ignores_the_configured_bijection(tmp_path, capsys):
    matrix = tmp_path / "one.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(np.ones((1, 1))))
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "file", "path": str(matrix)},
        "bijection": {"kind": "inversion"},
        "analysis": [{"type": "scan", "epsilon": 0.5, "trials": 2, "seed": 1}]})
    assert main(["scan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "at least two states" in err and "prime" not in err


def test_unknown_analysis_type_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 9},
        "analysis": [{"type": "frobnicate"}],
    })
    assert main(["mix", "--config", cfg]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_subcommand_requires_matching_analysis(tmp_path, capsys):
    cfg = mixing_config(tmp_path)
    assert main(["scan", "--config", cfg]) == 2
    assert "scan" in capsys.readouterr().err


def test_random_bijection_requires_seed_in_config(tmp_path, capsys):
    cfg = mixing_config(tmp_path, bijection={"kind": "random"})
    assert main(["mix", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_comment_keys_are_ignored(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "_note": "underscore keys are comments",
        "chain": {"family": "lazy_cycle", "n": 9, "_why": "small"},
        "analysis": [{"type": "mixing", "kmax": 4, "_todo": True}],
    })
    out = tmp_path / "mix.csv"
    assert main(["mix", "--config", cfg, "--out", str(out)]) == 0


def test_threads_flag_changes_nothing(tmp_path, capsys):
    # scan still accepts --threads N >= 1 and ignores it
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 14},
        "analysis": [{"type": "scan", "epsilon": 0.5, "trials": 3, "seed": 6}],
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", cfg, "--out", str(a)]) == 0
    assert main(["scan", "--config", cfg, "--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["scan", "--config", cfg, "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_stdout_fallback_when_no_out(tmp_path, capsys):
    cfg = mixing_config(tmp_path, kmax=3)
    assert main(["mix", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,worst_tv")


def test_run_executes_analyses_in_order_with_own_outputs(tmp_path):
    from detjump.cli import load_config, run

    long_out = tmp_path / "artifacts" / "long.csv"
    short_out = tmp_path / "artifacts" / "short.csv"
    cfg_path = write_config(tmp_path, "multi.json", {
        "chain": {"family": "lazy_cycle", "n": 12},
        "bijection": {"kind": "random", "seed": 4},
        "analysis": [
            {"type": "mixing", "kmax": 10, "output": {"path": str(long_out)}},
            {"type": "mixing", "kmax": 4, "output": {"path": str(short_out)}},
        ],
    })
    written = run(load_config(cfg_path), "mixing")
    assert [p.name for p in written] == ["long.csv", "short.csv"]
    assert long_out.read_text().startswith("k,worst_tv")
    assert [len(p.read_text().splitlines()) for p in written] == [12, 6]


def test_out_flag_with_multiple_selected_analyses_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "two.json", {
        "chain": {"family": "lazy_cycle", "n": 9},
        "analysis": [{"type": "mixing", "kmax": 3}, {"type": "mixing", "kmax": 5}],
    })
    assert main(["mix", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_format_is_an_undeclared_key(tmp_path, capsys, fmt):
    # the analysis type fixes the artifact's format, so there is no key to set it
    cfg = write_config(tmp_path, "fmt.json", {
        "chain": {"family": "lazy_cycle", "n": 9},
        "analysis": [{"type": "mixing", "kmax": 3,
                      "output": {"format": fmt, "path": str(tmp_path / "x.csv")}}],
    })
    assert main(["mix", "--config", cfg]) == 2
    assert "output: undeclared key 'format'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("second", ["mix.csv", "sub/../mix.csv", "{tmp}/mix.csv"])
def test_two_analyses_writing_one_file_exit_2_before_any_runs(tmp_path, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cfg = write_config(tmp_path, "two.json", {
        "chain": {"family": "lazy_cycle", "n": 9},
        "analysis": [{"type": "mixing", "kmax": 3, "output": {"path": "mix.csv"}},
                     {"type": "mixing", "kmax": 5,
                      "output": {"path": second.format(tmp=tmp_path)}}],
    })
    code, err = _run_quietly(["mix", "--config", cfg])
    assert code == 2
    assert f"more than one analysis writes {tmp_path / 'mix.csv'}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "two.json"]


def test_an_output_path_in_a_symlink_loop_gives_no_traceback(tmp_path):
    # Path.resolve raises RuntimeError on a loop; the same-file check must not
    loop_a, loop_b = tmp_path / "a", tmp_path / "b"
    loop_a.symlink_to(loop_b)
    loop_b.symlink_to(loop_a)
    code, err = _run_quietly(["mix", "--config", mixing_config(tmp_path, kmax=2),
                              "--out", str(loop_a)])
    assert code in (0, 2) and "Traceback" not in err


_FIB = ["fibonacci", "--n", "5", "--kmax", "2"]


def test_an_output_path_that_is_a_symlink_updates_its_target_and_stays_a_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    code, _ = _run_quietly([*_FIB, "--out", str(link)])
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text().startswith("k,")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640  # the replaced file's mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_new_artifact_gets_the_mode_open_would_give_under_the_umask(tmp_path, umask, mode):
    before = os.umask(umask)
    try:
        code, _ = _run_quietly([*_FIB, "--out", str(tmp_path / "fib.csv")])
        assert os.umask(umask) == umask  # the write left the umask as it found it
    finally:
        os.umask(before)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "fib.csv").stat().st_mode) == mode


def test_a_failed_replace_leaves_the_old_artifact_and_no_temp_file(tmp_path, monkeypatch):
    out = tmp_path / "fib.csv"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(os, "replace", fail)
    code, err = _run_quietly([*_FIB, "--out", str(out)])
    assert code == 2 and f"cannot write {out}: I/O error" in err
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fib.csv"]


def test_an_output_path_that_is_a_fifo_gets_the_artifact_and_stays_a_fifo(tmp_path):
    # the FIFO used to be renamed over by a regular file, and its reader got nothing
    assert _run_quietly([*_FIB, "--out", str(tmp_path / "fib.csv")])[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, err = _run_quietly([*_FIB, "--out", str(fifo)])
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0, err
    assert data == (tmp_path / "fib.csv").read_bytes()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_out_dev_stdout_writes_the_artifact_into_a_pipe(tmp_path):
    # /dev/stdout resolves to /proc/<pid>/fd/pipe:[N], which used to exit 2
    assert _run_quietly([*_FIB, "--out", str(tmp_path / "fib.csv")])[0] == 0
    env = {**os.environ, "PYTHONPATH": str(Path(dj.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from detjump.cli import main; sys.exit(main())",
         *_FIB, "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    # the pipe holds the artifact alone; the status line goes to stderr
    assert done.stdout == (tmp_path / "fib.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(done.stdout.decode())))
    assert rows[0] == ["k", "tv_exact", "tv_fourier_bound"] and len(rows) == 3
    assert done.stderr == b"wrote /dev/stdout\n"


def test_one_path_shared_by_analyses_of_another_type_does_not_block_a_subcommand(tmp_path):
    # only the selected analyses write, so only their paths must differ
    cfg = write_config(tmp_path, "two.json", {
        "chain": {"family": "lazy_cycle", "n": 9},
        "analysis": [{"type": "mixing", "kmax": 3, "output": {"path": str(tmp_path / "a")}},
                     {"type": "spectral", "output": {"path": str(tmp_path / "a")}}],
    })
    assert _run_quietly(["mix", "--config", cfg])[0] == 0
    assert (tmp_path / "a").read_text().startswith("k,worst_tv")


def test_out_of_range_file_entry_exits_2_with_a_plain_float(tmp_path, capsys):
    matrix = tmp_path / "neg.csv"
    matrix.write_text("-0.1,1.1\n0.5,0.5\n")
    cfg = write_config(tmp_path, "cfg.json", {"chain": {"family": "file", "path": str(matrix)}})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err.endswith("entry out of [0, 1] at (0, 0): -0.1\n")


def test_single_state_file_chain_exits_2(tmp_path, capsys):
    matrix = tmp_path / "one.csv"
    dj.save_matrix_csv(matrix, dj.TransitionMatrix(np.ones((1, 1))))
    for analysis in ({"type": "expansion", "mode": "sampled", "num_samples": 4, "seed": 1},
                     {"type": "expansion"}):
        cfg = write_config(tmp_path, "cfg.json", {
            "chain": {"family": "file", "path": str(matrix)}, "analysis": [analysis]})
        assert main(["expansion", "--config", cfg]) == 2
        assert "at least two states" in capsys.readouterr().err


@pytest.mark.parametrize("indices", [[1.5], ["a"], [None], [True], [[0]], [2**70], [-1]])
def test_expansion_include_needs_integer_indices_in_range(tmp_path, indices):
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": {"family": "lazy_cycle", "n": 8},
        "analysis": [{"type": "expansion", "include": [indices]}]})
    code, err = _run_quietly(["expansion", "--config", cfg])
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "c.json"], ["mix", "--config", "c.json"],
    ["hof", "--config", "c.json"], ["fibonacci", "--n", "5", "--kmax", "3"],
    ["compare", "--config-a", "a.json", "--config-b", "b.json"],
    ["spectral", "--config", "c.json"], ["expansion", "--config", "c.json"],
])
def test_threads_flag_only_on_subset_commands(argv, capsys):
    # only scan keeps the flag, which it ignores
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def _run_quietly(argv):
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(n=st.integers(-2, 60), kmax=st.integers(-1, 60), c=st.integers(-1, 3))
def test_fuzz_fibonacci_arguments_never_crash(n, kmax, c):
    code, err = _run_quietly(["fibonacci", "--n", str(n), "--kmax", str(kmax), "--c", str(c)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert (code == 0) == (n >= 2 and kmax >= 1 and c >= 0)


_TINY_ROWS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_CHAIN_ANALYSIS = {
    "validate": st.just({"type": "mixing", "kmax": 1}),
    "mix": st.fixed_dictionaries({"type": st.just("mixing"), "kmax": st.integers(0, 4),
                                  "epsilon": st.sampled_from([0.5, 1.0]),
                                  "spectral_bound": st.booleans()}),
    "compare": st.fixed_dictionaries({"type": st.just("mixing"), "kmax": st.integers(0, 4)}),
    "spectral": st.fixed_dictionaries({"type": st.just("spectral"),
                                       "compute_epsilon": st.booleans()}),
    "expansion": st.one_of(
        st.fixed_dictionaries({"type": st.just("expansion"), "include": st.just([[0]])}),
        st.fixed_dictionaries({"type": st.just("expansion"), "mode": st.just("sampled"),
                               "num_samples": st.integers(0, 3), "seed": st.integers(0, 9)})),
    "scan": st.fixed_dictionaries({"type": st.just("scan"), "epsilon": st.sampled_from([0, 0.5]),
                                   "trials": st.integers(0, 2), "seed": st.integers(0, 9)}),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_CHAIN_ANALYSIS)),
       size=st.sampled_from([1, 2]))
def test_fuzz_tiny_file_chains_never_crash(tmp_path_factory, data, command, size):
    root = tmp_path_factory.mktemp("fuzz")
    if size == 1:
        rows = [[1.0]]
    else:
        p, q = data.draw(_TINY_ROWS), data.draw(_TINY_ROWS)
        rows = [[p, 1.0 - p], [q, 1.0 - q]]
    matrix = root / "chain.csv"
    matrix.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    bijection = data.draw(st.sampled_from(["identity", "inversion"]))
    cfg = write_config(root, "cfg.json", {
        "chain": {"family": "file", "path": str(matrix)},
        "bijection": {"kind": bijection},
        "analysis": [data.draw(_CHAIN_ANALYSIS[command])]})
    if command == "compare":
        argv = ["compare", "--config-a", cfg, "--config-b", cfg]
    else:
        argv = [command, "--config", cfg]
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if size == 1 and command in ("spectral", "expansion", "scan"):
        assert code == 2
        if bijection == "identity" or command == "scan":
            assert "at least two states" in err


_HOF_KERNELS = {"lazy3": dj.build_lazy_cycle_walk(3),
                "half2": dj.TransitionMatrix(np.full((2, 2), 0.5)),
                "skew2": dj.TransitionMatrix(np.array([[0.25, 0.75], [0.5, 0.5]])),
                "flip2": dj.TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))}
_HOF_BAD_VALUES = {
    "base_n": st.sampled_from([-1, 0, 1, 4, True, 2.0, "3", None]),
    "order": st.sampled_from([-1, 0, 1, 17, 40, 10**9, True, 2.0, "3", None]),
    "update": st.one_of(
        st.sampled_from(["nope", 5, None, {}]),
        st.lists(st.one_of(st.integers(-1, 3), st.sampled_from([2**70, 1.5, "1", True])),
                 max_size=10)),
    "base_kernel_csv": st.sampled_from(["missing.csv", 7, ["a"]]),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzz_hof_specs_never_crash(tmp_path_factory, data):
    # a well-formed spec, then at most one field made bad or dropped
    root = tmp_path_factory.mktemp("hof")
    name = data.draw(st.sampled_from(sorted(_HOF_KERNELS)), label="kernel")
    kernel = _HOF_KERNELS[name]
    dj.save_matrix_csv(root / "base.csv", kernel)
    n, order = kernel.n, data.draw(st.integers(2, 5), label="order")
    update = data.draw(st.one_of(
        st.sampled_from(["additive", "cubing"]),
        st.permutations(range(n)).map(lambda perm: [perm[(x + y) % n] for x in range(n)
                                                    for y in range(n ** (order - 1))])),
        label="update")
    spec = {"base_n": n, "order": order, "update": update,
            "base_kernel_csv": str(root / "base.csv")}
    field = data.draw(st.sampled_from([None, "drop", *sorted(_HOF_BAD_VALUES)]), label="field")
    if field == "drop":
        del spec[data.draw(st.sampled_from(sorted(spec)), label="dropped")]
    elif field is not None:
        spec[field] = data.draw(_HOF_BAD_VALUES[field], label="bad")
    code, err = _run_quietly(["hof", "--config", write_config(root, "hof.json", spec)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


def _small_chain_rows(data, n):
    """A random sparse row-stochastic n x n matrix; often doubly stochastic, often not."""
    if data.draw(st.booleans(), label="union"):
        # identity plus permutations and their inverses: symmetric support,
        # positive diagonal, doubly stochastic; irreducible or not
        a = np.eye(n) * data.draw(st.integers(1, 3), label="lazy")
        for _ in range(data.draw(st.integers(0, 3), label="perms")):
            perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
            weight = data.draw(st.integers(1, 3), label="weight")
            a[np.arange(n), perm] += weight
            a[perm, np.arange(n)] += weight
    else:
        cells = st.sampled_from([0, 0, 0, 1, 2, 3])
        a = np.array([data.draw(st.lists(cells, min_size=n, max_size=n).filter(any),
                                label="row") for _ in range(n)], dtype=float)
    return a / a.sum(axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_fuzz_small_file_chains_mix_and_compare(tmp_path_factory, data, n):
    root = tmp_path_factory.mktemp("mixfuzz")
    matrix = root / "chain.csv"
    rows = _small_chain_rows(data, n)
    matrix.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    analysis = {"type": "mixing", "kmax": data.draw(st.integers(0, 8), label="kmax"),
                "spectral_bound": data.draw(st.booleans(), label="spectral_bound")}
    if data.draw(st.booleans(), label="with_epsilon"):
        analysis["epsilon"] = data.draw(st.sampled_from([0.25, 1.0]), label="epsilon")
    bijection = data.draw(st.sampled_from([{"kind": "identity"}, {"kind": "random", "seed": 3},
                                           {"kind": "inversion"}]), label="bijection")
    cfg = write_config(root, "cfg.json", {"chain": {"family": "file", "path": str(matrix)},
                                          "bijection": bijection, "analysis": [analysis]})
    mix_out, cmp_out = root / "mix.csv", root / "cmp.csv"
    code_mix, err_mix = _run_quietly(["mix", "--config", cfg, "--out", str(mix_out)])
    code_cmp, err_cmp = _run_quietly(["compare", "--config-a", cfg, "--config-b", cfg,
                                      "--out", str(cmp_out)])
    for code, err in ((code_mix, err_mix), (code_cmp, err_cmp)):
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
    if code_mix == 0:
        assert code_cmp == 0
        mix_col = [line.split(",")[1] for line in mix_out.read_text().splitlines()]
        cmp_col = [line.split(",")[2] for line in cmp_out.read_text().splitlines()]
        assert mix_col[1:] == cmp_col[1:]


_ODD_VALUES = [None, True, -1, 1.5, "a", [], {}, float("inf"), float("nan")]
_SUBSET_FIELDS = {
    "include": st.one_of(
        st.sampled_from(_ODD_VALUES),
        st.lists(st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([*_ODD_VALUES, 2**70])),
                          max_size=3), max_size=3)),
    "mode": st.sampled_from(["exhaustive", "sampled", "nope", *_ODD_VALUES]),
    "num_samples": st.one_of(st.integers(-2, 20), st.sampled_from(_ODD_VALUES)),
    "seed": st.one_of(st.integers(-2, 9), st.sampled_from([2**70, *_ODD_VALUES])),
    "epsilon": st.one_of(st.sampled_from([0, 0.5, 2, 10**400, *_ODD_VALUES])),
    "trials": st.one_of(st.integers(-1, 3), st.sampled_from(_ODD_VALUES)),
    "compute_epsilon": st.sampled_from([False, *_ODD_VALUES]),
}
_SUBSET_COMMANDS = {
    "expansion": ("include", "mode", "num_samples", "seed"),
    "spectral": ("compute_epsilon",),
    "scan": ("epsilon", "trials", "seed"),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_SUBSET_COMMANDS)),
       n=st.integers(3, 8))
def test_fuzz_subset_analysis_fields_never_crash(tmp_path_factory, data, command, n):
    # every listed field drawn from valid and malformed values, or left out
    entry = {"type": command}
    for field in _SUBSET_COMMANDS[command]:
        if data.draw(st.booleans(), label=f"set {field}"):
            entry[field] = data.draw(_SUBSET_FIELDS[field], label=field)
    root = tmp_path_factory.mktemp("subsetfuzz")
    cfg = write_config(root, "cfg.json", {"chain": {"family": "lazy_cycle", "n": n},
                                          "bijection": {"kind": "random", "seed": 1},
                                          "analysis": [entry]})
    code, err = _run_quietly([command, "--config", cfg])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


_CYCLE = {"family": "lazy_cycle", "n": 5}
_MIX = {"type": "mixing", "kmax": 2}


def _config(tmp_path, chain=_CYCLE, analysis=_MIX, **sections):
    return write_config(tmp_path, "cfg.json", {"chain": chain, "analysis": [analysis],
                                               **sections})


@pytest.mark.parametrize("entry", [{"type": "fibonacci", "n": 30, "kmax": 5},
                                   {"type": "hof", "spec_path": "hof.json"}])
@pytest.mark.parametrize("command", ["mix", "spectral", "validate"])
def test_fibonacci_and_hof_entries_in_a_config_exit_2_naming_their_subcommand(
        tmp_path, command, entry):
    # no subcommand runs them from a config, so the config is refused and nothing is written
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "chain": _CYCLE, "analysis": [_MIX, {**entry, "output": {"path": str(out)}}]})
    code, err = _run_quietly([command, "--config", cfg])
    assert code == 2
    assert f"analysis[1]: a {entry['type']} analysis" in err
    assert f"run `detjump {entry['type']}` with its flags" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command,sections,field", [
    ("mix", {"analysis": {"type": "mixing", "kmax": True}}, "kmax"),
    ("mix", {"chain": {"family": "hypercube", "d": True}}, "d"),
    ("mix", {"chain": {"family": "lazy_cycle", "n": True}}, "n"),
    ("mix", {"bijection": {"kind": "random", "seed": True}}, "seed"),
    ("mix", {"bijection": {"kind": "affine", "a": True}}, "a"),
    ("mix", {"analysis": {"type": "mixing", "kmax": 2, "epsilon": True}}, "epsilon"),
    ("expansion", {"analysis": {"type": "expansion", "mode": "sampled", "num_samples": True,
                                "seed": 1}}, "num_samples"),
    ("expansion", {"analysis": {"type": "expansion", "mode": "sampled", "num_samples": 4,
                                "seed": False}}, "seed"),
    ("scan", {"analysis": {"type": "scan", "epsilon": 0.5, "trials": True, "seed": 1}},
     "trials"),
])
def test_integer_and_number_fields_reject_booleans(tmp_path, command, sections, field):
    code, err = _run_quietly([command, "--config", _config(tmp_path, **sections)])
    assert code == 2
    assert f"{field} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("values", [[0.5, 1, 2, 3, 4], [[0], 1, 2, 3, 4], [0, 1, 2, 3, "4"],
                                    [True, 0, 2, 3, 4]])
def test_explicit_bijection_values_must_be_integers(tmp_path, values):
    cfg = _config(tmp_path, bijection={"kind": "explicit", "values": values})
    code, err = _run_quietly(["mix", "--config", cfg])
    assert code == 2
    assert "values must be a list of integers" in err and "Traceback" not in err


@pytest.mark.parametrize("sections,key", [
    ({"analysis": {"type": "mixing", "kmax": 2, "single_strat": True}}, "single_strat"),
    ({"chain": {"family": "lazy_cycle", "n": 5, "d": 3}}, "d"),
    ({"bijection": {"kind": "random", "seed": 1, "sed": 2}}, "sed"),
    ({"bijection": {"kind": "identity", "seed": 1}}, "seed"),
    ({"analysis": {"type": "mixing", "kmax": 2, "output": {"path": "x.csv", "fmt": "csv"}}},
     "fmt"),
    ({"analyses": []}, "analyses"),
    ({"output": {"path": "x.csv"}}, "output"),
])
def test_undeclared_keys_exit_2(tmp_path, sections, key):
    code, err = _run_quietly(["mix", "--config", _config(tmp_path, **sections)])
    assert code == 2
    assert f"undeclared key {key!r}" in err


def test_explicit_bijection_with_both_path_and_values_exits_2(tmp_path):
    perm = tmp_path / "perm.txt"
    perm.write_text("0 1 2 3 4\n")
    cfg = _config(tmp_path, bijection={"kind": "explicit", "path": str(perm),
                                       "values": [4, 3, 2, 1, 0]})
    code, err = _run_quietly(["mix", "--config", cfg])
    assert code == 2
    assert f"values is not allowed with path={str(perm)!r}" in err


@pytest.mark.parametrize("values", ["0 2 1\n", ""])
@pytest.mark.parametrize("command, analysis", [
    ("mix", _MIX), ("spectral", {"type": "spectral"}), ("expansion", {"type": "expansion"})])
def test_explicit_bijection_file_of_the_wrong_length_exits_2_with_one_message(
        tmp_path, command, analysis, values):
    # each subcommand used to fail late, with its own dimension-mismatch message
    perm = tmp_path / "perm.txt"
    perm.write_text(values)
    cfg = _config(tmp_path, analysis=analysis,
                  bijection={"kind": "explicit", "path": str(perm)})
    code, err = _run_quietly([command, "--config", cfg])
    assert code == 2
    assert err.endswith(f"explicit permutation has {len(values.split())} values, expected 5\n")


@pytest.mark.parametrize("mode", [{}, {"mode": "exhaustive"}])
@pytest.mark.parametrize("field", ["num_samples", "seed"])
def test_sampling_keys_in_exhaustive_mode_exit_2(tmp_path, mode, field):
    cfg = _config(tmp_path, analysis={"type": "expansion", **mode, field: 3})
    code, err = _run_quietly(["expansion", "--config", cfg])
    assert code == 2
    assert f"{field} is not allowed with mode='exhaustive'" in err


def test_expansion_no_longer_takes_epsilon(tmp_path):
    # the report answers every epsilon through epsilon_star, so expansion takes none
    cfg = _config(tmp_path, analysis={"type": "expansion", "epsilon": 0.5})
    code, err = _run_quietly(["expansion", "--config", cfg])
    assert code == 2
    assert "undeclared key 'epsilon'" in err


@pytest.mark.parametrize("command", ["mix", "validate", "compare", "fibonacci", "hof"])
def test_an_output_path_that_is_a_directory_exits_2_naming_it(tmp_path, command):
    target = tmp_path / "artifacts"
    target.mkdir()
    cfg = _config(tmp_path)
    argv = {"mix": ["mix", "--config", cfg], "validate": ["validate", "--config", cfg],
            "compare": ["compare", "--config-a", cfg, "--config-b", cfg],
            "fibonacci": ["fibonacci", "--n", "5", "--kmax", "3"],
            "hof": ["hof", "--config", _hof_spec(tmp_path)]}[command]
    code, err = _run_quietly([*argv, "--out", str(target)])
    assert code == 2
    assert f"cannot write {target}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("artifacts")] == ["artifacts"]


@pytest.mark.parametrize("chain,knob", [
    ({"family": "lazy_cycle", "n": 10**7}, "n"),
    ({"family": "hypercube", "d": 10**20}, "d"),
])
def test_oversized_chain_families_exit_3(tmp_path, chain, knob):
    cfg = write_config(tmp_path, "cfg.json", {"chain": chain,
                                              "analysis": [{"type": "mixing", "kmax": 2}]})
    code, err = _run_quietly(["mix", "--config", cfg])
    assert code == 3
    assert f"_CAP=" in err and f"; make {knob} smaller" in err and "Traceback" not in err


@pytest.mark.parametrize("command,knob", [("expansion", "num_samples"), ("scan", "trials")])
def test_sample_and_scan_work_just_over_their_caps_exit_3(tmp_path, command, knob):
    from detjump import expansion
    per = {"num_samples": expansion._set_ns(8, 1, expansion._DRAW_NS),
           "trials": expansion._exhaustive_ns(8, "scan") + expansion._TRIAL_NS}[knob]
    over = int(WORK_CAP // per) + 1
    analysis = {"expansion": {"type": "expansion", "mode": "sampled", "num_samples": over,
                              "seed": 1},
                "scan": {"type": "scan", "epsilon": 0.5, "trials": over, "seed": 1}}
    cfg = write_config(tmp_path, "cfg.json", {"chain": {"family": "lazy_cycle", "n": 8},
                                              "analysis": [analysis[command]]})
    code, err = _run_quietly([command, "--config", cfg])
    assert code == 3
    assert f"over WORK_CAP={WORK_CAP} ns; make {knob} smaller" in err


_WILD = st.sampled_from([None, True, False, -1, 0, 10**7, 10**20, 1.5, float("inf"),
                         float("nan"), "a", [], {}, [[0]], [0.5, 1, 2, 3, 4], [4, 3, 2, 1, 0]])


def _section_fields(root, tag_key, tags, **fields):
    """Drawn values for every key of a chain or bijection section, plus its tag."""
    paths = st.sampled_from([str(root / "chain.csv"), str(root / "perm.txt"), str(root),
                             str(root / "nope"), 5, None])
    return {tag_key: st.one_of(st.sampled_from(tags), _WILD), "path": paths,
            **{name: st.one_of(values, _WILD) for name, values in fields.items()}}


def _perturb(data, section, fields, label):
    """At most one change to a well-formed section: a key set, a key dropped, a key added."""
    change = data.draw(st.sampled_from(["none", "set", "drop", "undeclared"]), label=label)
    if change == "set":
        name = data.draw(st.sampled_from(sorted(fields)), label=f"{label} key")
        section[name] = data.draw(fields[name], label=f"{label}.{name}")
        return isinstance(section[name], bool)  # no key of either section takes a boolean
    if change == "drop":
        del section[data.draw(st.sampled_from(sorted(section)), label=f"{label} dropped")]
    if change == "undeclared":
        section["extra"] = 1
    return change == "undeclared"


_SECTION_ANALYSIS = {"validate": {"type": "mixing", "kmax": 2},
                     "mix": {"type": "mixing", "kmax": 2},
                     "compare": {"type": "mixing", "kmax": 2},
                     "spectral": {"type": "spectral"},
                     "expansion": {"type": "expansion"},
                     "scan": {"type": "scan", "epsilon": 0.5, "trials": 1, "seed": 1}}


@pytest.mark.parametrize("command", sorted(_SECTION_ANALYSIS))
def test_a_config_without_a_chain_exits_2(tmp_path, command):
    cfg = write_config(tmp_path, "cfg.json", {"analysis": [_SECTION_ANALYSIS[command]]})
    argv = (["compare", "--config-a", cfg, "--config-b", cfg] if command == "compare"
            else [command, "--config", cfg])
    code, err = _run_quietly(argv)
    assert code == 2
    assert "missing chain, an object" in err


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_SECTION_ANALYSIS)))
def test_fuzz_chain_and_bijection_sections_never_crash(tmp_path_factory, data, command):
    # well-formed chain and bijection sections, then at most one key of each changed
    root = tmp_path_factory.mktemp("sectionfuzz")
    dj.save_matrix_csv(root / "chain.csv", dj.build_lazy_cycle_walk(5))
    dj.save_permutation(root / "perm.txt", dj.random_permutation(5, 2))
    chain = data.draw(st.sampled_from([
        {"family": "lazy_cycle", "n": 5}, {"family": "hypercube", "d": 2},
        {"family": "file", "path": str(root / "chain.csv")}]), label="chain")
    bijection = data.draw(st.sampled_from([
        {"kind": "identity"}, {"kind": "doubling"}, {"kind": "affine", "a": 2},
        {"kind": "cubing"}, {"kind": "inversion"}, {"kind": "random", "seed": 3},
        {"kind": "explicit", "values": [4, 3, 2, 1, 0]},
        {"kind": "explicit", "path": str(root / "perm.txt")}]), label="bijection")
    chain_fields = _section_fields(root, "family", ["lazy_cycle", "hypercube", "file"],
                                   n=st.integers(-1, 9), d=st.integers(-1, 4))
    bijection_fields = _section_fields(
        root, "kind", ["identity", "doubling", "affine", "cubing", "inversion", "random",
                       "explicit"],
        a=st.integers(-3, 9), seed=st.integers(-1, 9),
        values=st.permutations(range(5)).map(list))
    exit_2 = _perturb(data, chain, chain_fields, "chain")
    exit_2 |= _perturb(data, bijection, bijection_fields, "bijection")
    cfg = write_config(root, "cfg.json", {"chain": chain, "bijection": bijection,
                                          "analysis": [_SECTION_ANALYSIS[command]]})
    argv = (["compare", "--config-a", cfg, "--config-b", cfg] if command == "compare"
            else [command, "--config", cfg])
    out_is_dir = data.draw(st.booleans(), label="out is a directory")
    code, err = _run_quietly([*argv, "--out", str(root if out_is_dir else root / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if exit_2:
        assert code == 2
    if out_is_dir:
        assert code != 0
