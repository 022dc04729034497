"""The two budgets and the cost model: every entry point refuses an estimate over WORK_CAP
or MEMORY_CAP before it allocates, and the mixing route is the cheapest estimate."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

import detjump as dj
from detjump import spectral
from detjump.chains import MEMORY_CAP, WORK_CAP, _within_budget
from detjump.cli import main
from detjump.errors import CapacityError
from oracles import mixing_profile_dense


def _config(tmp_path, chain, analysis, bijection=None):
    path = tmp_path / "cfg.json"
    cfg = {"chain": chain, "analysis": [analysis]}
    if bijection is not None:
        cfg["bijection"] = bijection
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _cli(argv):
    """A case run through the CLI: exit 3 and one capacity error line, whose text is returned."""
    def run(tmp_path):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv(tmp_path))
        lines = err.getvalue().splitlines()
        assert code == 3 and len(lines) == 1 and lines[0].startswith("capacity error: ")
        return lines[0]
    return run


def _lib(call):
    """A case run through the library: one CapacityError, whose text is returned."""
    def run(tmp_path):
        with pytest.raises(CapacityError) as err:
            call()
        return str(err.value)
    return run


def _mix(kmax, command):
    def argv(tmp_path):
        cfg = _config(tmp_path, {"family": "lazy_cycle", "n": 5}, {"type": "mixing", "kmax": kmax})
        return ["mix", "--config", cfg] if command == "mix" else \
            ["compare", "--config-a", cfg, "--config-b", cfg]
    return argv


def _chain(chain):
    return lambda tmp_path: ["mix", "--config",
                             _config(tmp_path, chain, {"type": "mixing", "kmax": 2})]


def _on_cycle(command, n, analysis):
    return lambda tmp_path: [command, "--config",
                             _config(tmp_path, {"family": "lazy_cycle", "n": n}, analysis)]


def _hof(order):
    def argv(tmp_path):
        kernel = tmp_path / "two.csv"
        dj.save_matrix_csv(kernel, dj.TransitionMatrix(np.full((2, 2), 0.5)))
        spec = tmp_path / "hof.json"
        spec.write_text(json.dumps({"base_n": 2, "order": order, "update": "additive",
                                    "base_kernel_csv": str(kernel)}), encoding="utf-8")
        return ["hof", "--config", str(spec)]
    return argv


_OVER_BUDGET = {
    "mix kmax 10^9": (_cli(_mix(10**9, "mix")), "kmax"),
    "mix kmax 10^20": (_cli(_mix(10**20, "mix")), "kmax"),
    "compare kmax 10^9": (_cli(_mix(10**9, "compare")), "kmax"),
    "compare kmax 10^20": (_cli(_mix(10**20, "compare")), "kmax"),
    "hypercube d 10^20": (_cli(_chain({"family": "hypercube", "d": 10**20})), "d"),
    "lazy_cycle n 10^12": (_cli(_chain({"family": "lazy_cycle", "n": 10**12})), "n"),
    "sampled num_samples 10^9": (_cli(_on_cycle("expansion", 8, {
        "type": "expansion", "mode": "sampled", "num_samples": 10**9, "seed": 1})), "num_samples"),
    "scan trials 10^9": (_cli(_on_cycle("scan", 8, {
        "type": "scan", "epsilon": 0.5, "trials": 10**9, "seed": 1})), "trials"),
    "exhaustive n 40": (_cli(_on_cycle("expansion", 40, {"type": "expansion"})), "n"),
    "boundary n 40": (_lib(lambda: dj.boundary_histogram(dj.build_lazy_cycle_walk(40))), "n"),
    "fibonacci past memory": (_lib(lambda: dj.fibonacci_walk_marginals(2, MEMORY_CAP // 16)),
                              "kmax or n"),
    "hof past memory": (_cli(_hof(25)), "order"),
}
_MESSAGE = r"estimated (work \S+ ns is over WORK_CAP=\d+ ns|memory \S+ bytes is over " \
           r"MEMORY_CAP=\d+ bytes); make {} smaller$"


@pytest.mark.parametrize("case", sorted(_OVER_BUDGET))
def test_every_entry_point_refuses_an_estimate_over_budget_before_allocating(
        tmp_path, allocation_peak, case):
    run, knob = _OVER_BUDGET[case]
    with allocation_peak() as peak:
        message = run(tmp_path)
    assert re.search(_MESSAGE.format(knob), message), message
    assert peak.bytes < 1 << 20


def test_the_budget_message_names_the_estimate_the_budget_and_the_knob():
    _within_budget("a scan", "n", WORK_CAP, MEMORY_CAP)  # at the budget is within it
    with pytest.raises(CapacityError, match=re.escape(
            f"a scan: estimated work 1e+12 ns is over WORK_CAP={WORK_CAP} ns; make n smaller")):
        _within_budget("a scan", "n", 1e12)
    with pytest.raises(CapacityError, match=re.escape(
            f"estimated memory 2.15e+09 bytes is over MEMORY_CAP={MEMORY_CAP} bytes")):
        _within_budget("a scan", "n", 0, 2 * MEMORY_CAP)


def _route(monkeypatch, Q, k_max):
    """(starts, step) that ``mixing_profile`` takes on Q, with the profile itself not run."""
    seen = []

    def stub(n, k_max_, starts, step):
        seen.append((starts.size, step[0]))
        return np.zeros(k_max_ + 1)

    monkeypatch.setattr(spectral, "_worst_tv", stub)
    dj.mixing_profile(Q, k_max)
    return seen[0]


def _jumped(P, seed=2):
    return dj.compose(dj.random_permutation(P.n, seed), P)


@pytest.mark.parametrize("label, make, route", [
    ("jumped lazy 1024-cycle", lambda: _jumped(dj.build_lazy_cycle_walk(1024)), (1024, "shift")),
    ("jumped 10-cube", lambda: _jumped(dj.build_hypercube_walk(10)), (1024, "shift")),
    ("plain lazy 1024-cycle", lambda: dj.build_lazy_cycle_walk(1024), (1, "shift")),
])
def test_the_benchmark_chains_keep_their_routes(monkeypatch, label, make, route):
    # the `dense` workload's mix and compare jobs (kmax 60): a cost constant that moves
    # one of these routes would move the benchmark's timings and last bits
    assert _route(monkeypatch, make(), 60) == route, label


def _lazy_union(n, w, seed=1):
    rng = np.random.default_rng(seed)
    a = np.eye(n)
    for _ in range(w - 1):
        a[np.arange(n), rng.permutation(n)] += 1.0
    return dj.TransitionMatrix(a / a.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("w, step", [(5, "gather"), (9, "gather"), (17, "gather"), (33, "gemm")])
def test_lazy_unions_at_n_1024_take_the_cheaper_route_and_match_the_oracle(w, step):
    # measured on the 2-vCPU VM at kmax 30: GEMM loses to the gather step up to w of
    # about 24 and wins at w = 33 (tools/route_costs.py)
    Q = _lazy_union(1024, w)
    seen = []
    real = spectral._worst_tv

    def spy(n, k_max, starts, step_):
        seen.append((starts.size, step_[0]))
        return real(n, k_max, starts, step_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_worst_tv", spy)
        got = [tv for _, tv in dj.mixing_profile(Q, 30)]
    assert seen == [(1024, step)]
    assert np.abs(np.array(got) - mixing_profile_dense(Q, 30)).max() <= 1e-15


def test_the_jumped_16384_cycle_is_within_budget_and_its_kernel_is_not(monkeypatch, tmp_path,
                                                                        allocation_peak):
    n = 16384
    Q = _jumped(dj.build_lazy_cycle_walk(n))
    assert _route(monkeypatch, Q, 10) == (n, "shift")
    work, memory = spectral._profile_cost("shift", n, n, 3, 10)
    assert work <= WORK_CAP and memory < 16 << 20

    def never(*args):
        raise AssertionError("the profile ran")

    monkeypatch.setattr(spectral, "_worst_tv", never)
    cfg = _config(tmp_path, {"family": "lazy_cycle", "n": n},
                  {"type": "mixing", "kmax": 10, "spectral_bound": True},
                  {"kind": "random", "seed": 1})
    with allocation_peak() as peak:
        message = _cli(lambda _: ["mix", "--config", cfg])(tmp_path)
    assert "symmetrized kernel and its eigensolve" in message and "make n smaller" in message
    assert peak.bytes < 64 << 20  # an n x n array is 2 GiB
