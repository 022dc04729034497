"""End-to-end acceptance checks, one test per criterion, fixed tolerances.

Shared heavy work (the 30 jump-chain instances of criteria 1 and 2) is
computed once in a module fixture; the elapsed time is carried so the
runtime budget can be enforced where one is stated.
"""

import json
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

import detjump as dj
from detjump.cli import main

SIZES = (8, 12, 16)
SEEDS = tuple(range(10))
KMAX = 200


@dataclass(frozen=True)
class Instance:
    n: int
    seed: int
    delta: float
    eps_star: float
    lambda2: float
    cheeger: float
    worst_tv: tuple[float, ...]  # index k = 0 .. KMAX


@pytest.fixture(scope="module")
def instances():
    t0 = time.monotonic()
    out = []
    for n in SIZES:
        P = dj.build_lazy_cycle_walk(n)
        delta = dj.min_positive_entry(P)
        for seed in SEEDS:
            f = dj.random_permutation(n, seed)
            eps_star = dj.check_expansion(P, f).epsilon_star
            R = dj.symmetrized_kernel(P, f)
            lam2 = dj.second_eigenvalue(R)
            phi, _ = dj.cheeger_constant(R)
            profile = dj.mixing_profile(dj.compose(f, P), KMAX)
            out.append(Instance(
                n=n, seed=seed, delta=delta, eps_star=eps_star,
                lambda2=lam2, cheeger=phi,
                worst_tv=tuple(tv for _, tv in profile),
            ))
    return out, time.monotonic() - t0


def test_criterion_01_expansion_bound_dominates_exact_tv(instances):
    # lazy cycle n in {8, 12, 16} x 10 seeded bijections, exhaustive
    # eps_star, k in [2, 200], tolerance 1e-9, under 2 minutes
    cases, shared_elapsed = instances
    t0 = time.monotonic()
    assert len(cases) == 30
    for inst in cases:
        assert inst.eps_star > 0.0, (inst.n, inst.seed)
        for k in range(2, KMAX + 1):
            bound = dj.expansion_tv_bound(inst.n, inst.eps_star, inst.delta, k)
            assert inst.worst_tv[k] <= bound + 1e-9, (inst.n, inst.seed, k)
    assert shared_elapsed + time.monotonic() - t0 < 120.0


def test_criterion_02_spectral_chain_of_inequalities(instances):
    # lambda2 >= -1e-9, lambda2 <= 1 - phi^2/2 + 1e-9,
    # phi >= eps_star * delta^4 - 1e-9, and the eigenvalue-driven
    # distance bound for every k in [2, 200]
    cases, _ = instances
    for inst in cases:
        assert inst.lambda2 >= -1e-9, (inst.n, inst.seed)
        assert inst.lambda2 <= 1.0 - inst.cheeger**2 / 2.0 + 1e-9, (inst.n, inst.seed)
        assert inst.cheeger >= inst.eps_star * inst.delta**4 - 1e-9, (inst.n, inst.seed)
        for k in range(2, KMAX + 1):
            bound = dj.spectral_tv_bound(inst.lambda2, inst.n, k)
            assert inst.worst_tv[k] <= bound + 1e-9, (inst.n, inst.seed, k)


def test_criterion_03_doubling_family_sizes_and_cap():
    # exact witness sizes 2m-2 and 2m+4, and the resulting cap on
    # epsilon_star once the witness family is part of the checked sets
    for m in (10, 25, 50):
        record = dj.doubling_counterexample(m)
        assert record.size_a == 2 * m - 2, m
        assert record.size_efe == 2 * m + 4, m
        P = dj.build_lazy_cycle_walk(record.n)
        f = dj.doubling_permutation(record.n)
        report = dj.check_expansion(P, f, mode="sampled", num_samples=100, seed=11,
                                    include=[record.witness])
        assert report.epsilon_star <= 6.0 / (2 * m - 2) + 1e-12, m


def test_criterion_04_random_jumps_beat_the_plain_walk():
    # plain 101-cycle still above TV 0.5 at k=100; five seeded jump
    # chains below 0.01 at k=60; frozen thresholds, under 30 seconds
    t0 = time.monotonic()
    P = dj.build_lazy_cycle_walk(101)
    plain = dj.mixing_profile(P, 100)
    assert plain[100][1] > 0.5
    for seed in (1, 2, 3, 4, 5):
        Q = dj.compose(dj.random_permutation(101, seed), P)
        jumped = dj.mixing_profile(Q, 60)
        assert jumped[60][1] < 0.01, seed
    assert time.monotonic() - t0 < 30.0


def test_criterion_05_boundary_counting_bound():
    # every nonempty A with |A| <= 4 on the 8-, 10- and 12-cycles:
    # at most 2^(3|A|) sets share that external boundary (delta = 1/3).
    # A = {} is excluded: exactly the empty set and the full state space
    # have empty boundary, and that pair is not covered by the counting
    # argument behind the bound.
    for n in (8, 10, 12):
        P = dj.build_lazy_cycle_walk(n)
        hist = dj.boundary_histogram(P)
        for size in range(1, 5):
            for combo in combinations(range(n), size):
                a = dj.StateSet.from_indices(n, combo)
                count = hist.get(a.mask, 0)
                assert count <= 2 ** (3 * size), (n, combo, count)


def test_criterion_06_residue_window_everywhere():
    # the middle-third window property for every modulus in [2, 400]
    # and every frequency, over a full period; under 1 minute
    t0 = time.monotonic()
    for n in range(2, 401):
        for a in range(1, n):
            assert dj.check_residue_window(n, a).holds, (n, a)
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_recurrence_walk_guarantee():
    # exact pair-chain TV at the guaranteed step count stays below
    # 1.6 e^{-c/2}, and below the Fourier bound for every k <= 80;
    # tolerance 1e-9, under 1 minute
    t0 = time.monotonic()
    for n in (22, 30, 40):
        guarantees = [dj.mixing_guarantee(n, c) for c in (0, 1, 2)]
        horizon = max(80, max(g.k for g in guarantees))
        marginals = dj.fibonacci_walk_marginals(n, horizon)
        uniform = dj.Distribution.uniform(n)
        for c, g in zip((0, 1, 2), guarantees):
            assert g.k == math.floor(5 * (math.log(n) ** 2 + c * math.log(n))), (n, c)
            tv = dj.tv_distance(marginals[g.k - 1], uniform)
            assert tv <= g.tv_bound + 1e-9, (n, c)
        for k in range(1, 81):
            tv = dj.tv_distance(marginals[k - 1], uniform)
            assert tv <= dj.fourier_tv_bound(n, k) + 1e-9, (n, k)
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_register_chains_are_uniformly_ergodic():
    # exact strong connectivity, period and column sums of the 9- and
    # 25-state chains, decided on their successor tables
    fib = dj.higher_order_spec(dj.build_lazy_cycle_walk(3), 2, "additive")
    result = dj.verify_uniform_ergodicity(fib)
    assert result.ergodic and result.uniform_stationary
    cubing = dj.higher_order_spec(dj.build_lazy_cycle_walk(5), 2, "cubing")
    result = dj.verify_uniform_ergodicity(cubing)
    assert result.ergodic and result.uniform_stationary


def test_criterion_09_pair_walk_equals_register_marginal():
    # two independent computations of the same law, entrywise 1e-12
    for n in (5, 7):
        spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(n), 2, "additive")
        T = dj.build_higher_order_chain(spec)
        joint = dj.Distribution.point_mass(1, n * n)  # pair (0, 1)
        for k in range(1, 51):
            direct = dj.fibonacci_walk_marginals(n, k)[k - 1]
            marginal = joint.probs.reshape(n, n).sum(axis=0)
            assert np.max(np.abs(marginal - direct.probs)) <= 1e-12, (n, k)
            joint = dj.evolve(T, joint, 1)


def _artifact_battery(tmp_path, tag):
    """Run every CLI artifact type once into tmp_path/tag; return bytes."""
    root = tmp_path / tag
    root.mkdir()

    def cfg(name, obj):
        path = root / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    kernel_csv = root / "base3.csv"
    dj.save_matrix_csv(kernel_csv, dj.build_lazy_cycle_walk(3))

    mix_cfg = cfg("mix.json", {
        "chain": {"family": "lazy_cycle", "n": 13},
        "bijection": {"kind": "doubling"},
        "analysis": [{"type": "mixing", "kmax": 40, "epsilon": 0.25,
                      "spectral_bound": True}],
    })
    plain_cfg = cfg("plain.json", {
        "chain": {"family": "lazy_cycle", "n": 13},
        "analysis": [{"type": "mixing", "kmax": 40}],
    })
    exp_cfg = cfg("exp.json", {
        "chain": {"family": "lazy_cycle", "n": 12},
        "bijection": {"kind": "random", "seed": 1},
        "analysis": [{"type": "expansion"}, {"type": "spectral", "compute_epsilon": True},
                     {"type": "scan", "epsilon": 0.2, "trials": 20, "seed": 3}],
    })
    hof_cfg = cfg("hof.json", {
        "base_n": 3, "order": 2, "update": "additive",
        "base_kernel_csv": str(kernel_csv),
    })

    jobs = [
        (["mix", "--config", mix_cfg], "mix.csv"),
        (["expansion", "--config", exp_cfg], "expansion.json"),
        (["spectral", "--config", exp_cfg], "spectral.json"),
        (["scan", "--config", exp_cfg], "scan.csv"),
        (["fibonacci", "--n", "22", "--kmax", "30", "--c", "1"], "fib.csv"),
        (["hof", "--config", hof_cfg], "hof.json.out"),
        (["compare", "--config-a", plain_cfg, "--config-b", mix_cfg], "cmp.csv"),
    ]
    blobs = {}
    for argv, name in jobs:
        target = root / name
        assert main(argv + ["--out", str(target)]) == 0, argv
        blobs[name] = target.read_bytes()
    return blobs


def test_criterion_10_artifacts_are_byte_identical_across_runs(tmp_path):
    first = _artifact_battery(tmp_path, "run1")
    second = _artifact_battery(tmp_path, "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
