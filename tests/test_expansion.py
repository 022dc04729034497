import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import chains, expansion, spectral
from detjump.errors import CapacityError, StructureError
from oracles import (
    brute_atoms,
    brute_boundary_count,
    brute_epsilon_star,
    brute_expand,
    brute_expand_via_columns,
)

# Frozen from brute_epsilon_star (identity jump on the 12-cycle): the
# worst set is the arc {0..5}, whose double expansion is an arc of 10.
EPS_STAR_CYCLE12_IDENTITY = 2.0 / 3.0
# Frozen from brute_boundary_count on the 10-cycle with A = {0, 5}.
BOUNDARY_COUNT_CYCLE10 = 3

# Frozen golden for scan_random_bijections(lazy cycle 12, eps=0.1,
# trials=200, seed=7), generated once by the implementation after the
# 5-trial oracle audit below.
SCAN_GOLDEN_FRACTION = 1.0
SCAN_GOLDEN_FAILURES = ()
SCAN_GOLDEN_FIRST_EPS = (1.0, 5 / 6, 5 / 6, 5 / 6, 5 / 6)


def S(n, *indices):
    return dj.StateSet.from_indices(n, indices)


# --- StateSet ----------------------------------------------------------------

def test_state_set_basics():
    a = S(8, 1, 3, 5)
    assert a.size == 3
    assert a.indices() == (1, 3, 5)
    assert a.mask == 0b101010
    with pytest.raises(ValueError):
        dj.StateSet(4, 1 << 5)
    with pytest.raises(ValueError):
        dj.StateSet.from_indices(4, [4])


@pytest.mark.parametrize("args,message", [
    ((4, True), "mask must be an integer"), ((4, 1.5), "mask must be an integer"),
    ((4.0, 1), "n must be an integer"), ((-1, 0), "n must be >= 0"),
])
def test_state_set_refuses_arguments_that_are_not_its_integers(args, message):
    with pytest.raises(ValueError, match=f"state set {message}"):
        dj.StateSet(*args)


def test_state_set_takes_numpy_integers():
    s = dj.StateSet(np.int64(4), np.uint64(5))
    assert (s.n, s.mask, s.indices()) == (4, 5, (0, 2))


@pytest.mark.parametrize("indices", [[1.5], [True], [-1], [5], [[1, 2]]])
def test_state_set_from_indices_takes_only_states(indices):
    # 1.5 used to raise TypeError from 1 << 1.5, and True to read as state 1
    with pytest.raises(ValueError, match="state set"):
        dj.StateSet.from_indices(5, indices)


def test_state_set_from_indices_any_iterable_and_large_n():
    assert dj.StateSet.from_indices(5, iter([4, 0, 4])).indices() == (0, 4)
    assert dj.StateSet.from_indices(5, []).mask == 0
    assert dj.StateSet.from_indices(130, range(0, 130, 64)).mask == 1 | 1 << 64 | 1 << 128


def test_state_set_map_through():
    f = dj.doubling_permutation(5)
    assert S(5, 1, 2).map_through(f).indices() == (2, 4)


@pytest.mark.parametrize("n, m", [(8, 4), (4, 8)])
def test_state_set_map_through_refuses_a_bijection_on_another_n(n, m):
    # a bijection on 4 states used to drop state 5 of an 8-set, and one on 8
    # states to raise a bare IndexError on a 4-set
    with pytest.raises(ValueError, match=f"set on {n} states, bijection on {m}$"):
        S(n, 0, 3).map_through(dj.identity_permutation(m))


# --- expand / boundary -------------------------------------------------------

def test_expand_empty_set():
    P = dj.build_lazy_cycle_walk(7)
    assert dj.expand(P, S(7)).size == 0


def test_expand_single_vertex_cycle():
    P = dj.build_lazy_cycle_walk(7)
    assert dj.expand(P, S(7, 0)).indices() == (0, 1, 6)


def test_expand_full_set_is_full():
    P = dj.build_lazy_cycle_walk(7)
    assert dj.expand(P, S(7, *range(7))).size == 7


def test_expand_agrees_with_row_and_column_oracles(chain_zoo):
    # symmetric support makes the row and column definitions coincide
    rng = np.random.Generator(np.random.Philox(17))
    for label, P, _ in chain_zoo:
        for _ in range(10):
            size = int(rng.integers(0, P.n + 1))
            subset = set(map(int, rng.choice(P.n, size=size, replace=False)))
            got = set(dj.expand(P, dj.StateSet.from_indices(P.n, subset)).indices())
            assert got == brute_expand(P, subset), label
            assert got == brute_expand_via_columns(P, subset), label


def test_expand_holds_no_n_by_n_support(allocation_peak):
    n = 4096
    P = dj.build_lazy_cycle_walk(n)
    A = dj.StateSet.from_indices(n, range(0, n, 5))
    with allocation_peak() as peak:
        boundary = dj.expand(P, A).mask & ~A.mask
    assert boundary == dj.StateSet.from_indices(n, [i for i in range(n) if i % 5 in (1, 4)]).mask
    # a row of the set and its product; a float32 support alone would be 64 MiB
    assert peak.bytes < 1 << 20


def test_external_boundary_cycle_arc():
    P = dj.build_lazy_cycle_walk(7)
    A = S(7, 0, 1, 2)
    assert dj.StateSet(7, dj.expand(P, A).mask & ~A.mask).indices() == (3, 6)


def test_external_boundary_hypercube_corner():
    P = dj.build_hypercube_walk(2)
    A = S(4, 0)
    assert dj.StateSet(4, dj.expand(P, A).mask & ~A.mask).indices() == (1, 2)


def test_external_boundary_of_full_set_is_empty():
    P = dj.build_lazy_cycle_walk(7)
    A = S(7, *range(7))
    assert dj.StateSet(7, dj.expand(P, A).mask & ~A.mask).size == 0


@given(st.integers(4, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_expand_monotone_and_growing(n, data):
    P = dj.build_lazy_cycle_walk(n)
    small = data.draw(st.sets(st.integers(0, n - 1)))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    big = small | extra
    ea = dj.expand(P, dj.StateSet.from_indices(n, small))
    eb = dj.expand(P, dj.StateSet.from_indices(n, big))
    assert ea.mask & eb.mask == ea.mask  # E(A) subset of E(B)
    assert ea.size >= len(small)  # positive diagonal: E(A) contains A


# --- expansion condition ------------------------------------------------------

def test_check_expansion_identity_matches_oracle():
    P = dj.build_lazy_cycle_walk(12)
    f = dj.identity_permutation(12)
    report = dj.check_expansion(P, f)
    assert report.epsilon_star == pytest.approx(EPS_STAR_CYCLE12_IDENTITY, abs=1e-12)
    assert report.witness.indices() == (0, 1, 2, 3, 4, 5)
    assert report.mode == "exhaustive"
    eps_oracle, _ = brute_epsilon_star(P, f)
    assert report.epsilon_star == pytest.approx(eps_oracle, abs=1e-12)


def test_check_expansion_counts_sets():
    report = dj.check_expansion(dj.build_lazy_cycle_walk(8), dj.identity_permutation(8))
    # sum of C(8, k) for k = 1..4
    assert report.sets_checked == 8 + 28 + 56 + 70


def test_check_expansion_singletons_expand_by_one():
    for label, P, f in [
        ("c9", dj.build_lazy_cycle_walk(9), dj.random_permutation(9, 2)),
        ("cube3", dj.build_hypercube_walk(3), dj.random_permutation(8, 3)),
    ]:
        masks = [S(P.n, i) for i in range(P.n)]
        report = dj.check_expansion(P, f, include=masks, mode="sampled",
                                    num_samples=0, seed=0)
        assert report.epsilon_star >= 1.0, label  # ratio >= 2 for every singleton


def test_check_expansion_witness_achieves_the_ratio(chain_zoo):
    for label, P, f in chain_zoo:
        report = dj.check_expansion(P, f)
        efe = dj.expand(P, dj.expand(P, report.witness).map_through(f))
        ratio = efe.size / report.witness.size
        assert ratio == pytest.approx(1.0 + report.epsilon_star, abs=1e-12), label


def test_one_size_rule_governs_every_exhaustive_scan(monkeypatch):
    # one estimate for every scan of all small sets: below n = 9's, above n = 8's
    assert expansion._exhaustive_ns(8, "scan") < 20_000 < expansion._exhaustive_ns(9, "scan")
    P, f = dj.build_lazy_cycle_walk(9), dj.random_permutation(9, 1)
    R = dj.symmetrized_kernel(P, f)
    monkeypatch.setattr(chains, "WORK_CAP", 20_000)

    def never(*args):
        raise AssertionError("symmetrized_kernel called")

    monkeypatch.setattr(spectral, "symmetrized_kernel", never)
    scans = (lambda: dj.check_expansion(P, f),
             lambda: dj.scan_random_bijections(P, 0.1, 1, 1),
             lambda: dj.cheeger_constant(R),
             lambda: dj.spectral_report(P, f))
    for scan in scans:
        with pytest.raises(CapacityError, match="over WORK_CAP=20000 ns; make n smaller"):
            scan()
    assert dj.check_expansion(P, f, mode="sampled", num_samples=2, seed=1).sets_checked == 2


def test_check_expansion_capacity_error():
    # the boundary moved from n = 24 (EXHAUSTIVE_CAP) to n = 29, the last under WORK_CAP
    assert expansion._exhaustive_ns(29, "scan") <= chains.WORK_CAP
    P = dj.build_lazy_cycle_walk(30)
    with pytest.raises(CapacityError, match="exhaustive expansion scan: estimated work"):
        dj.check_expansion(P, dj.identity_permutation(30))


@pytest.mark.parametrize("kwargs", [{"num_samples": 5, "seed": 3}, {"num_samples": 5},
                                    {"seed": 3}, {"mode": "exhaustive", "seed": 0}])
def test_exhaustive_mode_refuses_sampling_arguments(kwargs):
    P, f = dj.build_lazy_cycle_walk(6), dj.random_permutation(6, 1)
    with pytest.raises(ValueError, match="exhaustive mode takes no"):
        dj.check_expansion(P, f, **kwargs)


def test_check_expansion_sampled_reproducible():
    P = dj.build_lazy_cycle_walk(30)
    f = dj.random_permutation(30, 3)
    a = dj.check_expansion(P, f, mode="sampled", num_samples=100, seed=9)
    b = dj.check_expansion(P, f, mode="sampled", num_samples=100, seed=9)
    assert a == b
    assert a.mode == "sampled"
    assert a.sets_checked == 100
    exhaustive_on_small = dj.check_expansion(dj.build_lazy_cycle_walk(12),
                                             dj.random_permutation(12, 3))
    # sampling can only miss minimizers, never undershoot them
    sampled_small = dj.check_expansion(dj.build_lazy_cycle_walk(12),
                                       dj.random_permutation(12, 3),
                                       mode="sampled", num_samples=50, seed=4)
    assert sampled_small.epsilon_star >= exhaustive_on_small.epsilon_star - 1e-12


def test_single_state_chain_is_rejected_up_front():
    P = dj.TransitionMatrix(np.ones((1, 1)))
    f = dj.identity_permutation(1)
    for kwargs in ({}, {"mode": "sampled", "num_samples": 5, "seed": 0},
                   {"mode": "sampled", "num_samples": 0, "seed": 0}):
        with pytest.raises(StructureError, match="at least two states"):
            dj.check_expansion(P, f, **kwargs)
    with pytest.raises(StructureError, match="at least two states"):
        dj.scan_random_bijections(P, 0.5, 0, seed=1)


def test_double_expansion_gains_a_state_on_half_sets(chain_zoo):
    # |E(f(E(A)))| >= |A| + 1 whenever |A| <= n/2, by irreducibility
    for label, P, f in chain_zoo:
        if P.n > 12:
            continue
        adjs = dj.check_expansion(P, f)
        assert (1.0 + adjs.epsilon_star) * adjs.witness.size >= adjs.witness.size + 1, label


# --- the doubling family -------------------------------------------------------

def test_doubling_family_m25_sizes():
    r = dj.doubling_counterexample(25)
    assert r.n == 99
    assert r.size_a == 48  # 2m - 2
    assert r.size_efe == 54  # 2m + 4
    assert r.epsilon_cap == pytest.approx(6 / 48)


def test_doubling_family_expansion_set_shape():
    # E(A) is {0..m} union {2m..3m} on the 4m-1 cycle
    m = 25
    r = dj.doubling_counterexample(m)
    P = dj.build_lazy_cycle_walk(r.n)
    ea = dj.expand(P, r.witness)
    expected = set(range(0, m + 1)) | set(range(2 * m, 3 * m + 1))
    assert set(ea.indices()) == expected


def test_doubling_family_cap_algebra():
    for m in (2, 7, 40):
        r = dj.doubling_counterexample(m)
        assert r.epsilon_cap * (2 * m - 2) == pytest.approx(6.0)


def test_doubling_family_constant_additive_gain():
    # the double expansion around the doubling jump gains exactly 6 states
    # for every m >= 3; at m = 2 the gained states wrap into each other
    # and the gain degenerates to 5, so the family starts being
    # informative at m = 3.
    for m in range(3, 101):
        r = dj.doubling_counterexample(m)
        assert r.size_efe - r.size_a == 6, m
    assert dj.doubling_counterexample(2).size_efe - dj.doubling_counterexample(2).size_a == 5


def test_doubling_family_caps_epsilon_star():
    m = 10
    r = dj.doubling_counterexample(m)
    P = dj.build_lazy_cycle_walk(r.n)
    f = dj.doubling_permutation(r.n)
    report = dj.check_expansion(P, f, mode="sampled", num_samples=50, seed=3,
                                include=[r.witness])
    assert report.epsilon_star <= r.epsilon_cap + 1e-12


# --- boundary counting ----------------------------------------------------------

def test_boundary_count_cycle8_within_degree_bound():
    P = dj.build_lazy_cycle_walk(8)
    count = dj.boundary_histogram(P).get(S(8, 0, 4).mask, 0)
    assert count <= 2 ** (2 * 3)  # |A| = 2, 1/delta = 3


def test_boundary_count_empty_boundary():
    # only the empty set and the full set have no external boundary
    P = dj.build_lazy_cycle_walk(9)
    assert dj.boundary_histogram(P).get(S(9).mask, 0) == 2


def test_boundary_count_matches_oracle():
    P = dj.build_lazy_cycle_walk(10)
    count = dj.boundary_histogram(P).get(S(10, 0, 5).mask, 0)
    assert count == BOUNDARY_COUNT_CYCLE10
    assert count == brute_boundary_count(P, {0, 5})


def test_boundary_count_capacity():
    # the boundary moved from n = 16 (BOUNDARY_CAP) to n = 23: 2^n dict entries of 128 bytes
    with pytest.raises(CapacityError, match="boundary enumeration: estimated memory"):
        dj.boundary_histogram(dj.build_lazy_cycle_walk(24))


def test_boundary_histogram_counting_bound_across_chains():
    # every nonempty boundary A obeys count <= 2^(|A|/delta); sets that
    # never occur as boundaries have count 0 and satisfy it trivially
    chains = [dj.build_lazy_cycle_walk(n) for n in (8, 10, 12)]
    chains += [dj.build_hypercube_walk(2), dj.build_hypercube_walk(3)]
    for P in chains:
        inv_delta = 1.0 / dj.min_positive_entry(P)
        hist = dj.boundary_histogram(P)
        assert sum(hist.values()) == 2**P.n
        for mask, count in hist.items():
            if mask == 0:
                assert count == 2, P.n
                continue
            assert count <= 2.0 ** (int(mask).bit_count() * inv_delta), (P.n, mask)


# --- random bijection scan ---------------------------------------------------------

def test_scan_epsilon_zero_every_bijection_is_good():
    result = dj.scan_random_bijections(dj.build_lazy_cycle_walk(9), 0.0, 25, 3)
    assert result.fraction_good == 1.0
    assert all(good for _, _, good in result.rows)


def test_scan_no_trials_is_explicitly_undefined():
    result = dj.scan_random_bijections(dj.build_lazy_cycle_walk(9), 0.1, 0, 3)
    assert result.fraction_good is None
    assert result.rows == ()


def test_scan_seeds_are_replayable():
    result = dj.scan_random_bijections(dj.build_lazy_cycle_walk(10), 0.5, 20, 100)
    for seed, eps_star, good in result.rows:
        replay = dj.check_expansion(dj.build_lazy_cycle_walk(10),
                                    dj.random_permutation(10, seed))
        assert replay.epsilon_star == eps_star
        assert good == (eps_star >= 0.5)


def test_scan_matches_frozen_golden_after_oracle_audit():
    P = dj.build_lazy_cycle_walk(12)
    # independent audit of the first five trials
    for t in range(5):
        f = dj.random_permutation(12, 7 + t)
        eps_oracle, _ = brute_epsilon_star(P, f)
        assert eps_oracle == pytest.approx(SCAN_GOLDEN_FIRST_EPS[t], abs=1e-12)
    result = dj.scan_random_bijections(P, 0.1, 200, 7)
    assert result.fraction_good == SCAN_GOLDEN_FRACTION
    assert tuple(s for s, _, good in result.rows if not good) == SCAN_GOLDEN_FAILURES
    for t in range(5):
        assert result.rows[t][1] == pytest.approx(SCAN_GOLDEN_FIRST_EPS[t], abs=1e-12)


@pytest.mark.parametrize("epsilon, trials",
                         [(math.nan, 3), (math.inf, 3), (-1.0, 0), (-1e-300, 3)])
def test_scan_rejects_a_non_finite_or_negative_epsilon_before_the_first_trial(monkeypatch,
                                                                              epsilon, trials):
    def no_draws(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(expansion, "random_permutation", no_draws)
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        dj.scan_random_bijections(dj.build_lazy_cycle_walk(9), epsilon, trials, 3)


def test_scan_capacity():
    with pytest.raises(CapacityError, match="random-bijection scan: .* make n smaller"):
        dj.scan_random_bijections(dj.build_lazy_cycle_walk(30), 0.1, 5, 1)


@pytest.mark.parametrize("n", [3, 8, 20])
def test_scan_work_over_the_cap_raises_before_the_first_trial(monkeypatch, n):
    def no_draws(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(expansion, "random_permutation", no_draws)
    trial = expansion._exhaustive_ns(n, "scan") + expansion._TRIAL_NS
    over = int(chains.WORK_CAP // trial) + 1
    for trials in (over, 10**9, 10**30):
        with pytest.raises(CapacityError, match="over WORK_CAP=.*; make trials smaller"):
            dj.scan_random_bijections(dj.build_lazy_cycle_walk(n), 0.5, trials, 1)


def test_sampled_draws_over_the_cap_raise_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a set was drawn")

    monkeypatch.setattr(expansion, "sampled_blocks", no_draws)
    P, f = dj.build_lazy_cycle_walk(8), dj.random_permutation(8, 1)
    # the boundary moved from 2^18 draws (SAMPLE_CAP) to the first over WORK_CAP
    over = int(chains.WORK_CAP // expansion._set_ns(8, 1, expansion._DRAW_NS)) + 1
    for num_samples in (over, 10**9, 10**30):
        with pytest.raises(CapacityError, match="over WORK_CAP=.*; make num_samples smaller"):
            dj.check_expansion(P, f, mode="sampled", num_samples=num_samples, seed=0)


@pytest.mark.parametrize("n", [5, 64, 257, 1000])
def test_atom_matrix_by_row_blocks_equals_the_whole_product(n):
    rng = np.random.default_rng(n)
    a = np.eye(n)
    for _ in range(3):
        a[np.arange(n), rng.permutation(n)] += 1.0
    P, f = dj.TransitionMatrix(a / a.sum(axis=1, keepdims=True)), dj.random_permutation(n, 2)
    S = (P.entries > 0.0).astype(np.float32)
    want = (S[:, np.asarray(f.inverse)] @ S > 0).astype(np.float32)
    got = expansion._atom_matrix(P, f)
    assert got.dtype == np.float32 and np.array_equal(got, want)


def _union_of_permutations(n, weights, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for w in weights:
        a[np.arange(n), rng.permutation(n)] += w
    return dj.TransitionMatrix(a / a.sum(axis=1, keepdims=True))


_ATOM_CHAINS = st.one_of(
    st.integers(3, 32).map(dj.build_lazy_cycle_walk),
    st.integers(1, 5).map(dj.build_hypercube_walk),
    st.builds(_union_of_permutations, st.integers(1, 32),
              st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=80, deadline=None)
@given(P=_ATOM_CHAINS, seed=st.integers(0, 2**32 - 1))
def test_atoms_written_from_the_rows_match_the_oracle(P, seed):
    f = dj.random_permutation(P.n, seed)
    got = expansion._atom_matrix(P, f)
    assert got.dtype == np.float32 and got.shape == (P.n, P.n)
    assert set(np.unique(got).tolist()) <= {0.0, 1.0}
    assert [set(np.flatnonzero(row).tolist()) for row in got] == brute_atoms(P, f)


def test_sampled_expansion_builds_its_atoms_in_bounded_memory(allocation_peak):
    n = 1024
    P, f = dj.build_lazy_cycle_walk(n), dj.random_permutation(n, 7)
    with allocation_peak() as peak:
        dj.check_expansion(P, f, mode="sampled", num_samples=2000, seed=3,
                           include=[dj.StateSet.from_indices(n, range(0, 300, 3))])
    # the atoms, written from P's rows, and one block of sets with its product
    # (256 x 1024 each); the float32 support and its product block are gone
    assert peak.bytes <= 1.6 * n * n * 4
