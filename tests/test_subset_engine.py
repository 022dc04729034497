"""Differential tests of every subset kernel against the brute-force oracles.

Chains are random doubly stochastic support patterns: the identity plus
unions of up to three random permutations and their inverses, with small
integer weights, so that q P is integral for q the common row weight.
Every kernel runs with blocks of 1 set, of 7 sets and of the default
size, and the three results must be identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import expansion, spectral
from oracles import (
    all_small_sets,
    brute_boundary_histogram,
    brute_cheeger_exact,
    brute_expand,
    brute_expansion_over,
    sampled_sets,
)


@st.composite
def weighted_chains(draw, max_n=12):
    """(P, f, q): P = W / q for an integer weight matrix W with every row summing to q."""
    n = draw(st.integers(2, max_n), label="n")
    W = np.eye(n, dtype=np.int64) * draw(st.integers(1, 3), label="lazy")
    for _ in range(draw(st.integers(0, 3), label="perms")):
        perm = np.array(draw(st.permutations(range(n)), label="perm"))
        weight = draw(st.integers(1, 3), label="weight")
        W[np.arange(n), perm] += weight
        W[perm, np.arange(n)] += weight
    q = int(W[0].sum())
    f = dj.Permutation(tuple(draw(st.permutations(range(n)), label="f")))
    return dj.TransitionMatrix(W / q), f, q


def same_under_blocks(run, n):
    """run() with blocks of 1 set, of 7 sets and of the default size; all three must agree."""
    results = []
    for sets in (1, 7, None):
        with pytest.MonkeyPatch.context() as mp:
            if sets is not None:
                mp.setattr(expansion, "SUBSET_BLOCK", sets * n)
            results.append(run())
    assert results[0] == results[1] == results[2]
    return results[2]


@settings(max_examples=40, deadline=None)
@given(chain=weighted_chains())
def test_exhaustive_expansion_matches_oracle(chain):
    P, f, _ = chain
    report = same_under_blocks(lambda: dj.check_expansion(P, f), P.n)
    eps, witness, checked = brute_expansion_over(P, f, all_small_sets(P.n))
    assert (report.epsilon_star, report.witness.mask, report.sets_checked) == (eps, witness, checked)


@settings(max_examples=40, deadline=None)
@given(chain=weighted_chains(), num_samples=st.integers(0, 40), seed=st.integers(0, 99),
       data=st.data())
def test_sampled_and_include_expansion_match_oracle(chain, num_samples, seed, data):
    P, f, _ = chain
    n = P.n
    include = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=4), label="include")
    family = sampled_sets(n, num_samples, seed) + include
    if not any(1 <= len(s) <= n // 2 for s in family):
        with pytest.raises(ValueError, match="no subsets checked"):
            dj.check_expansion(P, f, mode="sampled", num_samples=num_samples, seed=seed,
                               include=[dj.StateSet.from_indices(n, s) for s in include])
        return
    report = same_under_blocks(lambda: dj.check_expansion(
        P, f, mode="sampled", num_samples=num_samples, seed=seed,
        include=[dj.StateSet.from_indices(n, s) for s in include]), n)
    eps, witness, checked = brute_expansion_over(P, f, family)
    assert (report.epsilon_star, report.witness.mask, report.sets_checked) == (eps, witness, checked)
    assert report.mode == "sampled"


@settings(max_examples=40, deadline=None)
@given(chain=weighted_chains())
def test_cheeger_matches_exact_oracle(chain):
    P, f, q = chain
    R = dj.symmetrized_kernel(P, f)
    phi, witness = same_under_blocks(lambda: dj.cheeger_constant(R), P.n)
    phi_exact, mask = brute_cheeger_exact(R, q**4)
    assert (phi, witness.mask) == (float(phi_exact), mask)


@settings(max_examples=25, deadline=None)
@given(chain=weighted_chains(max_n=10))
def test_boundary_histogram_matches_oracle(chain):
    P, _, _ = chain
    assert same_under_blocks(lambda: dj.boundary_histogram(P), P.n) == brute_boundary_histogram(P)


@settings(max_examples=40, deadline=None)
@given(chain=weighted_chains(), data=st.data())
def test_expand_matches_oracle(chain, data):
    P, _, _ = chain
    subset = data.draw(st.sets(st.integers(0, P.n - 1)), label="subset")
    got = same_under_blocks(lambda: dj.expand(P, dj.StateSet.from_indices(P.n, subset)), P.n)
    assert set(got.indices()) == brute_expand(P, subset)


@pytest.mark.parametrize("n", [30, 80])
def test_sampled_scans_do_not_depend_on_the_block_size(n):
    # n = 80 takes the Python-int mask path; both draw in blocks from one stream
    P, f = dj.build_lazy_cycle_walk(n), dj.random_permutation(n, 4)
    include = [dj.StateSet.from_indices(n, range(0, n // 2, 3))]
    report = same_under_blocks(lambda: dj.check_expansion(
        P, f, mode="sampled", num_samples=60, seed=8, include=include), n)
    eps, witness, checked = brute_expansion_over(
        P, f, sampled_sets(n, 60, 8) + [set(include[0].indices())])
    assert (report.epsilon_star, report.witness.mask, report.sets_checked) == (eps, witness, checked)


def test_row_converters_round_trip():
    rng = np.random.Generator(np.random.Philox(3))
    for n in (1, 7, 8, 24, 64, 65, 130):
        masks = [int(m) for m in rng.integers(0, 2**min(n, 63), size=20)] + [(1 << n) - 1, 0]
        rows = expansion.set_rows(masks, n)
        assert rows.shape == (22, n)
        assert [int(m) for m in expansion.row_masks(rows)] == masks
        if n <= 64:
            arr = np.array(masks, dtype=np.uint64)
            assert np.array_equal(expansion.set_rows(arr, n), rows)


def test_integer_kernel_scale():
    for n in range(5, 17):
        R = dj.symmetrized_kernel(dj.build_lazy_cycle_walk(n), dj.random_permutation(n, n))
        assert spectral.integer_kernel(R)[1] == 3**4
    for seed in range(3):
        R = dj.symmetrized_kernel(dj.build_hypercube_walk(4), dj.random_permutation(16, seed))
        assert spectral.integer_kernel(R)[1] == 5**4
    # 16 R[0][0] = 8.0005 is within 1e-3 of an integer, but q = 11, not 2
    P = dj.TransitionMatrix(np.array([[5.0, 6.0], [6.0, 5.0]]) / 11)
    assert spectral.integer_kernel(dj.symmetrized_kernel(P, dj.identity_permutation(2)))[1] == 11**4


def test_integer_kernel_absent_falls_back_to_floats():
    a = np.array([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]) + 1e-7 * np.array(
        [[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    R = dj.TransitionMatrix(np.sqrt(2) / 10 + (1 - 3 * np.sqrt(2) / 10) * a)
    assert spectral.integer_kernel(R) is None
    phi, witness = dj.cheeger_constant(R)
    inside = list(witness.indices())
    outside = [j for j in range(3) if j not in inside]
    assert phi == pytest.approx(R.entries[np.ix_(inside, outside)].sum() / len(inside), abs=1e-15)
