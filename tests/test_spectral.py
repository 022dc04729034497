import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import chains, spectral
from detjump.errors import CapacityError, InvariantError, StructureError
from oracles import (brute_cheeger, brute_cheeger_exact, jacobi_eigenvalues, mixing_profile_dense,
                     mixing_profile_exact)

# Frozen from the Jacobi-rotation oracle (tests/oracles.py); the two
# eigensolvers agreed to 1.1e-15 when this was generated.
LAMBDA2_CYCLE13_DOUBLING = 0.4325293841085103
# Frozen from brute_cheeger on the identity-jump kernel of the 8-cycle.
CHEEGER_CYCLE8_IDENTITY = 26.0 / 81.0


def kernel(n_or_P, f=None):
    P = dj.build_lazy_cycle_walk(n_or_P) if isinstance(n_or_P, int) else n_or_P
    if f is None:
        f = dj.identity_permutation(P.n)
    return dj.symmetrized_kernel(P, f)


# --- the symmetrized kernel -------------------------------------------------

def test_kernel_with_identity_jump_is_fourth_power():
    # P symmetric and f = id: R = (P @ P) @ (P @ P).T = P^4
    P = dj.build_lazy_cycle_walk(9)
    R = kernel(P)
    assert np.allclose(R.entries, np.linalg.matrix_power(P.entries, 4), atol=1e-12)


def test_kernel_rows_sum_to_one():
    R = kernel(5, dj.doubling_permutation(5))
    assert np.allclose(R.entries.sum(axis=1), 1.0, atol=1e-12)


def test_kernel_diagonal_floor_delta_fourth():
    # every diagonal entry picks up at least four delta factors
    R = kernel(5, dj.doubling_permutation(5))
    assert np.all(R.entries.diagonal() >= (1 / 3) ** 4 - 1e-12)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        dj.symmetrized_kernel(dj.build_lazy_cycle_walk(5), dj.identity_permutation(4))


def test_kernel_symmetric_psd_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        R = dj.symmetrized_kernel(P, f)
        assert np.array_equal(R.entries, R.entries.T), label
        eigs = np.linalg.eigvalsh(R.entries)
        assert eigs.min() >= -1e-9, label


@pytest.mark.parametrize("P", [dj.build_lazy_cycle_walk(1024), dj.build_hypercube_walk(10)],
                         ids=["cycle1024", "cube10"])
def test_kernel_is_exactly_symmetric_as_the_product_forms_it(P):
    # numpy forms A @ A.T by a symmetric rank-k update, one triangle mirrored,
    # so the kernel needs no symmetrizing pass of its own
    R = dj.symmetrized_kernel(P, dj.random_permutation(P.n, 1)).entries
    assert np.array_equal(R, R.T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), width=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_kernel_written_from_the_rows_matches_the_dense_formula(n, width, seed):
    # R is (L L)(L L)^T with L = P, columns permuted by f^-1, on sparse and dense chains
    weights = [1 + (seed >> k) % 3 for k in range(min(width, n))]
    P = _union_of_permutations(n, weights, seed)
    f = dj.random_permutation(n, seed)
    L = P.entries[:, f.inverse]
    A = L @ L
    got = dj.symmetrized_kernel(P, f).entries
    assert np.abs(got - np.clip(A @ A.T, 0.0, 1.0)).max() <= 1e-15


# --- second eigenvalue ------------------------------------------------------

def test_second_eigenvalue_identity_matrix_is_degenerate():
    R = dj.TransitionMatrix(np.eye(2))
    with pytest.warns(UserWarning):
        lam2 = dj.second_eigenvalue(R)
    assert lam2 == pytest.approx(1.0)


def test_second_eigenvalue_rank_one_kernel_is_zero():
    # lazy cycle on 3 states is the all-1/3 matrix; its fourth power too
    lam2 = dj.second_eigenvalue(kernel(3))
    assert abs(lam2) <= 1e-12


def test_second_eigenvalue_matches_independent_jacobi_oracle():
    R = kernel(13, dj.doubling_permutation(13))
    lam2 = dj.second_eigenvalue(R)
    assert lam2 == pytest.approx(LAMBDA2_CYCLE13_DOUBLING, abs=1e-8)
    oracle = jacobi_eigenvalues(R.entries)
    assert lam2 == pytest.approx(oracle[-2], abs=1e-8)


def test_second_eigenvalue_rejects_asymmetric_input():
    a = np.array([[0.6, 0.4], [0.2, 0.8]])
    with pytest.raises(InvariantError):
        dj.second_eigenvalue(dj.TransitionMatrix(a))


def test_second_eigenvalue_symmetrizes_a_copy_of_a_slightly_asymmetric_kernel():
    a = kernel(13, dj.doubling_permutation(13)).entries.copy()
    a[0, 0] -= 1e-12
    a[0, 1] += 1e-12
    R = dj.TransitionMatrix(a)
    assert dj.second_eigenvalue(R) == float(np.linalg.eigvalsh((a + a.T) / 2.0)[-2])
    assert np.array_equal(R.entries, a)


def test_second_eigenvalue_solves_an_exactly_symmetric_kernel_without_a_copy(monkeypatch):
    R = kernel(13, dj.doubling_permutation(13))
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
    dj.second_eigenvalue(R)
    assert len(seen) == 1 and seen[0] is R.entries


@pytest.mark.parametrize("block_entries", [spectral._BLOCK_ENTRIES, 64])
@pytest.mark.parametrize("n", [1, 7, 128, 129, 1000])
def test_block_symmetrization_is_the_whole_matrix_formula_bit_for_bit(monkeypatch, n,
                                                                       block_entries):
    monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(n)
    # signs, subnormals and a wide range of exponents, where rounding would show
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-320, 5, (n, n))
    assert spectral._asymmetry(a) == float(np.abs(a - a.T).max())


def test_kernel_and_eigensolve_hold_at_most_two_matrices(allocation_peak):
    n = 512
    P, f = dj.build_lazy_cycle_walk(n), dj.random_permutation(n, 1)
    with allocation_peak() as peak:
        dj.second_eigenvalue(dj.symmetrized_kernel(P, f))
    # L and A, then A and R: P is a rows table of n x 3, so two n x n arrays,
    # never three (LAPACK's working copy is allocated outside tracemalloc)
    assert peak.bytes <= 2.1 * n * n * 8


def test_second_eigenvalue_below_one_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        lam2 = dj.second_eigenvalue(dj.symmetrized_kernel(P, f))
        assert -1e-9 <= lam2 < 1.0, label


# --- bottleneck / Cheeger constant -------------------------------------------

def test_cheeger_two_state():
    R = dj.TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    phi, witness = dj.cheeger_constant(R)
    assert phi == pytest.approx(0.5)
    assert witness.indices() == (0,)


def test_cheeger_matches_brute_oracle():
    R = kernel(8)
    phi, witness = dj.cheeger_constant(R)
    assert phi == pytest.approx(CHEEGER_CYCLE8_IDENTITY, abs=1e-12)
    phi_oracle, _ = brute_cheeger(R)
    assert phi == pytest.approx(phi_oracle, abs=1e-12)
    # the witness achieves the reported ratio
    inside = set(witness.indices())
    cut = sum(R.entries[i, j] for i in inside for j in range(8) if j not in inside)
    assert cut / len(inside) == pytest.approx(phi, abs=1e-12)


def test_cheeger_witness_is_the_smallest_mask_on_ties():
    # 0x00FF and 0xFF00 both cut 196/81; the rule picks the smaller mask
    R = kernel(16, dj.random_permutation(16, 0))
    phi, witness = dj.cheeger_constant(R)
    assert witness.mask == 0x00FF
    assert (phi, witness.mask) == (float(brute_cheeger_exact(R, 81)[0]), 0x00FF)
    assert phi == 196 / (8 * 81)


def test_cheeger_positive_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        phi, _ = dj.cheeger_constant(dj.symmetrized_kernel(P, f))
        assert phi > 0.0, label


def test_cheeger_capacity_error():
    R = kernel(dj.build_lazy_cycle_walk(30))
    with pytest.raises(CapacityError):
        dj.cheeger_constant(R)


def test_cheeger_rejects_single_state_kernel():
    R = dj.TransitionMatrix(np.ones((1, 1)))
    with pytest.raises(StructureError, match="at least two states"):
        dj.cheeger_constant(R)


def test_cheeger_inequality_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        R = dj.symmetrized_kernel(P, f)
        lam2 = dj.second_eigenvalue(R)
        phi, _ = dj.cheeger_constant(R)
        assert lam2 <= 1.0 - phi * phi / 2.0 + 1e-9, label


# --- convergence bounds -----------------------------------------------------

def test_expansion_bound_exponent_zero_at_k2():
    assert dj.expansion_tv_bound(9, 0.7, 1 / 3, 2) == pytest.approx(1.5)


def test_expansion_bound_direct_substitution():
    val = dj.expansion_tv_bound(9, 0.5, 1 / 3, 6)
    assert val == pytest.approx(1.5 * (1.0 - 0.25 * (1 / 3) ** 8 / 2.0))
    assert val == pytest.approx(1.5 * (1.0 - 1.0 / 52488.0))


def test_expansion_bound_vacuous_at_k1():
    assert dj.expansion_tv_bound(9, 0.5, 1 / 3, 1) > 1.0


def test_expansion_bound_accepts_epsilon_at_least_one():
    # measured worst ratios can reach 2, so epsilon_star can reach 1
    assert dj.expansion_tv_bound(8, 1.0, 1 / 3, 10) < math.sqrt(8) / 2


def test_expansion_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dj.expansion_tv_bound(9, 0.0, 1 / 3, 2)
    with pytest.raises(ValueError):
        dj.expansion_tv_bound(9, 0.5, 0.0, 2)
    with pytest.raises(ValueError):
        dj.expansion_tv_bound(9, 0.5, 1 / 3, 0)
    with pytest.raises(ValueError):
        dj.expansion_tv_bound(9, 1e9, 1.0, 2)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_expansion_bound_rejects_a_non_finite_epsilon(epsilon):
    # nan used to pass every check and return nan
    with pytest.raises(ValueError, match="positive and finite"):
        dj.expansion_tv_bound(16, epsilon, 1 / 3, 5)


def test_spectral_bound_zero_base():
    assert dj.spectral_tv_bound(0.0, 100, 3) == 0.0


def test_spectral_bound_degenerate_base():
    assert dj.spectral_tv_bound(1.0, 4, 17) == pytest.approx(1.0)


def test_spectral_bound_rejects_small_k():
    with pytest.raises(ValueError):
        dj.spectral_tv_bound(0.5, 4, 1)


def test_spectral_bound_dominates_exact_tv_at_k20():
    P = dj.build_lazy_cycle_walk(13)
    f = dj.doubling_permutation(13)
    lam2 = dj.second_eigenvalue(dj.symmetrized_kernel(P, f))
    profile = dj.mixing_profile(dj.compose(f, P), 20)
    assert profile[20][1] <= dj.spectral_tv_bound(lam2, 13, 20) + 1e-9


def test_spectral_bound_dominates_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        lam2 = dj.second_eigenvalue(dj.symmetrized_kernel(P, f))
        profile = dj.mixing_profile(dj.compose(f, P), 50)
        for k, tv in profile[2:]:
            assert tv <= dj.spectral_tv_bound(lam2, P.n, k) + 1e-9, (label, k)


def test_contraction_of_centered_vectors(chain_zoo):
    # seeded zero-sum vectors shrink at least as fast as the eigenvalue rate
    for label, P, f in chain_zoo:
        Q = dj.compose(f, P)
        lam2 = dj.second_eigenvalue(dj.symmetrized_kernel(P, f))
        rng = np.random.Generator(np.random.Philox(42))
        for _ in range(20):
            x = rng.standard_normal(P.n)
            x -= x.mean()
            norm = np.linalg.norm(x)
            y = x.copy()
            for k in range(1, 13):
                y = y @ Q.entries
                if k >= 2:
                    assert np.linalg.norm(y) <= lam2 ** ((k - 2) / 4.0) * norm + 1e-9, (label, k)


# --- distances ------------------------------------------------------------

def test_tv_distance_examples():
    u4 = np.full(4, 0.25)
    assert dj.tv_distance(u4, u4) == 0.0
    assert dj.tv_distance(np.array([1.0, 0.0, 0.0, 0.0]), u4) == pytest.approx(0.75)
    assert dj.tv_distance(np.array([0.5, 0.5, 0.0, 0.0]), u4) == pytest.approx(0.5)


def test_tv_distance_takes_a_stack_of_rows_against_one_row():
    laws = dj.fibonacci_walk_marginals(13, 30)
    u = np.full(13, 1 / 13)
    tv = dj.tv_distance(laws, u)
    assert tv.shape == (30,)
    # each row's distance, bit for bit
    assert [float(d).hex() for d in tv] == [float(dj.tv_distance(row, u)).hex() for row in laws]


def test_tv_distance_of_a_stack_holds_one_scratch_copy(allocation_peak):
    laws = dj.fibonacci_walk_marginals(100, 2000)  # 1.6 MB
    with allocation_peak() as peak:
        dj.tv_distance(laws, np.full(100, 0.01))
    # one block's difference, about _BLOCK_ENTRIES doubles, not one of the whole stack
    assert peak.bytes < 1 << 20


def test_tv_distance_in_small_blocks_matches_one_call_per_row(monkeypatch):
    # blocks of 2 rows split a (5, 3, 4) stack unevenly; an empty stack gives no rows
    monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 24)
    laws = np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 3))
    u = np.full(4, 0.25)
    tv = dj.tv_distance(laws, u)
    assert tv.shape == (5, 3)
    assert [float(d).hex() for d in tv.ravel()] == [
        float(dj.tv_distance(row, u)).hex() for row in laws.reshape(-1, 4)]
    assert dj.tv_distance(np.empty((0, 4)), u).shape == (0,)


def test_tv_distance_refuses_vectors_of_unequal_length():
    # a length-1 row would broadcast silently
    for mu in (np.ones(1), np.full(5, 0.2), np.full((3, 1), 1.0)):
        with pytest.raises(ValueError, match="length mismatch"):
            dj.tv_distance(mu, np.full(4, 0.25))


# --- mixing profiles ----------------------------------------------------------

def test_mixing_profile_starts_at_point_mass_distance():
    Q = dj.build_lazy_cycle_walk(9)
    profile = dj.mixing_profile(Q, 0)
    assert profile == [(0, pytest.approx(1 - 1 / 9))]


def test_mixing_profile_monotone_on_zoo(chain_zoo):
    for label, P, f in chain_zoo:
        profile = dj.mixing_profile(dj.compose(f, P), 40)
        values = [tv for _, tv in profile]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), label


def test_mixing_profile_plain_cycle_still_unmixed_at_k100():
    profile = dj.mixing_profile(dj.build_lazy_cycle_walk(101), 100)
    assert profile[100][1] > 0.5


def test_mixing_profile_random_jump_mixes_by_k60():
    P = dj.build_lazy_cycle_walk(101)
    Q = dj.compose(dj.random_permutation(101, 1), P)
    profile = dj.mixing_profile(Q, 60)
    assert profile[60][1] < 0.01


def test_mixing_profile_single_start_matches_on_vertex_transitive():
    P = dj.build_lazy_cycle_walk(11)
    full = dj.mixing_profile(P, 15)
    fast = dj.mixing_profile(P, 15, single_start=True)
    for (k, a), (_, b) in zip(full, fast):
        assert a == pytest.approx(b, abs=1e-12), k


def test_mixing_profile_single_start_refuses_a_chain_without_symmetry():
    # start 0 gives 0.3125 at k = 3 here, the worst start 0.4398
    Q = dj.compose(dj.random_permutation(16, 0), dj.build_lazy_cycle_walk(16))
    with pytest.raises(StructureError, match="translation-invariant"):
        dj.mixing_profile(Q, 6, single_start=True)
    worst = dj.mixing_profile(Q, 6)[3][1]
    assert worst == pytest.approx(mixing_profile_dense(Q, 6)[3], abs=1e-14)
    assert worst > 0.43


def _union_of_permutations(n, weights, seed):
    """Normalized sum of weighted random permutation matrices: doubly stochastic and sparse."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for w in weights:
        a[np.arange(n), rng.permutation(n)] += w
    return dj.TransitionMatrix(a / a.sum(axis=1, keepdims=True))


def _circulant(stencil):
    n = len(stencil)
    idx = np.arange(n)
    return dj.TransitionMatrix(np.asarray(stencil)[(idx[None, :] - idx[:, None]) % n])


def _xor_invariant(stencil):
    idx = np.arange(len(stencil))
    return dj.TransitionMatrix(np.asarray(stencil)[idx[:, None] ^ idx[None, :]])


def _with_one_swap(P, rows, cols, mass):
    """P with `mass` moved around the rectangle rows x cols: still doubly stochastic."""
    a = P.entries.copy()
    (r1, r2), (c1, c2) = rows, cols
    a[r1, c1] -= mass
    a[r2, c2] -= mass
    a[r1, c2] += mass
    a[r2, c1] += mass
    return dj.TransitionMatrix(a)


def _swap_rows_0_1(Q):
    """Q with mass moved around a rectangle on rows 0 and 1: no row-0 translate any more."""
    a = Q.entries
    c1 = np.flatnonzero(a[0])[0]
    c2 = [c for c in np.flatnonzero(a[1]) if c != c1][-1]
    return _with_one_swap(Q, (0, 1), (c1, c2), min(a[0, c1], a[1, c2]) / 2)


def _shift_step(Q):
    """The shift step of a factored Q: its factor, then row 0's nonzero columns and weights."""
    cols, weights = Q.rows
    nonzero = weights[0] != 0
    return ("shift", *spectral._jump_factor(cols, weights), cols[0][nonzero],
            weights[0][nonzero])


def _steps(Q):
    """Every step the profile can take on Q: the shift step only when Q factors."""
    steps = [("gather", *spectral._gather_tables(*Q.rows)), ("gemm", Q.entries)]
    if spectral._jump_factor(*Q.rows) is not None:
        steps.append(_shift_step(Q))
    return steps


def _assert_matches_dense(Q, k_max, starts):
    want = mixing_profile_dense(Q, k_max)
    for step in _steps(Q):
        got = spectral._worst_tv(Q.n, k_max, starts, step)
        assert np.abs(got - want).max() <= 1e-14, step[0]
    got = [tv for _, tv in dj.mixing_profile(Q, k_max)]
    assert np.abs(np.array(got) - want).max() <= 1e-14


def _one_start(Q):
    """Whether the exact check finds Q itself translation-invariant (s = identity)."""
    factor = spectral._jump_factor(*Q.rows)
    return factor is not None and np.array_equal(factor[1], np.arange(Q.n))


_WEIGHTS = st.lists(st.integers(1, 4), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), weights=_WEIGHTS, seed=st.integers(0, 2**32 - 1),
       k_max=st.integers(0, 30))
def test_both_steps_match_the_dense_oracle_on_sparse_chains(n, weights, seed, k_max):
    Q = _union_of_permutations(n, weights, seed)
    _assert_matches_dense(Q, k_max, np.arange(n))
    # all starts by GEMM is the oracle's own M @ Q loop, bit for bit
    assert spectral._worst_tv(n, k_max, np.arange(n), ("gemm", Q.entries)).tolist() == \
        mixing_profile_dense(Q, k_max)


_STENCIL = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 0.5]), min_size=1, max_size=64)


@settings(max_examples=60, deadline=None)
@given(stencil=_STENCIL.filter(any), k_max=st.integers(0, 30))
def test_one_start_route_matches_the_dense_oracle_on_circulants(stencil, k_max):
    Q = _circulant(np.array(stencil) / sum(stencil))
    assert _one_start(Q)
    _assert_matches_dense(Q, k_max, np.zeros(1, dtype=np.intp))


def _xor_stencil(data, d):
    return np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5]),
                                       min_size=1 << d, max_size=1 << d).filter(any)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(0, 6), data=st.data(), k_max=st.integers(0, 30))
def test_one_start_route_matches_the_dense_oracle_on_xor_invariant_chains(d, data, k_max):
    stencil = _xor_stencil(data, d)
    Q = _xor_invariant(stencil / stencil.sum())
    assert _one_start(Q)
    _assert_matches_dense(Q, k_max, np.zeros(1, dtype=np.intp))


def _jumped(P, seed=2):
    return dj.compose(dj.random_permutation(P.n, seed), P)


def _assert_jumped_matches_dense(Q, k_max, periodic):
    """Q = compose(f, P) on every step: factored unless P's stencil is periodic."""
    factor = spectral._jump_factor(*Q.rows)
    assert factor is not None or periodic
    if factor is not None:
        assert np.bincount(factor[1], minlength=Q.n).max() == 1
    _assert_matches_dense(Q, k_max, np.arange(Q.n))


@settings(max_examples=60, deadline=None)
@given(stencil=_STENCIL.filter(any), seed=st.integers(0, 2**32 - 1), k_max=st.integers(0, 30))
def test_shift_step_matches_the_dense_oracle_on_jumped_circulants(stencil, seed, k_max):
    r = np.array(stencil) / sum(stencil)
    periodic = any(np.array_equal(np.roll(r, c), r) for c in range(1, r.size))
    _assert_jumped_matches_dense(_jumped(_circulant(r), seed), k_max, periodic)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(0, 6), data=st.data(), seed=st.integers(0, 2**32 - 1),
       k_max=st.integers(0, 30))
def test_shift_step_matches_the_dense_oracle_on_jumped_xor_chains(d, data, seed, k_max):
    r = _xor_stencil(data, d)
    r /= r.sum()
    idx = np.arange(r.size)
    periodic = any(np.array_equal(r[idx ^ c], r) for c in range(1, r.size))
    _assert_jumped_matches_dense(_jumped(_xor_invariant(r), seed), k_max, periodic)


def _force_route(mp, route):
    """Make ``route`` the one estimate of no cost, so a profile takes it wherever it can."""
    mp.setattr(spectral, "_profile_cost", lambda kind, *args: (float(kind != route), 0.0))


@settings(max_examples=90, deadline=None)
@given(route=st.sampled_from(sorted(spectral._ROUTE_NS)), jumped=st.booleans(),
       stencil=_STENCIL.filter(any), weights=_WEIGHTS, seed=st.integers(0, 2**32 - 1),
       k_max=st.integers(0, 20))
def test_rows_form_profiles_match_the_dense_oracle_on_every_route(route, jumped, stencil,
                                                                   weights, seed, k_max):
    # a jumped circulant factors unless its stencil is periodic; a union does not
    if jumped:
        Q = _jumped(_circulant(np.array(stencil) / sum(stencil)), seed)
    else:
        Q = _union_of_permutations(len(stencil), weights, seed)
    assume(route != "shift" or spectral._jump_factor(*Q.rows) is not None)
    seen = []
    real = spectral._worst_tv

    def spy(n, k_max_, starts, step):
        seen.append(step[0])
        return real(n, k_max_, starts, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_worst_tv", spy)
        _force_route(mp, route)
        got = [tv for _, tv in dj.mixing_profile(Q, k_max)]
    assert seen == [route]
    assert np.abs(np.array(got) - mixing_profile_dense(Q, k_max)).max() <= 1e-14


@pytest.mark.parametrize("stencil", [[1, 0, 1, 0], [1, 1, 0, 1, 1, 0], [2, 1, 2, 1, 2, 1, 2, 1]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_periodic_stencils_match_the_dense_oracle_after_a_jump(stencil, seed):
    r = np.array(stencil, dtype=float) / sum(stencil)
    _assert_jumped_matches_dense(_jumped(_circulant(r), seed), 20, periodic=True)


@pytest.mark.parametrize("P", [
    _circulant(np.array([0.5, 0.3, 0, 0, 0, 0, 0.2])),  # n = 7, not a power of two
    dj.build_lazy_cycle_walk(48),
    dj.build_hypercube_walk(5),
    _xor_invariant(np.array([0.4, 0.1, 0.0, 0.2, 0.0, 0.0, 0.3, 0.0])),
], ids=["cycle7", "cycle48", "cube5", "xor8"])
def test_jumped_chains_factor_and_a_swap_after_composing_falls_back(P):
    Q = _jumped(P, seed=4)
    _assert_jumped_matches_dense(Q, 30, periodic=False)
    swapped = _swap_rows_0_1(Q)
    assert spectral._jump_factor(*swapped.rows) is None
    _assert_matches_dense(swapped, 30, np.arange(P.n))


def test_translation_invariance_fires_on_cycles_and_cubes():
    for n in (3, 4, 5, 16, 101, 1024):
        assert _one_start(dj.build_lazy_cycle_walk(n)), n
    for d in range(1, 11):
        assert _one_start(dj.build_hypercube_walk(d)), d


@pytest.mark.parametrize("n, moduli", [
    (1, [(1,)]),
    (2, [(2,), (2,)]),
    (3, [(3,)]),
    (4, [(4,), (2, 2)]),
    (1024, [(1024,), (2,) * 10]),
])
def test_groups_declare_axis_moduli_and_the_index_difference(n, moduli):
    groups = spectral._groups(n)
    assert [m for m, _ in groups] == moduli
    j, c = np.arange(n)[None, :], np.arange(n)[:, None]
    for (m, diff), want in zip(groups, [(j - c) % n, j ^ c]):
        assert np.array_equal(diff(j, c), want)
        # digit by digit, j - c is the difference of the digits mod each modulus,
        # which is what the shift step's per-axis rolls compute
        for d, dj_, dc, mod in zip(np.unravel_index(diff(j, c), m), np.unravel_index(j, m),
                                   np.unravel_index(c, m), m):
            assert np.array_equal(d, (dj_ - dc) % mod)


# float.hex of the shift step's profiles, kmax 12 on the forced shift step, frozen from
# the implementation that folds the rows of a block for its column sums;
# test_shift_route_profiles_are_within_4e16_of_exact_rationals holds them to the
# exact profile. xor8 moves several cube axes per offset.
SHIFT_PROFILES = {
    "cycle64": [
        "0x1.f800000000000p-1", "0x1.e7fffffffffffp-1", "0x1.d000000000000p-1",
        "0x1.7800000000000p-1", "0x1.e25ed097b425ep-2", "0x1.2905447a34accp-2",
        "0x1.6f19a2970059ep-3", "0x1.ccc24fd4ec73ap-4", "0x1.068e1aec37b7ep-4",
        "0x1.6448ada877f7ep-5", "0x1.e4f27c92a845cp-6", "0x1.0fb2cba677361p-6",
        "0x1.40dc174b24accp-7",
    ],
    "cube6": [
        "0x1.f800000000000p-1", "0x1.c7fffffffffffp-1", "0x1.1000000000000p-1",
        "0x1.e5693c746e75ep-3", "0x1.40ccb6f6b94f3p-4", "0x1.dae53ce19cd7ap-6",
        "0x1.205645cab8263p-7", "0x1.ed428dc10d982p-9", "0x1.4210054c02cf8p-10",
        "0x1.f24f5ebb71cd0p-12", "0x1.4e2a621cbe080p-13", "0x1.a982acb6fe580p-15",
        "0x1.36f3e16a42600p-16",
    ],
    "xor8": [
        "0x1.c000000000000p-1", "0x1.0ccccccccccccp-1", "0x1.4cccccccccccdp-2",
        "0x1.0624dd2f1a9fcp-2", "0x1.a36e2eb1c432ep-3", "0x1.4f8b588e368f2p-3",
        "0x1.0c6f7a0b5ed8ep-3", "0x1.ad7f29abcaf4ap-4", "0x1.5798ee2308c3cp-4",
        "0x1.12e0be826d696p-4", "0x1.b7cdfd9d7bdbdp-5", "0x1.5fd7fe1796498p-5",
        "0x1.19799812dea14p-5",
    ],
}
_SHIFT_CHAINS = pytest.mark.parametrize("name, P", [
    ("cycle64", dj.build_lazy_cycle_walk(64)),
    ("cube6", dj.build_hypercube_walk(6)),
    ("xor8", _xor_invariant(np.array([0.4, 0.1, 0.0, 0.2, 0.0, 0.0, 0.3, 0.0]))),
])


@_SHIFT_CHAINS
def test_shift_route_profiles_are_pinned_bit_for_bit(monkeypatch, name, P):
    Q = _jumped(P)
    _force_route(monkeypatch, "shift")
    step = _shift_step(Q)
    assert [tv.hex() for tv in spectral._worst_tv(Q.n, 12, np.arange(Q.n), step)] == \
        SHIFT_PROFILES[name]
    assert [tv.hex() for _, tv in dj.mixing_profile(Q, 12)] == SHIFT_PROFILES[name]


@_SHIFT_CHAINS
def test_shift_route_profiles_are_within_4e16_of_exact_rationals(monkeypatch, name, P):
    Q = _jumped(P)
    _force_route(monkeypatch, "shift")
    exact = mixing_profile_exact(Q, 12)
    got = dj.mixing_profile(Q, 12)
    assert max(abs(Fraction(tv) - want) for (_, tv), want in zip(got, exact)) <= 4e-16


# float.hex of profiles whose starts' states are contiguous (one start, and the
# column-major GEMM block), kmax 12, frozen from the implementation that took the
# distances through a transposed buffer of their own: numpy's pairwise sum adds a
# start's states in that order wherever the distances are written.
CONTIGUOUS_PROFILES = {
    "plain 1024-cycle": [
        "0x1.ff80000000000p-1", "0x1.fe7ffffffffffp-1", "0x1.fd80000000000p-1",
        "0x1.fc80000000000p-1", "0x1.fb80000000000p-1", "0x1.fa80000000000p-1",
        "0x1.f97ffffffffffp-1", "0x1.f90822a5fc051p-1", "0x1.f8580b8ca9570p-1",
        "0x1.f7fad12a34776p-1", "0x1.f75aff5cd9d39p-1", "0x1.f70c932493deep-1",
        "0x1.f6a57b3706708p-1",
    ],
    "plain 6-cube": [
        "0x1.f800000000000p-1", "0x1.c7fffffffffffp-1", "0x1.5000000000000p-1",
        "0x1.5ffffffffffffp-2", "0x1.39bfd03bb55d5p-2", "0x1.8ced8dea092b5p-3",
        "0x1.31cdd39d5bf43p-3", "0x1.a1d96b8f617bep-4", "0x1.329ff8f79fed8p-4",
        "0x1.af0b3b8e21e56p-5", "0x1.36e2ab5bb2303p-5", "0x1.b98daa01bac4ap-6",
        "0x1.3c7f03557a602p-6",
    ],
    "union of 6 permutations": [
        "0x1.fe00000000000p-1", "0x1.f600000000000p-1", "0x1.cc00000000000p-1",
        "0x1.3b2f684bda12fp-1", "0x1.3c00000000000p-2", "0x1.296a673e28086p-3",
        "0x1.113cc0705f846p-4", "0x1.e2093f53b1ceap-6", "0x1.cd72d4ce7c501p-7",
        "0x1.a3f5042ccb0cep-8", "0x1.850b7ea6477e6p-9", "0x1.56f9c16959e8cp-10",
        "0x1.441a73fe9e550p-11",
    ],
}


@pytest.mark.parametrize("label, Q, route", [
    ("plain 1024-cycle", dj.build_lazy_cycle_walk(1024), (1, "shift")),
    ("plain 6-cube", dj.build_hypercube_walk(6), (1, "gemm")),
    ("union of 6 permutations", _union_of_permutations(256, [1, 2, 3, 1, 2, 3], 3),
     (256, "gemm")),
])
def test_one_start_and_gemm_profiles_are_pinned_bit_for_bit(monkeypatch, label, Q, route):
    seen = []
    real = spectral._worst_tv

    def spy(n, k_max, starts, step):
        seen.append((starts.size, step[0]))
        return real(n, k_max, starts, step)

    monkeypatch.setattr(spectral, "_worst_tv", spy)
    assert [tv.hex() for _, tv in dj.mixing_profile(Q, 12)] == CONTIGUOUS_PROFILES[label]
    assert seen == [route], label


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_folded_column_sums_are_within_the_pairwise_bound_of_fsum(n, b, seed):
    rng = np.random.default_rng(seed)
    # nonnegative like |X - 1/n|, over a wide range of exponents
    d = rng.random((n, b)) * 10.0 ** rng.integers(-30, 5, (n, b))
    want = [math.fsum(col) for col in d.T.tolist()]
    first = d[:, :1].copy()
    got = spectral._column_sums(d).tolist()
    bound = math.ceil(math.log2(n)) * 2.0**-53
    for g, w in zip(got, want):
        assert abs(g - w) <= bound * w
    # a column's sum does not depend on the width of its block
    assert spectral._column_sums(first)[0] == got[0]


@pytest.mark.parametrize("Q", [
    _with_one_swap(dj.build_lazy_cycle_walk(16), (5, 9), (6, 10), 1 / 12),
    _with_one_swap(dj.build_hypercube_walk(4), (9, 8), (8, 9), 0.1),  # 8 and 9 stay more
], ids=["cycle16", "cube4"])
def test_translation_invariance_misses_a_near_miss_with_one_swap(Q):
    a = Q.entries
    assert np.allclose(a.sum(axis=0), 1.0) and np.allclose(a.sum(axis=1), 1.0)
    assert spectral._jump_factor(*Q.rows) is None
    with pytest.raises(StructureError):
        dj.mixing_profile(Q, 4, single_start=True)
    want = mixing_profile_dense(Q, 40)
    start0 = spectral._worst_tv(Q.n, 40, np.zeros(1, dtype=np.intp), ("gemm", a))
    assert max(w - s for w, s in zip(want, start0)) > 1e-3  # start 0 is not the worst
    _assert_matches_dense(Q, 40, np.arange(Q.n))


@pytest.mark.parametrize("P", [dj.build_lazy_cycle_walk(64), _jumped(dj.build_lazy_cycle_walk(64))],
                         ids=["plain", "jumped"])
def test_a_row_with_one_more_nonzero_than_row_0_is_no_translate(P):
    # row 5 keeps row 0's translated entries and gains 1e-12 more mass, within
    # STOCHASTIC_TOL: the entries the check reads all match, the count does not
    a = P.entries.copy()
    a[5, np.flatnonzero(a[5] == 0)[-1]] = 1e-12
    Q = dj.TransitionMatrix(a)
    assert spectral._jump_factor(*Q.rows) is None
    _assert_matches_dense(Q, 20, np.arange(Q.n))


@pytest.mark.parametrize("label, Q, starts, step", [
    ("plain cycle", dj.build_lazy_cycle_walk(384), 1, "shift"),
    # one start, w * 32 > n: the step falls back as on any other chain
    ("plain cycle below the shift crossover", dj.build_lazy_cycle_walk(95), 1, "gemm"),
    ("jumped cycle", _jumped(dj.build_lazy_cycle_walk(384)), 384, "shift"),
    ("plain cube", dj.build_hypercube_walk(6), 1, "gemm"),
    ("jumped cube", _jumped(dj.build_hypercube_walk(6)), 64, "gemm"),
    # the benchmark's dense chains: both factor, w = 3 and w = 11 at n = 1024
    ("jumped 1024-cycle", _jumped(dj.build_lazy_cycle_walk(1024)), 1024, "shift"),
    ("jumped 10-cube", _jumped(dj.build_hypercube_walk(10)), 1024, "shift"),
    ("plain 10-cube", dj.build_hypercube_walk(10), 1, "shift"),
    # unions of permutations do not factor: gather up to w * 128 = n, then GEMM
    ("union of 2 permutations", _union_of_permutations(1024, [1, 1], 3), 1024, "gather"),
    ("union of 6 permutations", _union_of_permutations(256, [1, 2, 3, 1, 2, 3], 3), 256,
     "gemm"),
    # a near miss falls back to the step its sparsity allows
    ("jumped 1024-cycle with one swap", _swap_rows_0_1(_jumped(dj.build_lazy_cycle_walk(1024))),
     1024, "gather"),
])
def test_mixing_profile_route_follows_the_checked_properties(monkeypatch, label, Q, starts,
                                                             step):
    seen = []
    real = spectral._worst_tv

    def spy(n, k_max, starts_, step_):
        seen.append((starts_.size, step_[0]))
        return real(n, k_max, starts_, step_)

    monkeypatch.setattr(spectral, "_worst_tv", spy)
    dj.mixing_profile(Q, 2)
    assert seen == [(starts, step)], label


@pytest.mark.parametrize("width", [1, 5, 47, 48])
def test_blocks_of_starts_each_count(monkeypatch, width):
    n = 48
    Q = _union_of_permutations(n, [1, 2, 1], seed=width)
    monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", width * n)
    got = spectral._worst_tv(n, 25, np.arange(n), ("gather", *spectral._gather_tables(*Q.rows)))
    assert np.abs(got - mixing_profile_dense(Q, 25)).max() <= 1e-14


@pytest.mark.parametrize("width", [1, 5, 64])
def test_blocks_of_starts_each_count_on_the_shift_step(monkeypatch, width):
    Q = _jumped(dj.build_hypercube_walk(6), seed=width)
    monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", width * Q.n)
    step = _shift_step(Q)
    got = spectral._worst_tv(Q.n, 25, np.arange(Q.n), step)
    assert np.abs(got - mixing_profile_dense(Q, 25)).max() <= 1e-14


def test_jumped_cycle_over_several_blocks_matches_the_dense_oracle():
    # n = 384 takes the shift step in blocks of 170 starts
    Q = dj.compose(dj.random_permutation(384, 5), dj.build_lazy_cycle_walk(384))
    got = [tv for _, tv in dj.mixing_profile(Q, 30)]
    assert np.abs(np.array(got) - mixing_profile_dense(Q, 30)).max() <= 1e-14


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(spectral, "_worker_count", lambda blocks: min(blocks, workers))


@pytest.mark.parametrize("label, Q, step, k_max", [
    ("jumped 512-cycle", _jumped(dj.build_lazy_cycle_walk(512)), "shift", 30),
    ("jumped 9-cube", _jumped(dj.build_hypercube_walk(9)), "shift", 30),
    ("union of 3 permutations", _union_of_permutations(512, [1, 2, 1], 3), "gather", 30),
    # blocks of 65 starts: 15 full ones and a ragged last block of 25
    ("jumped 1000-cycle", _jumped(dj.build_lazy_cycle_walk(1000)), "shift", 12),
])
def test_profiles_are_bit_identical_for_any_worker_count(monkeypatch, label, Q, step, k_max):
    seen = []
    real = spectral._worst_tv

    def spy(n, k_max_, starts, step_):
        seen.append(step_[0])
        return real(n, k_max_, starts, step_)

    monkeypatch.setattr(spectral, "_worst_tv", spy)
    want = mixing_profile_dense(Q, k_max)
    profiles = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        got = [tv for _, tv in dj.mixing_profile(Q, k_max)]
        assert np.abs(np.array(got) - want).max() <= 1e-14, workers
        profiles.append([tv.hex() for tv in got])
    assert seen == [step] * 3, label
    assert profiles[1] == profiles[0] and profiles[2] == profiles[0], label


def test_worker_count_is_one_per_block_up_to_the_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert [spectral._worker_count(b) for b in (1, 2, 10**6)] == [1, min(2, cpus), cpus]


def test_a_pooled_profile_leaves_no_thread_behind(monkeypatch):
    pools = []

    class Recording(spectral.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(spectral, "ThreadPoolExecutor", Recording)
    _force_workers(monkeypatch, 2)
    before = threading.active_count()
    dj.mixing_profile(_jumped(dj.build_lazy_cycle_walk(512)), 10)
    assert pools == [2]
    assert threading.active_count() == before


@pytest.mark.parametrize("label, Q", [
    ("one start", dj.build_lazy_cycle_walk(1024)),
    ("gemm", _union_of_permutations(256, [1, 2, 3, 1, 2, 3], 3)),
    ("shift, n * n <= 2^16", _jumped(dj.build_lazy_cycle_walk(192))),
])
def test_single_block_chains_start_no_pool(monkeypatch, label, Q):
    def refuse(workers):
        raise AssertionError(f"{label}: a pool of {workers} threads for one block")

    monkeypatch.setattr(spectral, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(spectral, "_worker_count", lambda blocks: blocks)  # any number of CPUs
    assert len(dj.mixing_profile(Q, 5)) == 6


@pytest.mark.parametrize("label", ["union of 6 permutations", "dense symmetrized kernel"])
def test_gemm_route_holds_two_matrices_above_the_chain(allocation_peak, label):
    n = 512
    if label == "dense symmetrized kernel":
        Q = dj.symmetrized_kernel(dj.build_lazy_cycle_walk(n), dj.random_permutation(n, 1))
        built = 0  # Q's stored form is its dense array, which the route reads as it is
    else:
        Q = _union_of_permutations(n, [1, 2, 3, 1, 2, 3], 3)
        built = n * n * 8  # a rows table: only the GEMM route builds its dense array
    assert spectral._jump_factor(*Q.rows) is None
    with allocation_peak() as peak:
        dj.mixing_profile(Q, 30)
    # X and the product it steps into, which holds the distances between steps,
    # plus a few vectors of n, above the dense Q
    assert peak.bytes <= built + 2.01 * n * n * 8


def test_shift_route_holds_three_blocks_per_thread_above_the_chain(monkeypatch,
                                                                   allocation_peak):
    Q = _jumped(dj.build_lazy_cycle_walk(1024))  # 16 blocks of 64 starts
    _force_workers(monkeypatch, 2)
    cols, weights = Q.rows
    assert cols.shape == weights.shape == (Q.n, 3)  # the chain is O(n w), not n x n
    with allocation_peak() as peak:
        dj.mixing_profile(Q, 10)
    # X, Y and spare per thread, 2^16 doubles each, the distances in Y; plus s,
    # its inverse, the starts and a few other vectors of n. The factor check's
    # scratch, a few tables of n x w, is freed before the blocks are made.
    blocks = 2 * 3 * spectral._BLOCK_ENTRIES * 8
    assert blocks <= peak.bytes <= blocks + 16 * Q.n * 8


def test_gather_route_repeats_bit_for_bit():
    Q = _union_of_permutations(512, [1, 2, 1], seed=3)
    assert dj.mixing_profile(Q, 20) == dj.mixing_profile(Q, 20)


@pytest.mark.parametrize("P", [dj.build_lazy_cycle_walk(512), dj.build_hypercube_walk(9)],
                         ids=["cycle512", "cube9"])
def test_shift_route_repeats_bit_for_bit_and_refuses_single_start(P):
    Q = _jumped(P, seed=3)
    assert spectral._jump_factor(*Q.rows) is not None
    assert dj.mixing_profile(Q, 20) == dj.mixing_profile(Q, 20)
    with pytest.raises(StructureError, match="translation-invariant"):
        dj.mixing_profile(Q, 20, single_start=True)


@pytest.mark.parametrize("k_max", [10**9, 10**20])
def test_mixing_profile_caps_n_times_kmax_before_allocating(k_max, allocation_peak):
    Q = dj.build_lazy_cycle_walk(5)
    with allocation_peak() as peak:
        with pytest.raises(CapacityError, match="mixing profile: estimated work .* over "
                                                "WORK_CAP=.*; make kmax smaller"):
            dj.mixing_profile(Q, k_max)
    assert peak.bytes < 1 << 20


def test_mixing_profile_cap_admits_n_times_kmax_up_to_the_cap(monkeypatch):
    # the boundary moved from n * kmax = 2^20 (MIXING_STEP_CAP) to the route's estimate:
    # at most WORK_CAP, so about 4.7 million one-start steps of the plain 1024-cycle
    Q = dj.build_lazy_cycle_walk(1024)
    k_max = 1024
    monkeypatch.setattr(chains, "WORK_CAP", spectral._profile_cost("shift", Q.n, 1, 3, k_max)[0])
    assert len(dj.mixing_profile(Q, k_max)) == k_max + 1
    with pytest.raises(CapacityError, match=f"over WORK_CAP={chains.WORK_CAP!r}"):
        dj.mixing_profile(Q, k_max + 1)


def test_predecessor_table_pads_short_columns_with_zero_weight():
    a = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    pred, wt = spectral._gather_tables(*dj.TransitionMatrix(a).rows)
    assert pred.tolist() == [[0, 0, 1], [2, 2, 0]]
    assert wt.tolist() == [[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]


# --- spectral report ----------------------------------------------------------

def test_spectral_report_consistency():
    P = dj.build_lazy_cycle_walk(12)
    f = dj.random_permutation(12, 1)
    eps = dj.check_expansion(P, f).epsilon_star
    report = dj.spectral_report(P, f, expansion_epsilon=eps)
    assert report.n == 12
    assert report.delta == pytest.approx(1 / 3)
    assert -1e-9 <= report.lambda2 < 1.0
    assert report.cheeger >= eps * report.delta**4 - 1e-9
    assert report.lambda2 <= 1.0 - report.cheeger**2 / 2.0 + 1e-9
    assert report.cheeger_witness.size >= 1


def test_spectral_report_refuses_a_chain_over_the_cap_before_building_the_kernel(
        allocation_peak):
    n = 1024
    P, f = dj.build_lazy_cycle_walk(n), dj.random_permutation(n, 1)
    with allocation_peak() as peak:
        with pytest.raises(CapacityError, match="exact bottleneck search: estimated work"):
            dj.spectral_report(P, f)
    # the symmetrized kernel alone would be an 8 MiB array
    assert peak.bytes < 1 << 20


def test_spectral_report_refuses_a_single_state_chain_before_building_the_kernel(monkeypatch):
    def never(*args):
        raise AssertionError("symmetrized_kernel called")

    monkeypatch.setattr(spectral, "symmetrized_kernel", never)
    with pytest.raises(StructureError, match="at least two states"):
        dj.spectral_report(dj.TransitionMatrix(np.ones((1, 1))), dj.identity_permutation(1))


def test_spectral_report_rejects_inconsistent_epsilon():
    P = dj.build_lazy_cycle_walk(12)
    f = dj.identity_permutation(12)
    with pytest.raises(InvariantError):
        dj.spectral_report(P, f, expansion_epsilon=500.0)
