import math

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import fibonacci
from detjump.errors import BijectionError, CapacityError, InvariantError
from detjump.fibonacci import (
    MARGINAL_ENTRY_CAP,
    REGISTER_STATE_CAP,
    _fib_cos_factors,
    _fib_residues,
    _pair_index,
    _pair_step,
    _successor_period,
    _window_table,
)
from oracles import (
    additive_table_loop,
    cubing_table_loop,
    dense_period,
    fib_cos_factors_loop,
    first_collision_loop,
    pair_step_loop,
    register_ergodicity_dense,
    register_matrix_loop,
    residue_window_searchsorted,
)

BIT_IDENTITY_MODULI = (2, 3, 5, 22, 50, 199, 200)


def tv_to_uniform(dist):
    return dj.tv_distance(dist, dj.Distribution.uniform(dist.n))


# --- exact walk distribution --------------------------------------------------

def test_walk_k1_is_point_mass_at_one():
    d = dj.fibonacci_walk_marginals(9, 1)[0]
    assert d.probs[1] == 1.0


def test_walk_k2_spreads_over_three_values():
    d = dj.fibonacci_walk_marginals(7, 2)[1]
    assert np.allclose(d.probs[[0, 1, 2]], 1 / 3)
    assert d.probs[3:].sum() == 0.0


def test_walk_argument_validation():
    with pytest.raises(ValueError):
        dj.fibonacci_walk_marginals(1, 3)
    with pytest.raises(ValueError):
        dj.fibonacci_walk_marginals(5, 0)
    with pytest.raises(CapacityError):
        dj.fibonacci_walk_marginals(1001, 3)


@pytest.mark.parametrize("n", BIT_IDENTITY_MODULI)
def test_pair_step_matches_column_loop_bitwise(n):
    index = _pair_index(n)
    joint = np.zeros((n, n))
    joint[0, 1 % n] = 1.0
    for step in range(120):
        expected = pair_step_loop(joint)
        joint = _pair_step(joint, index)
        assert np.array_equal(joint, expected), (n, step)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("n", BIT_IDENTITY_MODULI)
def test_fourier_factors_match_running_product_bitwise(n, block, monkeypatch):
    if block is not None:  # many frequency blocks per call
        monkeypatch.setattr(fibonacci, "_FACTOR_BLOCK", block)
    a = np.arange(1, n, dtype=np.int64)
    for k in (1, 2, 3, 10, 97, 400, 1500):
        assert np.array_equal(_fib_cos_factors(n, k, a), fib_cos_factors_loop(n, k, a)), (n, k)


def test_walk_tv_monotone_nonincreasing():
    for n in (5, 22, 60):
        tvs = [tv_to_uniform(d) for d in dj.fibonacci_walk_marginals(n, 60)]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:])), n


# --- Fourier bound --------------------------------------------------------------

def test_fourier_bound_never_exceeds_sqrt_cap():
    for n in (5, 22, 40):
        for k in (1, 3, 10, 50):
            assert dj.fourier_tv_bound(n, k) <= math.sqrt(n - 1) / 2 + 1e-12


def test_fourier_bound_empty_product_hits_cap():
    # at k = 1 every frequency contributes an empty product, i.e. factor 1
    assert dj.fourier_tv_bound(10, 1) == pytest.approx(3.0 / 2.0)


def test_fourier_bound_dominates_exact_tv_n22():
    margs = dj.fibonacci_walk_marginals(22, 60)
    for k in range(5, 61):
        assert tv_to_uniform(margs[k - 1]) <= dj.fourier_tv_bound(22, k) + 1e-9, k


def test_fourier_squared_sum_dominates_4tv_squared():
    # the raw transform inequality, across all moduli up to 40
    for n in range(2, 41):
        margs = dj.fibonacci_walk_marginals(n, 80)
        for k in range(1, 81):
            tv = tv_to_uniform(margs[k - 1])
            rhs = (2.0 * dj.fourier_tv_bound(n, k)) ** 2
            assert 4.0 * tv * tv <= rhs + 1e-9, (n, k)


# --- residue sequences -----------------------------------------------------------

def test_fifth_fibonacci_number_is_five():
    assert int(_fib_residues(1000)[5]) == 5


def test_pisano_period_mod3_is_eight():
    seq = dj.fib_residue_sequence(3, 1)
    assert seq.period == 8
    assert seq.terms == (0, 1, 1, 2, 0, 2, 2, 1)


def test_residue_sequence_scaled_period_divides():
    seq = dj.fib_residue_sequence(10, 5)
    assert len(_fib_residues(10)) % seq.period == 0
    assert seq.terms[1] == 5


def test_residue_sequence_rejects_adjacent_zeros():
    with pytest.raises(InvariantError):
        dj.FibResidueSequence(n=4, terms=(0, 0, 1))


def test_no_adjacent_zero_residues_up_to_200():
    # vectorized over all frequencies a for each modulus
    for n in range(2, 201):
        base = np.asarray(_fib_residues(n), dtype=np.int64)
        a = np.arange(1, n, dtype=np.int64)
        b = (a[:, None] * base[None, :]) % n
        zeros = b == 0
        adjacent = zeros & np.roll(zeros, -1, axis=1)
        assert not adjacent.any(), n


# --- residue window property -------------------------------------------------------

def test_window_n2_direct():
    # residues 0,1,1,0,1,1,... and [n/3, 2n/3] = [2/3, 4/3] contains 1
    check = dj.check_residue_window(2, 1)
    assert check.holds
    assert check.worst_gap <= 2


def test_window_n3_period8():
    check = dj.check_residue_window(3, 1)
    assert check.holds
    assert check.worst_gap <= 2


def test_window_membership_is_exact_integer_arithmetic():
    # n = 9: window is [3, 6]; residue 3 must count (3*3 >= 9 exactly)
    seq = dj.fib_residue_sequence(9, 1)
    assert any(3 * b >= 9 and 3 * b <= 18 for b in seq.terms)
    assert dj.check_residue_window(9, 1).holds


def test_window_holds_for_moduli_up_to_60():
    for n in range(2, 61):
        for a in range(1, n):
            assert dj.check_residue_window(n, a).holds, (n, a)


def _window(n, a):
    check = dj.check_residue_window(n, a)
    return check.holds, check.worst_gap


def test_window_matches_searchsorted_form_everywhere():
    for n in range(2, 401):
        for a in range(1, n):
            assert _window(n, a) == residue_window_searchsorted(n, a), (n, a)


@pytest.fixture
def window_tables():
    _window_table.cache_clear()
    yield
    _window_table.cache_clear()


def test_window_rows_above_the_table_bound(window_tables, monkeypatch):
    # with a tiny block every modulus takes the one-row route
    monkeypatch.setattr(fibonacci, "_FACTOR_BLOCK", 64)
    for n in (7, 30, 97, 120):
        assert _window_table(n) is None
        for a in range(1, n):
            assert _window(n, a) == residue_window_searchsorted(n, a), (n, a)


def test_window_large_modulus_skips_the_table(window_tables):
    # (n - 1) rows of one Pisano period (1996 and 7500) plus two windows
    for n in (997, 1250):
        assert _window_table(n) is None
        for a in (1, 2, n // 2, n - 1):
            assert _window(n, a) == residue_window_searchsorted(n, a), (n, a)


def test_window_table_is_cached_and_read_only(window_tables):
    table = _window_table(50)
    assert table is _window_table(50)
    assert table.shape == (49,) and not table.flags.writeable


def test_window_length_bracket_at_22():
    m = dj.residue_window_length(22)
    assert 30.0 <= m <= 10.0 * math.log(22)


# --- mixing guarantee ----------------------------------------------------------------

def test_guarantee_at_c0():
    g = dj.mixing_guarantee(22, 0.0)
    assert g.tv_bound == pytest.approx(1.6)
    assert g.k == int(math.floor(5 * math.log(22) ** 2))


def test_guarantee_at_c2():
    g = dj.mixing_guarantee(30, 2.0)
    assert g.tv_bound == pytest.approx(1.6 * math.exp(-1.0))
    assert g.tv_bound == pytest.approx(0.5886, abs=1e-4)


def test_guarantee_rejects_non_finite_c():
    for c in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError):
            dj.mixing_guarantee(30, c)


def test_marginals_cap_checked_before_any_step():
    with pytest.raises(CapacityError, match="MARGINAL_ENTRY_CAP"):
        dj.fibonacci_walk_marginals(50, MARGINAL_ENTRY_CAP // 50 + 1)


def test_guarantee_requires_n22():
    with pytest.raises(ValueError):
        dj.mixing_guarantee(21, 0.0)
    with pytest.raises(ValueError):
        dj.mixing_guarantee(30, -1.0)


def test_guarantee_holds_at_n22():
    g = dj.mixing_guarantee(22, 0.0)
    tv = tv_to_uniform(dj.fibonacci_walk_marginals(22, g.k)[g.k - 1])
    assert tv <= g.tv_bound


def test_guarantee_holds_at_n257():
    # a prime modulus: the pair chain has 66049 joint states
    n = 257
    guarantees = [dj.mixing_guarantee(n, c) for c in (0.0, 1.0, 2.0, 3.0)]
    marginals = dj.fibonacci_walk_marginals(n, max(g.k for g in guarantees))
    for g in guarantees:
        tv = tv_to_uniform(marginals[g.k - 1])
        assert tv <= g.tv_bound, g
        assert tv <= dj.fourier_tv_bound(n, g.k) + 1e-9, g


# --- higher order register chains ----------------------------------------------------

def test_additive_register_chain_matches_pair_walk():
    base = dj.build_lazy_cycle_walk(5)
    spec = dj.higher_order_spec(base, 2, "additive")
    T = dj.build_higher_order_chain(spec)
    start = dj.Distribution.point_mass(1, 25)  # pair (0, 1)
    for k in (1, 7, 20):
        law = dj.evolve(T, start, k - 1)
        marginal = law.probs.reshape(5, 5).sum(axis=0)
        direct = dj.fibonacci_walk_marginals(5, k)[k - 1]
        assert np.max(np.abs(marginal - direct.probs)) <= 1e-12, k


def test_cubing_register_chain_is_doubly_stochastic():
    base = dj.build_lazy_cycle_walk(5)
    spec = dj.higher_order_spec(base, 2, "cubing")
    T = dj.build_higher_order_chain(spec)
    assert T.n == 25
    assert dj.validate(T).uniform_stationary


def test_squaring_update_rejected_with_witness():
    base = dj.build_lazy_cycle_walk(5)
    table = tuple((x * x + y) % 5 for x in range(5) for y in range(5))
    with pytest.raises(BijectionError) as err:
        dj.higher_order_spec(base, 2, table)
    msg = str(err.value)
    assert "2" in msg and "3" in msg  # 2^2 = 3^2 = 4 mod 5


def test_explicit_table_equals_builtin():
    base = dj.build_lazy_cycle_walk(3)
    table = tuple((x + y) % 3 for x in range(3) for y in range(3))
    a = dj.higher_order_spec(base, 2, "additive")
    b = dj.higher_order_spec(base, 2, table)
    assert np.array_equal(a.update, b.update)


def test_order_three_register_chain():
    base = dj.build_lazy_cycle_walk(3)
    spec = dj.higher_order_spec(base, 3, "additive")
    T = dj.build_higher_order_chain(spec)
    assert T.n == 27
    report = dj.validate(T)
    assert report.irreducible and report.uniform_stationary


def test_register_chain_is_irreducible_and_doubly_stochastic():
    # symmetric support and a positive diagonal are NOT promised for the
    # register chain (states with unequal coordinates cannot stand still),
    # but irreducibility and the uniform stationary law always hold.
    base = dj.build_lazy_cycle_walk(3)
    T = dj.build_higher_order_chain(dj.higher_order_spec(base, 2, "additive"))
    report = dj.validate(T)
    assert report.irreducible
    assert report.uniform_stationary
    assert not report.positive_diagonal  # e.g. state (0, 1) must shift


@pytest.mark.parametrize("n,r", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 3), (7, 2), (16, 3)])
def test_builtin_tables_match_loop_forms(n, r):
    assert tuple(fibonacci._additive_table(n, r).tolist()) == additive_table_loop(n, r)
    assert tuple(fibonacci._cubing_table(n, r).tolist()) == cubing_table_loop(n, r)


def _random_register_spec(data):
    """A random register spec: base kernel, order and update table from one draw."""
    n = data.draw(st.sampled_from([2, 3, 4, 5]), label="n")
    r = data.draw(st.integers(2, 3 if n <= 4 else 2), label="order")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="doubly_stochastic"):  # lazy mixture of permutation matrices, one of them a cycle
        w = rng.dirichlet(np.ones(3))
        eye = np.eye(n)
        a = w[0] * eye + w[1] * np.roll(eye, 1, axis=1) + w[2] * eye[rng.permutation(n)]
    else:  # lazy, irreducible through the cycle, rows normalized
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        a += 0.5 * np.eye(n) + 0.3 * np.roll(np.eye(n), 1, axis=1)
        a /= a.sum(axis=1, keepdims=True)
    kind = data.draw(st.sampled_from(["additive", "cubing", "random"]), label="update")
    if kind == "cubing":
        assume(n != 4)  # x -> x^3 is not a bijection mod 4
        update = kind
    elif kind == "random":  # a random bijection of x_1 for every tail
        pw = n ** (r - 1)
        table = np.empty(n**r, dtype=np.int64)
        for tail in range(pw):
            table[np.arange(n) * pw + tail] = rng.permutation(n)
        update = table.tolist()
    else:
        update = kind
    return dj.higher_order_spec(dj.TransitionMatrix(a), r, update)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_successor_route_matches_dense_route(data):
    spec = _random_register_spec(data)
    T = dj.build_higher_order_chain(spec)
    assert np.array_equal(T.entries,
                          register_matrix_loop(spec.base_kernel, spec.update,
                                               spec.base_n, spec.order))
    report = dj.verify_uniform_ergodicity(spec)
    assert (report.ergodic, report.uniform_stationary) == register_ergodicity_dense(T)


_EDGE_LISTS = st.integers(1, 7).flatmap(lambda states: st.tuples(
    st.just(states),
    st.lists(st.tuples(st.integers(0, states - 1), st.integers(0, states - 1)), max_size=16)))


@settings(max_examples=200, deadline=None)
@given(graph=_EDGE_LISTS)
def test_successor_period_matches_dense_route_on_random_digraphs(graph):
    states, edges = graph
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    supp = np.zeros((states, states), dtype=bool)
    supp[us, vs] = True
    assert _successor_period(states, us, vs) == dense_period(supp)


@pytest.mark.parametrize("states,edges,period", [
    (5, [(i, (i + 1) % 5) for i in range(5)], 5),            # one directed cycle
    (4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)], 2),  # bipartite: even cycles only
    (4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)], 1),          # cycles of length 3 and 4
    (3, [(0, 1), (1, 2)], 0),                                   # no way back to 0
    (3, [(0, 1), (1, 0), (0, 0)], 0),                           # state 2 unreachable
    (1, [], 1),
])
def test_successor_period_known_digraphs(states, edges, period):
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    assert _successor_period(states, us, vs) == period


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 4), r=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_bijection_witness_matches_loop_scan(n, r, seed):
    table = np.random.default_rng(seed).integers(0, n, size=n**r).tolist()
    expected = first_collision_loop(table, n, r)
    base = dj.build_lazy_cycle_walk(3) if n == 3 else dj.TransitionMatrix(np.full((n, n), 1 / n))
    if expected is None:
        assert dj.higher_order_spec(base, r, table).update.tolist() == table
        return
    with pytest.raises(BijectionError) as err:
        dj.higher_order_spec(base, r, table)
    first, second, tail = expected
    assert f"inputs {first} and {second} collide at tail {tail}" in str(err.value)


def test_register_cap_checked_before_any_table():
    base = dj.build_lazy_cycle_walk(16)
    with pytest.raises(CapacityError, match="REGISTER_STATE_CAP"):
        dj.higher_order_spec(base, 5, "additive")
    two = dj.TransitionMatrix(np.full((2, 2), 0.5))
    for order in (17, 40, 10**9):  # 2^17 is the first power of two over the cap
        t0 = time.monotonic()
        with pytest.raises(CapacityError):
            dj.higher_order_spec(two, order, "additive")
        assert time.monotonic() - t0 < 1.0
    with pytest.raises(CapacityError):
        dj.HigherOrderChainSpec(order=40, update=(), base_kernel=two)
    assert dj.higher_order_spec(two, 16, "additive").states == REGISTER_STATE_CAP


def test_verify_order_four_register_chain_at_the_cap():
    # 65,536 states: far over MATRIX_SIZE_CAP, decided on the successor table
    t0 = time.monotonic()
    spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(16), 4, "additive")
    report = dj.verify_uniform_ergodicity(spec)
    assert spec.states == REGISTER_STATE_CAP
    assert report.ergodic and report.uniform_stationary
    assert time.monotonic() - t0 < 5.0
    with pytest.raises(CapacityError, match="MATRIX_SIZE_CAP"):
        dj.build_higher_order_chain(spec)


def test_spec_rejects_out_of_range_table_values():
    base = dj.build_lazy_cycle_walk(3)
    for bad in (3, -1, 2**70):
        table = list(dj.higher_order_spec(base, 2, "additive").update)
        table[4] = bad
        with pytest.raises(ValueError, match="out of range"):
            dj.higher_order_spec(base, 2, table)


def test_spec_refuses_float_tables_at_construction():
    base = dj.build_lazy_cycle_walk(3)
    floats = [v + 0.5 for v in dj.higher_order_spec(base, 2, "additive").update.tolist()]
    with pytest.raises(ValueError, match="out of range"):
        dj.higher_order_spec(base, 2, floats)
    with pytest.raises(ValueError, match="out of range"):
        dj.HigherOrderChainSpec(order=2, update=floats, base_kernel=base)
    with pytest.raises(ValueError, match="out of range"):
        dj.higher_order_spec(base, 2, [True, False] * 4 + [True])


def test_spec_update_is_a_read_only_copy():
    base = dj.build_lazy_cycle_walk(3)
    table = np.array([(x + y) % 3 for x in range(3) for y in range(3)])
    spec = dj.HigherOrderChainSpec(order=2, update=table, base_kernel=base)
    table[0] = 1
    assert spec.update[0] == 0
    with pytest.raises(ValueError, match="read-only"):
        spec.update[0] = 1


def test_spec_validation_errors():
    base = dj.build_lazy_cycle_walk(3)
    with pytest.raises(ValueError):
        dj.higher_order_spec(base, 1, "additive")
    with pytest.raises(ValueError):
        dj.higher_order_spec(base, 2, "nope")
    with pytest.raises(ValueError):
        dj.HigherOrderChainSpec(order=2, update=(0,) * 8, base_kernel=base)
    with pytest.raises(CapacityError):
        dj.build_higher_order_chain(dj.higher_order_spec(dj.build_lazy_cycle_walk(17), 3,
                                                         "additive"))


def test_verify_fibonacci_register_z3():
    spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(3), 2, "additive")
    result = dj.verify_uniform_ergodicity(spec)
    assert result.ergodic
    assert result.uniform_stationary


def test_verify_cubing_register_z5():
    spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(5), 2, "cubing")
    result = dj.verify_uniform_ergodicity(spec)
    assert result.ergodic
    assert result.uniform_stationary


def test_verify_rejects_nonlazy_base():
    a = np.zeros((4, 4))
    idx = np.arange(4)
    a[idx, (idx + 1) % 4] = 0.5
    a[idx, (idx - 1) % 4] = 0.5
    nonlazy = dj.TransitionMatrix(a)
    spec = dj.higher_order_spec(nonlazy, 2, "additive")
    with pytest.raises(ValueError, match="lazy"):
        dj.verify_uniform_ergodicity(spec)


def test_verify_rejects_reducible_base():
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    a = np.zeros((4, 4))
    a[:2, :2] = half
    a[2:, 2:] = half
    block = dj.TransitionMatrix(a)
    spec = dj.higher_order_spec(block, 2, "additive")
    with pytest.raises(ValueError, match="irreducible"):
        dj.verify_uniform_ergodicity(spec)
