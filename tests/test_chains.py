import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import chains
from detjump.errors import BijectionError, CapacityError, StructureError
from oracles import dense_period, reachable_dense


def plain_cycle(n):
    """Non-lazy cycle walk: 1/2 left, 1/2 right. Zero diagonal on purpose."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 0.5
    a[idx, (idx - 1) % n] = 0.5
    return dj.TransitionMatrix(a)


# --- validation -------------------------------------------------------------

def test_lazy_cycle_passes_all_assumptions():
    report = dj.validate(dj.build_lazy_cycle_walk(5))
    assert report.ok
    assert report.aperiodic
    assert report.violations == {}


def test_zero_diagonal_fails_positive_diagonal_at_zero():
    report = dj.validate(plain_cycle(5))
    assert not report.positive_diagonal
    assert report.violations["positive_diagonal"] == (0, 0)
    # the chain is otherwise fine
    assert report.irreducible and report.symmetric_support and report.uniform_stationary


def test_block_diagonal_fails_irreducibility():
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    a = np.zeros((4, 4))
    a[:2, :2] = half
    a[2:, 2:] = half
    report = dj.validate(dj.TransitionMatrix(a))
    assert not report.irreducible
    i, j = report.violations["irreducible"]
    assert i == 0 and j in (2, 3)


def test_asymmetric_support_detected():
    a = np.array([
        [0.5, 0.5, 0.0],
        [0.25, 0.5, 0.25],
        [0.25, 0.0, 0.75],
    ])
    report = dj.validate(dj.TransitionMatrix(a))
    assert not report.symmetric_support
    assert report.violations["symmetric_support"] == (0, 2)


def test_structural_errors_are_not_assumption_failures():
    with pytest.raises(StructureError):
        dj.TransitionMatrix(np.ones((2, 3)))
    with pytest.raises(StructureError):
        dj.TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(StructureError):
        dj.TransitionMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))


# Each malformed matrix with its full message: the check reads one min/max
# pair, so these pin that every failure still names its kind and entry.
_MALFORMED = [
    ([[np.nan, 1.0], [0.5, 0.5]], "transition matrix contains non-finite entries"),
    ([[np.inf, 0.0], [0.5, 0.5]], "transition matrix contains non-finite entries"),
    ([[-np.inf, 1.0], [0.5, 0.5]], "transition matrix contains non-finite entries"),
    ([[-0.1, 1.1], [0.5, 0.5]], "entry out of [0, 1] at (0, 0): -0.1"),
    ([[0.5, 0.5], [0.0, 1.5]], "entry out of [0, 1] at (1, 1): 1.5"),
    ([[0.5, 0.5], [0.6, 0.6]], "row 1 sums to 1.2, expected 1 within 1e-09"),
]


@pytest.mark.parametrize("rows, message", _MALFORMED)
def test_malformed_matrices_are_named_with_plain_floats(tmp_path, rows, message):
    with pytest.raises(StructureError) as given_array:
        dj.TransitionMatrix(np.array(rows))
    path = tmp_path / "bad.csv"
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    with pytest.raises(StructureError) as loaded:
        dj.load_matrix_csv(path)
    assert str(given_array.value) == str(loaded.value) == message


def test_a_callers_array_is_copied():
    a = np.full((3, 3), 1.0 / 3.0)
    P = dj.TransitionMatrix(a)
    a[0] = [1.0, 0.0, 0.0]
    assert np.all(P.entries == 1.0 / 3.0)
    assert not P.entries.flags.writeable and a.flags.writeable


def _built_matrices(tmp_path):
    P = dj.build_lazy_cycle_walk(7)
    path = tmp_path / "m.csv"
    dj.save_matrix_csv(path, P)
    spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(3), order=2)
    return {
        "lazy_cycle": P,
        "hypercube": dj.build_hypercube_walk(3),
        "compose": dj.compose(dj.doubling_permutation(7), P),
        "load_matrix_csv": dj.load_matrix_csv(path),
        "symmetrized_kernel": dj.symmetrized_kernel(P, dj.doubling_permutation(7)),
        "register_chain": dj.build_higher_order_chain(spec),
    }


def test_built_matrices_are_taken_over_read_only(tmp_path):
    for name, P in _built_matrices(tmp_path).items():
        assert P.entries.dtype == np.float64 and P.entries.flags.c_contiguous, name
        assert not P.entries.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            P.entries[0, 0] = 0.5


# --- builders ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), symmetric=st.booleans(), data=st.data())
def test_irreducibility_pairs_match_the_dense_reachability_oracle(n, symmetric, data):
    supp = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=bool)
    if symmetric:  # where the backward search is skipped
        supp |= supp.T
    supp[np.arange(n), np.arange(n)] |= ~supp.any(axis=1)  # every row needs an entry
    report = dj.validate(dj.TransitionMatrix(supp / supp.sum(axis=1, keepdims=True)))
    one_sided = np.argwhere(supp != supp.T)
    assert report.symmetric_support == (one_sided.size == 0)
    if one_sided.size:
        assert report.violations["symmetric_support"] == tuple(int(v) for v in one_sided[0])
    else:
        assert "symmetric_support" not in report.violations
    fwd, bwd = reachable_dense(supp, 0), reachable_dense(supp.T, 0)
    assert report.irreducible == bool(fwd.all() and bwd.all())
    if not fwd.all():
        assert report.violations["irreducible"] == (0, int(np.flatnonzero(~fwd)[0]))
    elif not bwd.all():
        assert report.violations["irreducible"] == (int(np.flatnonzero(~bwd)[0]), 0)
    else:
        assert "irreducible" not in report.violations


@pytest.mark.parametrize("rows,aperiodic", [
    ([[0, .5, .5], [.5, 0, .5], [.5, .5, 0]], True),  # triangle: cycles of length 2 and 3
    ([[0, 1], [1, 0]], False),                        # flip: period 2
    ([[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]], False),  # even cycle
    ([[1 / 3, 1 / 3, 1 / 3]] * 3, True),               # lazy
    ([[.5, .5, 0], [.5, .5, 0], [0, 0, 1]], False),    # lazy but reducible
])
def test_aperiodic_is_read_from_the_exact_period(rows, aperiodic):
    report = dj.validate(dj.TransitionMatrix(np.array(rows, dtype=float)))
    assert report.aperiodic is aperiodic


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), lazy=st.booleans(), data=st.data())
def test_aperiodic_matches_the_dense_period_oracle(n, lazy, data):
    supp = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=bool)
    supp[np.arange(n), np.arange(n)] = lazy
    supp[np.arange(n), (np.arange(n) + 1) % n] |= ~supp.any(axis=1)  # every row needs an entry
    report = dj.validate(dj.TransitionMatrix(supp / supp.sum(axis=1, keepdims=True)))
    assert report.aperiodic == (dense_period(supp) == 1)


def test_lazy_cycle_n3_is_all_thirds():
    P = dj.build_lazy_cycle_walk(3)
    assert np.allclose(P.entries, 1.0 / 3.0)


def test_lazy_cycle_delta_is_one_third():
    assert dj.min_positive_entry(dj.build_lazy_cycle_walk(5)) == pytest.approx(1 / 3)


def test_lazy_cycle_column_sums_are_one():
    P = dj.build_lazy_cycle_walk(5)
    assert np.allclose(P.entries.sum(axis=0), 1.0, atol=1e-12)


def test_lazy_cycle_rejects_small_n():
    with pytest.raises(ValueError):
        dj.build_lazy_cycle_walk(2)


def test_hypercube_d1_is_all_halves():
    P = dj.build_hypercube_walk(1)
    assert np.allclose(P.entries, 0.5)


def test_hypercube_d3_delta_and_row_support():
    P = dj.build_hypercube_walk(3)
    assert dj.min_positive_entry(P) == pytest.approx(0.25)
    assert np.all((P.entries > 0).sum(axis=1) == 4)


def test_hypercube_d2_doubly_stochastic_and_symmetric():
    P = dj.build_hypercube_walk(2)
    assert dj.validate(P).uniform_stationary
    assert np.array_equal(P.entries, P.entries.T)


def test_hypercube_capacity_error():
    # the boundary moved from d = 12 (MATRIX_SIZE_CAP) to d = 19, the last rows table of
    # 2^d x (d + 1) entries under MEMORY_CAP
    with pytest.raises(CapacityError, match="hypercube walk: estimated memory .* make d smaller"):
        dj.build_hypercube_walk(20)


@pytest.mark.parametrize("build,size", [
    (dj.build_lazy_cycle_walk, 10**7),    # a rows table over MEMORY_CAP
    (dj.build_lazy_cycle_walk, 10**12),   # and over WORK_CAP
    (dj.build_hypercube_walk, 10**20),    # 2^d itself too large to compute
])
def test_builders_check_the_cap_before_allocating(build, size, allocation_peak):
    with allocation_peak() as peak:
        with pytest.raises(CapacityError, match="over (WORK|MEMORY)_CAP"):
            build(size)
    assert peak.bytes < 1 << 20


def test_builders_pass_validation():
    for P in (dj.build_lazy_cycle_walk(3), dj.build_lazy_cycle_walk(9),
              dj.build_hypercube_walk(1), dj.build_hypercube_walk(4)):
        assert dj.validate(P).ok


def test_min_positive_entry_custom_matrix():
    a = np.array([
        [0.5, 0.3, 0.2],
        [0.3, 0.2, 0.5],
        [0.2, 0.5, 0.3],
    ])
    assert dj.min_positive_entry(dj.TransitionMatrix(a)) == pytest.approx(0.2)


# --- composition ------------------------------------------------------------

def test_compose_with_identity_is_noop():
    P = dj.build_lazy_cycle_walk(7)
    Q = dj.compose(dj.identity_permutation(7), P)
    assert np.array_equal(Q.entries, P.entries)


def test_compose_doubling_permutes_rows():
    P = dj.build_lazy_cycle_walk(5)
    Q = dj.compose(dj.doubling_permutation(5), P)
    for i in range(5):
        assert np.array_equal(Q.entries[i], P.entries[(2 * i) % 5])


def test_compose_preserves_double_stochasticity():
    # 100 seeded bijections at each size
    for n in (5, 8, 16):
        P = dj.build_lazy_cycle_walk(n)
        for seed in range(100):
            Q = dj.compose(dj.random_permutation(n, seed), P)
            assert np.all(np.abs(Q.entries.sum(axis=0) - 1.0) <= 1e-9)


def test_compose_dimension_mismatch():
    with pytest.raises(StructureError):
        dj.compose(dj.identity_permutation(4), dj.build_lazy_cycle_walk(5))


# --- permutation builders ---------------------------------------------------

def test_doubling_n5():
    assert dj.doubling_permutation(5).forward.tolist() == [0, 2, 4, 1, 3]


def test_cubing_n5_by_enumeration():
    f = dj.cubing_permutation(5)
    assert f.forward.tolist() == [pow(i, 3, 5) for i in range(5)]
    assert f.forward.tolist() == [0, 1, 3, 2, 4]
    assert sorted(f.forward) == list(range(5))


def test_cubing_rejects_n7():
    # gcd(3, 6) = 3, so cubing folds the residues
    with pytest.raises(BijectionError):
        dj.cubing_permutation(7)


def test_cubing_rejects_composite():
    with pytest.raises(BijectionError):
        dj.cubing_permutation(15)


def test_affine_requires_coprime_multiplier():
    with pytest.raises(BijectionError):
        dj.affine_permutation(12, 2)
    f = dj.affine_permutation(12, 5)
    assert sorted(f.forward) == list(range(12))
    for a in (5 + 12 * 2**70, -7):  # both are 5 mod 12
        assert np.array_equal(dj.affine_permutation(12, a).forward, f.forward)


def test_inversion_inverts():
    f = dj.inversion_permutation(11)
    assert f.forward[0] == 0
    for j in range(1, 11):
        assert (j * f.forward[j]) % 11 == 1
    with pytest.raises(BijectionError):
        dj.inversion_permutation(10)


def test_random_permutation_reproducible():
    a = dj.random_permutation(30, 12345)
    b = dj.random_permutation(30, 12345)
    c = dj.random_permutation(30, 12346)
    assert np.array_equal(a.forward, b.forward)
    assert not np.array_equal(a.forward, c.forward)


def _scalar_fisher_yates(n, seed):
    """The reference draw: one scalar rng.integers call per swap."""
    rng = np.random.Generator(np.random.Philox(seed))
    fwd = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        fwd[i], fwd[j] = fwd[j], fwd[i]
    return tuple(fwd)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 100, 255, 256, 257, 1000, 1024, 4096])
def test_random_permutation_draws_the_scalar_loops_stream(n):
    for seed in [*range(29), 2**31, 2**32 + 5, 2**63, 2**64 - 1]:
        f = dj.random_permutation(n, seed)
        assert np.array_equal(f.forward, _scalar_fisher_yates(n, seed))


def test_random_permutation_uniformity_five_sigma():
    # 10000 consecutive seeds over the 720 permutations of 6 points
    from collections import Counter

    trials = 10_000
    counts = Counter(tuple(dj.random_permutation(6, seed).forward.tolist())
                     for seed in range(trials))
    assert len(counts) <= 720
    p = 1.0 / 720.0
    sigma = (p * (1 - p) / trials) ** 0.5
    for perm, count in counts.items():
        assert abs(count / trials - p) <= 5 * sigma, (perm, count)


@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_permutation_inverse_property(n, seed):
    f = dj.random_permutation(n, seed)
    assert all(f.inverse[f.forward[i]] == i for i in range(n))
    assert all(f.forward[f.inverse[i]] == i for i in range(n))


def test_explicit_permutation_rejects_non_bijections():
    with pytest.raises(BijectionError):
        dj.build_permutation("explicit", 3, values=[0, 0, 1])
    with pytest.raises(BijectionError):
        dj.build_permutation("explicit", 3, values=[0, 1, 3])
    with pytest.raises(BijectionError):
        dj.build_permutation("explicit", 4, values=[0, 1, 2])


@pytest.mark.parametrize("values", [(1.9, 0.2), [True, False], [[0, 1]], [2**70, 0], ["1", "0"]])
def test_permutation_refuses_entries_that_are_not_integers_in_range(values):
    with pytest.raises(BijectionError):
        dj.Permutation(values)
    with pytest.raises(BijectionError):
        dj.build_permutation("explicit", len(values), values=values)


def test_permutation_arrays_are_read_only_copies():
    values = np.array([2, 0, 1])
    f = dj.Permutation(values)
    values[0] = 1
    assert f.forward.tolist() == [2, 0, 1] and f.inverse.tolist() == [1, 2, 0]
    for a in (f.forward, f.inverse):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_build_permutation_dispatch():
    assert dj.build_permutation("identity", 4).forward.tolist() == [0, 1, 2, 3]
    assert dj.build_permutation("doubling", 5).forward.tolist() == [0, 2, 4, 1, 3]
    assert dj.build_permutation("affine", 5, a=3).forward.tolist() == [0, 3, 1, 4, 2]
    assert np.array_equal(dj.build_permutation("random", 5, seed=0).forward,
                          dj.random_permutation(5, 0).forward)
    with pytest.raises(ValueError):
        dj.build_permutation("random", 5)
    with pytest.raises(ValueError, match="unknown permutation kind 'nope'"):
        dj.build_permutation("nope", 5, a=3)
    # a parameter the kind does not take is refused, not ignored
    for kind, params, name in [("identity", {"a": 3, "seed": 9}, "a"),
                               ("identity", {"seed": 9}, "seed"),
                               ("affine", {"a": 3, "seed": 9}, "seed"),
                               ("random", {"seed": 1, "values": [0, 1, 2, 3, 4]}, "values")]:
        with pytest.raises(ValueError, match=f"takes no parameter {name}"):
            dj.build_permutation(kind, 5, **params)


# --- file formats -----------------------------------------------------------

def test_matrix_csv_roundtrip_and_validation(tmp_path):
    P = dj.build_lazy_cycle_walk(6)
    path = tmp_path / "m.csv"
    dj.save_matrix_csv(path, P)
    loaded = dj.load_matrix_csv(path)
    report = dj.validate(loaded)
    assert np.array_equal(loaded.entries, P.entries)
    assert report.ok


def _lazy_kernel_rows(n, seed):
    """Rows {column: weight} of I/3 + (C + C^T)/6 + (D + D^T)/6, C a random n-cycle, D a
    random permutation: a sparse doubly stochastic file chain with sums such as 1/6 + 1/6."""
    rng = np.random.default_rng(seed)
    order, perm = rng.permutation(n).tolist(), rng.permutation(n).tolist()
    rows = [{i: 1.0 / 3.0} for i in range(n)]
    for i, j in [(order[k], order[(k + 1) % n]) for k in range(n)] + list(enumerate(perm)):
        rows[i][j] = rows[i].get(j, 0.0) + 1.0 / 6.0
        rows[j][i] = rows[j].get(i, 0.0) + 1.0 / 6.0
    return rows


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            cells = ["0.0"] * len(rows)
            for j, v in row.items():
                cells[j] = repr(v)
            fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("label, rows", [
    ("generated 1024-state file chain", _lazy_kernel_rows(1024, 3)),
    # the least subnormal and the largest double below 1 round-trip as written
    ("extreme entries", [{0: 1 - 2.0**-53, 1: 5e-324, 2: 2.0**-53},
                         {1: 1 - 2.0**-53, 2: 2.0**-53},
                         {0: 2.0**-53, 1: 0.1, 2: 1 - 0.1 - 2.0**-53}]),
])
def test_saving_a_loaded_matrix_reproduces_its_file(tmp_path, label, rows):
    given_file, saved = tmp_path / "given.csv", tmp_path / "saved.csv"
    _write_rows(given_file, rows)
    P = dj.load_matrix_csv(given_file)
    dj.save_matrix_csv(saved, P)
    assert saved.read_bytes() == given_file.read_bytes(), label
    # each row written from the rows table is the dense row, absent entries as 0.0
    dense = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in P.entries)
    assert saved.read_text(encoding="utf-8") == dense, label


def test_built_chains_are_rows_tables_in_increasing_column_order(tmp_path):
    for name, P in _built_matrices(tmp_path).items():
        cols, weights = P.rows
        assert cols.shape == weights.shape and cols.shape[0] == P.n, name
        assert not cols.flags.writeable and not weights.flags.writeable, name
        nonzero = weights != 0
        # a row's nonzeros come first, in increasing column order, then (0, 0.0)
        assert np.all(nonzero[:, :-1] | ~nonzero[:, 1:]), name
        assert np.all(np.where(nonzero, 0, cols) == 0), name
        for i in range(P.n):
            assert np.array_equal(cols[i][nonzero[i]], np.flatnonzero(P.entries[i])), name
            assert np.array_equal(weights[i][nonzero[i]], P.entries[i][P.entries[i] != 0]), name
    assert _built_matrices(tmp_path)["lazy_cycle"].rows[0].shape == (7, 3)
    assert dj.build_hypercube_walk(10).rows[0].shape == (1024, 11)


def test_the_dense_array_is_built_on_each_access_and_not_kept():
    P = dj.build_lazy_cycle_walk(64)
    a, b = P.entries, P.entries
    assert a is not b and np.array_equal(a, b)
    R = dj.symmetrized_kernel(P, dj.random_permutation(64, 1))
    assert R.entries is R.entries  # the kernel's stored form is its dense array
    cols, weights = R.rows
    assert np.array_equal(dj.TransitionMatrix(R.entries).rows[0], cols)


def test_loader_reports_assumption_failures(tmp_path):
    path = tmp_path / "m.csv"
    dj.save_matrix_csv(path, plain_cycle(5))
    report = dj.validate(dj.load_matrix_csv(path))
    assert not report.ok
    assert not report.positive_diagonal


def test_loading_a_matrix_holds_one_copy_of_it(tmp_path, allocation_peak):
    n = 512
    path = tmp_path / "m.csv"
    dj.save_matrix_csv(path, dj.build_lazy_cycle_walk(n))
    with allocation_peak() as peak:
        P = dj.load_matrix_csv(path)
        report = dj.validate(P)
    assert report.ok and P.n == n
    assert peak.bytes <= 1.5 * n * n * 8


def test_file_chains_load_in_row_blocks_without_an_n_by_n_array(tmp_path, allocation_peak):
    n = 1024
    path = tmp_path / "m.csv"
    P = dj.compose(dj.random_permutation(n, 3), dj.build_lazy_cycle_walk(n))
    dj.save_matrix_csv(path, P)
    with allocation_peak() as peak:
        Q = dj.load_matrix_csv(path)
    # the rows table and one block of 2^14 parsed entries; an n x n array is 8 MiB
    assert peak.bytes < 1 << 20
    assert all(np.array_equal(a, b) for a, b in zip(Q.rows, P.rows))


@pytest.mark.parametrize("text, message", [
    ("1,0\n0,1\n0.5\n", "the number of columns changed from 2 to 1 at row 3"),
    ("1,0\n0,1\n0.5,x\n", "could not convert string 'x' to float64 at row 2, column 2."),
    ("1,0\n0,1,0\n", "the number of columns changed from 2 to 3 at row 2"),
])
def test_a_malformed_row_is_named_by_its_row_in_the_file(tmp_path, monkeypatch, text, message):
    # the messages of a whole-file parse, whichever block of rows the bad row falls in
    path = tmp_path / "bad.csv"
    path.write_text(text)
    for block in (2, 4, chains._CSV_BLOCK):
        monkeypatch.setattr(chains, "_CSV_BLOCK", block)
        with pytest.raises(StructureError) as err:
            dj.load_matrix_csv(path)
        assert str(err.value).startswith(f"malformed matrix CSV {path}: {message}")


def test_loader_rejects_malformed_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5\n0.25,0.5\n")  # ragged / non-square
    with pytest.raises(StructureError):
        dj.load_matrix_csv(path)
    with pytest.raises(StructureError):
        dj.load_matrix_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"])
def test_loader_refuses_a_file_with_no_rows_without_a_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match="holds no rows"):
            dj.load_matrix_csv(path)


def test_permutation_file_roundtrip(tmp_path):
    f = dj.random_permutation(9, 4)
    path = tmp_path / "perm.txt"
    dj.save_permutation(path, f)
    assert np.array_equal(dj.load_permutation(path).forward, f.forward)
    (tmp_path / "bad.txt").write_text("0 1 junk\n")
    with pytest.raises(StructureError):
        dj.load_permutation(tmp_path / "bad.txt")
