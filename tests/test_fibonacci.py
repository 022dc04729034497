import math

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detjump as dj
from detjump import fibonacci
from detjump.chains import MEMORY_CAP
from detjump.cli import main
from detjump.errors import BijectionError, CapacityError, StructureError
from detjump.fibonacci import (
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


def tv_to_uniform(laws):
    n = laws.shape[-1]
    return dj.tv_distance(laws, np.full(n, 1.0 / n))


# --- exact walk distribution --------------------------------------------------

def test_walk_k1_is_point_mass_at_one():
    d = dj.fibonacci_walk_marginals(9, 1)[0]
    assert d[1] == 1.0 and d.sum() == 1.0


def test_walk_k2_spreads_over_three_values():
    d = dj.fibonacci_walk_marginals(7, 2)[1]
    assert np.allclose(d[[0, 1, 2]], 1 / 3)
    assert d[3:].sum() == 0.0


def test_walk_marginals_are_one_read_only_array():
    laws = dj.fibonacci_walk_marginals(11, 25)
    assert laws.shape == (25, 11) and laws.dtype == np.float64
    assert not laws.flags.writeable
    with pytest.raises(ValueError):
        laws[0, 0] = 0.5


def _spoil_third_step(spoil):
    """A pair step that hands ``spoil`` the joint law of its third call."""
    calls = []

    def step(joint, index):
        calls.append(None)
        joint = _pair_step(joint, index)
        return spoil(joint) if len(calls) == 3 else joint
    return step


def _shift_mass(joint):
    joint = joint.copy()
    joint[:, 0] -= 0.5
    joint[:, 1] += 0.5
    return joint


@pytest.mark.parametrize("spoil, message", [
    (lambda joint: joint + np.nan, "marginal array contains non-finite entries"),
    (lambda joint: joint + np.inf, "marginal array contains non-finite entries"),
    (_shift_mass, "entry out of [0, 1] at (3, 0): "),
    (lambda joint: joint / 2, "row 3 sums to 0.5, expected 1 within 1e-12"),
], ids=["nan", "inf", "negative", "lost-mass"])
def test_walk_marginal_rows_name_what_failed(spoil, message, monkeypatch):
    # every row of the returned array is checked: a step that spoils the law
    # of X_4 is refused, naming row 3 where one can be named
    monkeypatch.setattr(fibonacci, "_pair_step", _spoil_third_step(spoil))
    with pytest.raises(StructureError) as err:
        dj.fibonacci_walk_marginals(7, 4)
    assert str(err.value).startswith(message)


def test_walk_argument_validation():
    with pytest.raises(ValueError):
        dj.fibonacci_walk_marginals(1, 3)
    with pytest.raises(ValueError):
        dj.fibonacci_walk_marginals(5, 0)
    with pytest.raises(CapacityError, match="make kmax or n smaller"):
        dj.fibonacci_walk_marginals(6000, 3)  # the joint law and its gathers, over MEMORY_CAP


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
        tvs = tv_to_uniform(dj.fibonacci_walk_marginals(n, 60))
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:])), n


# float.hex of the tv_exact column and of the guarantee line's tv_at_k written by
# `detjump fibonacci --n N --kmax K --c C`, keyed by (N, K, C), frozen while each
# distance was taken by its own call. The Fourier column is left out, since np.cos
# may round differently on another CPU.
_EXACT_TV_GOLDEN = {
    (50, 120, 0.0): (
        (
            "0x1.f5c28f5c28f5dp-1", "0x1.e147ae147ae16p-1", "0x1.ccccccccccccdp-1",
            "0x1.a3d70a3d70a3cp-1", "0x1.6e3cef2fa905ep-1", "0x1.1ff12ab00f81fp-1",
            "0x1.6dea3a4b2646ep-2", "0x1.aecd12524dcf0p-4", "0x1.a62c5d9359ce8p-6",
            "0x1.ee1bd69ea0cf4p-9", "0x1.87de5eb2efec0p-9", "0x1.c70aafccbd0b8p-10",
            "0x1.079f91b8afed0p-11", "0x1.d32c435fedd80p-14", "0x1.16e5abead4300p-15",
            "0x1.3042006b7e400p-16", "0x1.17a43daea2200p-16", "0x1.a37ead0c07000p-17",
            "0x1.7ffc1b0e3f400p-17", "0x1.61be56ebb3800p-18", "0x1.68d5fd71d0000p-21",
            "0x1.efe55cbea0000p-23", "0x1.26d7614910000p-23", "0x1.8f19240500000p-27",
            "0x1.8f19241d00000p-27", "0x1.0a10c2da00000p-28", "0x1.62c1032800000p-30",
            "0x1.62c1044800000p-30", "0x1.d9015ac000000p-32", "0x1.3b563d8000000p-33",
            "0x1.3b563d0000000p-33", "0x1.a472fa0000000p-35", "0x1.184cd60000000p-36",
            "0x1.184cd20000000p-36", "0x1.75bbb00000000p-38", "0x1.f250c00000000p-40",
            "0x1.f24f000000000p-40", "0x1.4c35c00000000p-41", "0x1.bb03000000000p-43",
            "0x1.baf1000000000p-43", "0x1.276e000000000p-44", "0x1.89d0000000000p-46",
            "0x1.8a30000000000p-46", "0x1.0790000000000p-47", "0x1.5d00000000000p-49",
            "0x1.5e40000000000p-49", "0x1.dd00000000000p-51", "0x1.2400000000000p-52",
            "0x1.3400000000000p-52", "0x1.3000000000000p-53", "0x1.d800000000000p-54",
            "0x1.c800000000000p-54", "0x1.f000000000000p-54", "0x1.8800000000000p-54",
            "0x1.6000000000000p-54", "0x1.2000000000000p-54", "0x1.a800000000000p-54",
            "0x1.5000000000000p-54", "0x1.5000000000000p-54", "0x1.2c00000000000p-53",
            "0x1.b800000000000p-54", "0x1.3400000000000p-53", "0x1.1c00000000000p-53",
            "0x1.0000000000000p-54", "0x1.f000000000000p-55", "0x1.9000000000000p-54",
            "0x1.3800000000000p-54", "0x1.c000000000000p-53", "0x1.1000000000000p-55",
            "0x1.0000000000000p-57", "0x1.0000000000000p-59", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"
        ),
        "0x0.0p+0",
    ),
    (200, 200, 1.0): (
        (
            "0x1.fd70a3d70a3d2p-1", "0x1.f851eb851eb84p-1", "0x1.f333333333334p-1",
            "0x1.e8f5c28f5c290p-1", "0x1.d99999999999bp-1", "0x1.c0e7f027c7b38p-1",
            "0x1.9d10e5ea570fap-1", "0x1.6616fd5ac3c36p-1", "0x1.160bed5a30baap-1",
            "0x1.5162466473c36p-2", "0x1.3b25e15c803d2p-4", "0x1.6e50117a3c9f2p-6",
            "0x1.79add96f80c9cp-8", "0x1.0a2b1b56afcdcp-8", "0x1.a979514fd6c9fp-9",
            "0x1.7cde6c9633600p-9", "0x1.4d40c7b40e376p-9", "0x1.34e9bd63ffabcp-9",
            "0x1.1a9d30bb6ccb6p-9", "0x1.f3ab5aaa9a53ep-10", "0x1.3dd941656f05ap-10",
            "0x1.3e37e1bef2b20p-12", "0x1.748ca6c172f60p-14", "0x1.2c441621ec400p-16",
            "0x1.9cdcbddd3dd00p-17", "0x1.3acdf8378a000p-17", "0x1.32a270fb50900p-17",
            "0x1.12b2baf746500p-17", "0x1.0809467139f00p-17", "0x1.87b96571f1200p-18",
            "0x1.a68b21cc3fc00p-19", "0x1.17f42ee7dc000p-23", "0x1.57181a1d20000p-25",
            "0x1.22c235e4d0000p-25", "0x1.44a20b72c0000p-27", "0x1.5cdf35a000000p-32",
            "0x1.dffc0e8000000p-34", "0x1.b28a7f4000000p-34", "0x1.32e8162000000p-34",
            "0x1.1f4dce8000000p-34", "0x1.f6be2f8000000p-36", "0x1.2834660000000p-38",
            "0x1.84fa600000000p-40", "0x1.d15bb00000000p-41", "0x1.7c98000000000p-48",
            "0x1.1bb8000000000p-48", "0x1.7ae0000000000p-50", "0x1.7d00000000000p-52",
            "0x1.6280000000000p-52", "0x1.9c00000000000p-53", "0x1.9800000000000p-53",
            "0x1.a000000000000p-53", "0x1.9200000000000p-53", "0x1.9700000000000p-53",
            "0x1.8b00000000000p-53", "0x1.7900000000000p-53", "0x1.5a00000000000p-53",
            "0x1.9600000000000p-53", "0x1.6500000000000p-53", "0x1.af00000000000p-53",
            "0x1.7c00000000000p-53", "0x1.4d00000000000p-53", "0x1.7f00000000000p-53",
            "0x1.9900000000000p-53", "0x1.8000000000000p-53", "0x1.7800000000000p-53",
            "0x1.8000000000000p-53", "0x1.9200000000000p-53", "0x1.8a00000000000p-53",
            "0x1.8200000000000p-53", "0x1.5c00000000000p-53", "0x1.6e00000000000p-52",
            "0x1.4280000000000p-51", "0x1.df00000000000p-53", "0x1.4d00000000000p-52",
            "0x1.0d00000000000p-53", "0x1.1080000000000p-52", "0x1.8900000000000p-52",
            "0x1.54c0000000000p-51", "0x1.0920000000000p-50", "0x1.5180000000000p-50",
            "0x1.f820000000000p-50", "0x1.da80000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50", "0x1.db00000000000p-50",
            "0x1.db00000000000p-50", "0x1.db00000000000p-50"
        ),
        "0x1.db00000000000p-50",
    ),
}


@pytest.mark.parametrize("n, kmax, c", sorted(_EXACT_TV_GOLDEN))
def test_fibonacci_exact_distances_match_the_golden(n, kmax, c, tmp_path):
    out = tmp_path / "fib.csv"
    assert main(["fibonacci", "--n", str(n), "--kmax", str(kmax), "--c", str(c),
                 "--out", str(out)]) == 0
    *rows, summary = out.read_text().splitlines()[1:]
    tv_exact, tv_at_k = _EXACT_TV_GOLDEN[n, kmax, c]
    assert tuple(float(row.split(",")[1]).hex() for row in rows) == tv_exact
    assert float(summary.rsplit("tv_at_k=", 1)[1]).hex() == tv_at_k


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
    assert _fib_residues(3).tolist() == [0, 1, 1, 2, 0, 2, 2, 1]


def test_residue_sequence_scaled_period_divides():
    # 5 * F_k mod 10 repeats with the period of F_k mod 10 / gcd(5, 10)
    period = len(_fib_residues(10 // math.gcd(5, 10)))
    terms = 5 * _fib_residues(10) % 10
    assert terms.size % period == 0
    assert np.array_equal(terms, np.resize(terms[:period], terms.size))
    assert terms[1] == 5


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
    assert any(3 * b >= 9 and 3 * b <= 18 for b in _fib_residues(9).tolist())
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


def test_marginals_cap_checked_before_any_step(monkeypatch):
    def never(n):
        raise AssertionError("a step was prepared")

    monkeypatch.setattr(fibonacci, "_pair_index", never)
    # the boundary moved from n * k_max = 2^22 (MARGINAL_ENTRY_CAP) to the stored laws
    # and the five n^2 arrays beside them reaching MEMORY_CAP
    with pytest.raises(CapacityError, match="estimated memory .* MEMORY_CAP"):
        dj.fibonacci_walk_marginals(50, MEMORY_CAP // 400)
    with pytest.raises(CapacityError, match="estimated work .* WORK_CAP"):
        dj.fibonacci_walk_marginals(1000, 10**4)


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
    law = np.zeros(25)
    law[1] = 1.0  # pair (0, 1)
    direct = dj.fibonacci_walk_marginals(5, 20)
    for k in range(1, 21):
        marginal = law.reshape(5, 5).sum(axis=0)
        assert np.max(np.abs(marginal - direct[k - 1])) <= 1e-12, k
        law = law @ T.entries


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
    with pytest.raises(CapacityError, match=r"16\^6 register states: .* make order"):
        dj.higher_order_spec(base, 6, "additive")
    two = dj.TransitionMatrix(np.full((2, 2), 0.5))
    # the boundary moved from 2^16 states (REGISTER_STATE_CAP) to 2^22, the last
    # n^order x (w + 1) table under MEMORY_CAP
    assert fibonacci._register_states(two, 22) == 1 << 22
    for order in (23, 40, 10**9):
        t0 = time.monotonic()
        with pytest.raises(CapacityError):
            dj.higher_order_spec(two, order, "additive")
        assert time.monotonic() - t0 < 1.0
    with pytest.raises(CapacityError):
        dj.HigherOrderChainSpec(order=40, update=(), base_kernel=two)
    assert dj.higher_order_spec(two, 16, "additive").states == 1 << 16


def test_verify_order_four_register_chain_at_the_cap():
    # 65,536 states, decided on the successor table; the chain itself is a rows table
    t0 = time.monotonic()
    spec = dj.higher_order_spec(dj.build_lazy_cycle_walk(16), 4, "additive")
    report = dj.verify_uniform_ergodicity(spec)
    assert spec.states == 1 << 16
    assert report.ergodic and report.uniform_stationary
    assert time.monotonic() - t0 < 5.0
    assert dj.build_higher_order_chain(spec).rows[0].shape == (1 << 16, 3)


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
        dj.higher_order_spec(dj.build_lazy_cycle_walk(17), 6, "additive")


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
