"""Second-order recurrence walks and their exact convergence analysis.

The basic walk on Z_n starts at X_0 = 0, X_1 = 1 and moves by
X_{k+1} = X_k + X_{k-1} + e_{k+1} (mod n) with e uniform on {-1, 0, 1}.
The pair (X_{k-1}, X_k) is Markov on Z_n x Z_n, so the exact law of X_k
is computed by evolving an n-by-n joint array; no sampling anywhere.

A Fourier argument controls the distance to uniform: the transform of
the law of X_k at frequency a is a unit-modulus factor times
prod_{b=1}^{k-1} (1/3 + (2/3) cos(2 pi a F_b / n)) with F_b the
Fibonacci numbers, and summing the squared products over a = 1 .. n-1
bounds 4 * TV^2. The quantitative engine behind the (log n)^2 mixing
guarantee is a window property of Fibonacci-type residue sequences:
every stretch of 8 + 3*log_{3/2}(n) consecutive indices contains a
residue in [n/3, 2n/3], checked here exactly over full periods, for all
frequencies of a modulus at once.

The walk generalizes to shift registers: a state in X^r advances to
(x_2, ..., x_r, f(x_1, ..., x_r)) followed by a base-kernel step in the
last coordinate. Whenever f is a bijection in its first argument and the
base kernel is lazy, ergodic, and doubly stochastic, the register chain
is ergodic with uniform stationary law; this module verifies that
exactly on the chain's successor table (n^r states, n^r * deg edges),
without building the n^r-by-n^r matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .chains import (
    DISTRIBUTION_TOL,
    STOCHASTIC_TOL,
    WORK_CAP,
    TransitionMatrix,
    _checked_rows,
    _index_array,
    _nonzeros,
    _successor_period,
    _table_budget,
    _within_budget,
    validate,
)
from .errors import BijectionError


def _pair_index(n: int) -> np.ndarray:
    """Flat index into an n-by-n joint array for the gather in ``_pair_step``.

    Entry [b, j] addresses joint[(j - 1 - b) mod n, b]: column j - 1 of
    the skewed array, padded with one wrapped column on each side.
    """
    b = np.arange(n)[:, None]
    j = np.arange(n + 2)[None, :]
    return ((j - 1 - b) % n) * n + b


def _pair_step(joint: np.ndarray, index: np.ndarray) -> np.ndarray:
    """One move of the pair chain: (a, b) -> (b, a + b + e) with e in {-1, 0, 1}.

    With skew[b, c] = joint[(c - b) mod n, b] the new law is
    (skew[b, c + 1] + skew[b, c] + skew[b, c - 1]) / 3 (indices mod n),
    summed in that order; ``index`` from ``_pair_index`` gathers skew with
    one wrapped column on each side.
    """
    ext = joint.take(index)
    return (ext[:, 2:] + ext[:, 1:-1] + ext[:, :-2]) / 3.0


def fibonacci_walk_marginals(n: int, k_max: int) -> np.ndarray:
    """Exact laws of X_1, ..., X_{k_max} in one incremental pass.

    Evolves the joint law of (X_{k-1}, X_k) from the point mass at
    (0, 1) and writes the marginal of the current coordinate into row
    k - 1 of one float64 (k_max, n) array, returned read-only once every
    row is a probability vector within DISTRIBUTION_TOL (else
    StructureError naming the row). The budgets are checked before the
    first step: a step gathers and averages the n^2 joint entries, about
    8 ns each on the 2-vCPU VM, and the n x k_max laws are held beside
    five arrays of n^2 doubles (the joint law, its gather, the index and
    two sums).
    """
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if k_max < 1:
        raise ValueError(f"need k >= 1, got {k_max}")
    m, k = min(n, WORK_CAP), min(k_max, WORK_CAP)  # larger ones are over budget anyway
    _within_budget("walk marginals", "kmax or n", 8.0 * k * m * m, 8.0 * m * (k + 5 * m))
    index = _pair_index(n)
    joint = np.zeros((n, n))
    joint[0, 1 % n] = 1.0
    out = np.empty((k_max, n))
    joint.sum(axis=0, out=out[0])
    for row in out[1:]:
        joint = _pair_step(joint, index)
        joint.sum(axis=0, out=row)
    return _checked_rows(out, DISTRIBUTION_TOL, "marginal array")


# Entries per factor array in _fib_cos_factors and per residue-window
# table (16 MiB of int64), so a large n * k costs time, not memory.
_FACTOR_BLOCK = 1 << 21


def _fib_cos_factors(n: int, k: int, a: np.ndarray) -> np.ndarray:
    """prod_{b=1}^{k-1} (1/3 + (2/3) cos(2 pi a F_b / n)) for each frequency a.

    Factor b depends on a only through the residue a * F_b mod n, so it is
    read from a table over Z_n. Row b - 1 of a factor array holds factor
    b for a block of frequencies; the product over axis 0 multiplies the
    rows in order, exactly as a running product would.
    """
    residues = _fib_residues(n)
    fib = residues[np.arange(1, k) % residues.size][:, None]
    factor = 1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    width = max(1, _FACTOR_BLOCK // max(1, k - 1))
    return np.concatenate([factor[(fib * a[i:i + width]) % n].prod(axis=0)
                           for i in range(0, a.size, width)])


def fourier_tv_bound(n: int, k: int) -> float:
    """Upper bound on the distance to uniform from the Fourier transform.

    Returns (1/2) * sqrt(sum over a=1..n-1 of the squared factor
    products); the unit-modulus prefactor of the transform squares to 1
    and is dropped. Each factor lies in [-1/3, 1], so the bound never
    exceeds sqrt(n-1)/2.
    """
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    a = np.arange(1, n, dtype=np.int64)
    prod = _fib_cos_factors(n, k, a)
    return 0.5 * math.sqrt(float(np.sum(prod * prod)))


@lru_cache(maxsize=None)
def _fib_residues(n: int) -> np.ndarray:
    """F_k mod n for k in one full period, as a read-only array.

    Its length is the Pisano period of n. Walks the pairs (F_k, F_{k+1})
    mod n until (0, 1) recurs.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    terms = [0]
    a, b = 1 % n, 1 % n  # (F_1, F_2)
    while (a, b) != (0, 1 % n):
        terms.append(a)
        a, b = b, (a + b) % n
    out = np.array(terms, dtype=np.int64)
    out.setflags(write=False)
    return out


def residue_window_length(n: int) -> float:
    """Window width 8 + 3 * log base 3/2 of n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 8.0 + 3.0 * math.log(n) / math.log(1.5)


@dataclass(frozen=True)
class WindowCheck:
    """Whether every index window of the residue sequence hits [n/3, 2n/3]."""

    holds: bool
    worst_gap: int


def _window_gaps(n: int, a: np.ndarray) -> np.ndarray:
    """Worst first-hit gap of a * F_k mod n for each frequency in ``a``.

    Row i covers the starts 0 .. h_i, h_i one full period of a_i * F_k
    mod n plus the window length w, which by periodicity covers every
    start; the row itself runs over the indices k < h_i + w + 1. A hit is
    an index whose residue b satisfies 3*b >= n and 3*b <= 2*n, read from
    a table over Z_n. The next hit at or after each index comes from a
    reversed running minimum of hit positions. A start with no later hit
    in its row, as in a row with no hit at all, scores the row length.
    """
    wlen = int(math.floor(residue_window_length(n)))
    divisors, inverse = np.unique(np.gcd(a, n), return_inverse=True)
    periods = np.array([len(_fib_residues(n // int(d))) for d in divisors], dtype=np.int64)
    horizon = periods[inverse] + wlen
    length = horizon + wlen + 1
    cols = np.arange(int(length.max()), dtype=np.int32)
    r = np.arange(n)
    middle = (3 * r >= n) & (3 * r <= 2 * n)
    hit = middle[(a[:, None] * r) % n][:, np.resize(_fib_residues(n), cols.size)]
    hit &= cols < length[:, None]
    # A missing hit sits past every row, so its gap exceeds any real one.
    none = 2 * cols.size
    nxt = np.minimum.accumulate(np.where(hit, cols, none)[:, ::-1], axis=1)[:, ::-1]
    worst = np.max(nxt - cols, axis=1, where=cols <= horizon[:, None], initial=0)
    return np.where(worst < cols.size, worst, length)


@lru_cache(maxsize=None)
def _window_table(n: int) -> np.ndarray | None:
    """Worst gaps for a = 1 .. n-1, or None when too large.

    The widest row (a = 1) spans the full Pisano period of n plus twice
    the window length; the table is built only while all n - 1 rows fit
    in one block of _FACTOR_BLOCK entries.
    """
    wlen = int(math.floor(residue_window_length(n)))
    if (n - 1) * (len(_fib_residues(n)) + 2 * wlen + 1) > _FACTOR_BLOCK:
        return None
    out = _window_gaps(n, np.arange(1, n, dtype=np.int64))
    out.setflags(write=False)
    return out


def check_residue_window(n: int, a: int) -> WindowCheck:
    """Check the middle-third window property of a * F_k mod n.

    For every start j, some k in [j, j + w] with w = 8 + 3*log_{3/2}(n)
    must satisfy the exact integer membership 3*b_k >= n and
    3*b_k <= 2*n. The starts checked run over one full period of the pair
    sequence plus the window length, which covers every j by periodicity.
    worst_gap is the largest distance from a start to its first in-window
    index. Answers for all a come from one cached per-modulus table while
    it fits, else from the same kernel on one row.
    """
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if not 0 < a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}")
    table = _window_table(n)
    if table is not None:
        worst = int(table[a - 1])
    else:
        worst = int(_window_gaps(n, np.array([a], dtype=np.int64))[0])
    return WindowCheck(holds=bool(worst <= residue_window_length(n)), worst_gap=worst)


@dataclass(frozen=True)
class MixingGuarantee:
    """Step count and distance bound for the recurrence walk at strength c."""

    k: int
    tv_bound: float


def mixing_guarantee(n: int, c: float) -> MixingGuarantee:
    """k = floor(5((ln n)^2 + c ln n)) steps force distance <= 1.6 e^{-c/2}.

    Natural logarithms throughout; valid for n >= 22, where the window
    width satisfies 30 <= 8 + 3*log_{3/2}(n) <= 10 ln n.
    """
    if n < 22:
        raise ValueError(f"the mixing guarantee requires n >= 22, got {n}")
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"need finite c >= 0, got {c}")
    ln = math.log(n)
    steps = 5.0 * (ln * ln + c * ln)
    if not math.isfinite(steps):
        raise ValueError(f"c={c} too large: the guaranteed step count overflows")
    return MixingGuarantee(
        k=int(math.floor(steps)),
        tv_bound=1.6 * math.exp(-c / 2.0),
    )


def _register_states(base: TransitionMatrix, order: int) -> int:
    """n^order after the argument checks and the budgets, without building anything.

    Specs and their verification hold tables of n^order entries and
    n^order x w successor edges, w the base kernel's row width, as a
    rows table does (``_table_budget``), never an n^r-square matrix.
    n^order is computed exactly while order times the bits of n is at
    most 64; past that it is at least 2^32 states, far over the memory
    budget, and counted as 2^64.
    """
    n = base.n
    if n < 2:
        raise ValueError(f"need base_n >= 2, got {n}")
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    states = n**order if order * n.bit_length() <= 64 else 1 << 64
    _table_budget(f"{n}^{order} register states", "order", states, base.rows[0].shape[1] + 1)
    return states


def _digit_sum(s: np.ndarray, n: int, digits: int) -> np.ndarray:
    """Sum of the lowest ``digits`` base-n digits of each entry of s."""
    total = np.zeros_like(s)
    for _ in range(digits):
        total += s % n
        s = s // n
    return total


def _additive_table(n: int, order: int) -> np.ndarray:
    s = np.arange(n**order)
    return _digit_sum(s, n, order) % n


def _cubing_table(n: int, order: int) -> np.ndarray:
    pw = n ** (order - 1)
    s = np.arange(n**order)
    first = s // pw
    return (first**3 % n + _digit_sum(s % pw, n, order - 1)) % n


_BUILTIN_UPDATES = {"additive": _additive_table, "cubing": _cubing_table}


@dataclass(frozen=True, eq=False)
class HigherOrderChainSpec:
    """A shift-register chain: order-r memory over a base chain on Z_n.

    n, read as ``base_n``, is the number of states of ``base_kernel``.

    ``update`` is a flat table mapping the encoded state
    (x_1, ..., x_r) -> x_1 * n^(r-1) + ... + x_r to the new last symbol
    f(x_1, ..., x_r), held as a read-only intp array copied from the 1-D
    integer sequence given; floats, bools and values outside [0, n) raise
    ValueError. For every fixed tail (x_2, ..., x_r) the map
    x_1 -> f(x_1, ..., x_r) must be a bijection on Z_n; violations are
    rejected with a witness tail and colliding pair. The budgets are
    checked before the table is read.
    """

    order: int
    update: np.ndarray
    base_kernel: TransitionMatrix

    def __post_init__(self) -> None:
        n, r = self.base_n, self.order
        states = _register_states(self.base_kernel, r)
        table = _index_array(self.update, n, ValueError, "update table")
        if table.shape[0] != states:
            raise ValueError(f"update table has {table.shape[0]} entries, expected {states}")
        object.__setattr__(self, "update", table)
        images = table.reshape(n, states // n)  # images[x1, tail]
        ordered = np.sort(images, axis=0)
        collided = np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0))
        if collided.size:
            tail = int(collided[0])
            column = images[:, tail].tolist()
            x1 = next(i for i in range(n) if column[i] in column[:i])
            tail_tuple = tuple(int(d) for d in np.unravel_index(tail, (n,) * (r - 1)))
            raise BijectionError(
                f"update is not a bijection in the first coordinate: "
                f"inputs {column.index(column[x1])} and {x1} collide at tail {tail_tuple}"
            )

    @property
    def base_n(self) -> int:
        return self.base_kernel.n

    @property
    def states(self) -> int:
        return self.base_n**self.order


def higher_order_spec(base_kernel: TransitionMatrix, order: int = 2,
                      update: str | Sequence[int] = "additive") -> HigherOrderChainSpec:
    """Build a register-chain spec from a builtin update name or a table."""
    n = base_kernel.n
    _register_states(base_kernel, order)
    if isinstance(update, str):
        if update not in _BUILTIN_UPDATES:
            raise ValueError(
                f"unknown update {update!r}; builtins: {sorted(_BUILTIN_UPDATES)}"
            )
        update = _BUILTIN_UPDATES[update](n, order)
    return HigherOrderChainSpec(order=order, update=update, base_kernel=base_kernel)


def build_higher_order_chain(spec: HigherOrderChainSpec) -> TransitionMatrix:
    """The register chain on Z_n^order as a rows table.

    From state (x_1, ..., x_r): shift to (x_2, ..., x_r, f(x)), then take
    a base-kernel step in the last coordinate. Row u is base-kernel row
    update[u] moved to the columns (u mod n^(r-1)) * n + j. Doubly
    stochastic whenever the base kernel is. Its budgets are the spec's.
    """
    return TransitionMatrix._of_rows(*_register_rows(spec))


def _register_rows(spec: HigherOrderChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The register chain's rows table, n^r x w, read from the base kernel's rows.

    State u moves to (u mod n^(r-1)) * n + j, with probability
    P[update[u], j], for each nonzero j of that base-kernel row:
    ``cols[update]`` and ``weights[update]``, moved to those columns.
    """
    n = spec.base_n
    cols, weights = spec.base_kernel.rows
    cols, weights = cols[spec.update], weights[spec.update]
    tails = (np.arange(spec.states) % (spec.states // n))[:, None]
    return np.where(weights != 0, tails * n + cols, 0), weights


@dataclass(frozen=True)
class ErgodicityReport:
    ergodic: bool
    uniform_stationary: bool


def verify_uniform_ergodicity(spec: HigherOrderChainSpec) -> ErgodicityReport:
    """Exact check that the register chain is ergodic and doubly stochastic.

    Requires a lazy (positive diagonal) irreducible base kernel. Ergodicity
    is decided on the successor table by strong connectivity plus the gcd
    of cycle lengths, and the column sums are accumulated edge by edge,
    with no use of the theory that predicts the outcome and without the
    explicit matrix.
    """
    base_report = validate(spec.base_kernel)
    if not base_report.positive_diagonal:
        i, _ = base_report.violations["positive_diagonal"]
        raise ValueError(
            f"base kernel must be lazy: zero diagonal entry at state {i}"
        )
    if not base_report.irreducible:
        raise ValueError("base kernel must be irreducible")
    us, vs, probs = _nonzeros(*_register_rows(spec))
    colsums = np.bincount(vs, weights=probs, minlength=spec.states)
    uniform = bool(np.all(np.abs(colsums - 1.0) <= STOCHASTIC_TOL))
    return ErgodicityReport(ergodic=_successor_period(spec.states, us, vs) == 1,
                            uniform_stationary=uniform)
