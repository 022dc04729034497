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
residue in [n/3, 2n/3], checked here exactly over full periods.

The walk generalizes to shift registers: a state in X^r advances to
(x_2, ..., x_r, f(x_1, ..., x_r)) followed by a base-kernel step in the
last coordinate. Whenever f is a bijection in its first argument and the
base kernel is lazy, ergodic, and doubly stochastic, the register chain
is ergodic with uniform stationary law; this module verifies that by
brute force on the explicit matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .chains import (
    MATRIX_SIZE_CAP,
    Distribution,
    TransitionMatrix,
    _reachable_from,
    validate,
)
from .errors import BijectionError, CapacityError, InvariantError

# Exact pair-chain evolution cap: one step gathers and averages n^2 doubles.
PAIR_STATE_CAP = 1000


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


def _check_pair_args(n: int, k: int) -> None:
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if n > PAIR_STATE_CAP:
        raise CapacityError(
            f"pair-chain evolution capped at n <= {PAIR_STATE_CAP}, got n={n}"
        )
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")


def fibonacci_walk_distribution(n: int, k: int) -> Distribution:
    """Exact law of X_k for the recurrence walk on Z_n."""
    return fibonacci_walk_marginals(n, k)[k - 1]


def fibonacci_walk_marginals(n: int, k_max: int) -> list[Distribution]:
    """Exact laws of X_1, ..., X_{k_max} in one incremental pass.

    Evolves the joint law of (X_{k-1}, X_k) from the point mass at
    (0, 1) and marginalizes the current coordinate after every step.
    """
    _check_pair_args(n, k_max)
    index = _pair_index(n)
    joint = np.zeros((n, n))
    joint[0, 1 % n] = 1.0
    out = [Distribution(joint.sum(axis=0))]
    for _ in range(k_max - 1):
        joint = _pair_step(joint, index)
        out.append(Distribution(joint.sum(axis=0)))
    return out


# Entries per factor array in _fib_cos_factors (16 MiB of indices), so a
# large n * k costs time, not memory.
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
def _pisano_period(n: int) -> int:
    """Period of the Fibonacci sequence modulo n (period of the pair map)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    a, b = 0, 1
    t = 0
    while True:
        a, b = b, (a + b) % n
        t += 1
        if (a, b) == (0, 1):
            return t


@lru_cache(maxsize=None)
def _fib_residues(n: int) -> np.ndarray:
    """F_k mod n for k in one full period, as a read-only array."""
    period = _pisano_period(n)
    out = np.empty(period, dtype=np.int64)
    a, b = 0, 1
    for i in range(period):
        out[i] = a
        a, b = b, (a + b) % n
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FibResidueSequence:
    """One full period of a Fibonacci-type residue sequence modulo n.

    Validates the recurrence (with wraparound) and the no-adjacent-zeros
    property: a sequence with some nonzero term can never have two
    consecutive zero residues, else every term would vanish.
    """

    n: int
    terms: tuple[int, ...]
    period: int

    def __post_init__(self) -> None:
        t = self.terms
        if len(t) != self.period or self.period < 1:
            raise ValueError("terms must cover exactly one period")
        for k in range(self.period):
            if (t[k] + t[(k + 1) % self.period]) % self.n != t[(k + 2) % self.period]:
                raise InvariantError(f"recurrence fails at index {k}")
        if any(v % self.n for v in t):
            for k in range(self.period):
                if t[k] == 0 and t[(k + 1) % self.period] == 0:
                    raise InvariantError(f"adjacent zero residues at index {k}")


def fib_residue_sequence(n: int, a: int = 1) -> FibResidueSequence:
    """The sequence a * F_k mod n over its minimal period."""
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if not 0 < a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}")
    period = _pisano_period(n // math.gcd(a, n))
    base = _fib_residues(n)
    terms = tuple(int(v) for v in (a * np.resize(base, period)) % n)
    return FibResidueSequence(n=n, terms=terms, period=period)


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


def check_residue_window(n: int, a: int, horizon: int | None = None) -> WindowCheck:
    """Check the middle-third window property of a * F_k mod n.

    For every start j in [0, horizon], some k in [j, j + w] with
    w = 8 + 3*log_{3/2}(n) must satisfy the exact integer membership
    3*b_k >= n and 3*b_k <= 2*n. The horizon defaults to one full period
    of the pair sequence plus the window length, which covers every j by
    periodicity. worst_gap is the largest distance from a start to its
    first in-window index.
    """
    if n < 2:
        raise ValueError(f"need modulus n >= 2, got {n}")
    if not 0 < a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}")
    w = residue_window_length(n)
    wlen = int(math.floor(w))
    period = _pisano_period(n // math.gcd(a, n))
    if horizon is None:
        horizon = period + wlen
    if horizon < 0:
        raise ValueError(f"need horizon >= 0, got {horizon}")
    length = horizon + wlen + 1
    b = (a * np.resize(_fib_residues(n), length)) % n
    in_window = (3 * b >= n) & (3 * b <= 2 * n)
    hits = np.flatnonzero(in_window)
    if hits.size == 0:
        return WindowCheck(holds=False, worst_gap=length)
    starts = np.arange(horizon + 1)
    idx = np.searchsorted(hits, starts)
    gaps = np.where(idx < hits.size, hits[np.minimum(idx, hits.size - 1)] - starts, length)
    worst = int(gaps.max())
    return WindowCheck(holds=bool(worst <= w), worst_gap=worst)


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
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    ln = math.log(n)
    return MixingGuarantee(
        k=int(math.floor(5.0 * (ln * ln + c * ln))),
        tv_bound=1.6 * math.exp(-c / 2.0),
    )


def _additive_table(n: int, order: int) -> tuple[int, ...]:
    table = []
    for s in range(n**order):
        digits, t = [], s
        for _ in range(order):
            digits.append(t % n)
            t //= n
        table.append(sum(digits) % n)
    return tuple(table)


def _cubing_table(n: int, order: int) -> tuple[int, ...]:
    table = []
    pw = n ** (order - 1)
    for s in range(n**order):
        first = s // pw
        rest, t = 0, s % pw
        while t:
            rest += t % n
            t //= n
        table.append((pow(first, 3, n) + rest) % n)
    return tuple(table)


_BUILTIN_UPDATES = {"additive": _additive_table, "cubing": _cubing_table}


@dataclass(frozen=True, eq=False)
class HigherOrderChainSpec:
    """A shift-register chain: order-r memory over a base chain on Z_n.

    ``update`` is a flat table mapping the encoded state
    (x_1, ..., x_r) -> x_1 * n^(r-1) + ... + x_r to the new last symbol
    f(x_1, ..., x_r). For every fixed tail (x_2, ..., x_r) the map
    x_1 -> f(x_1, ..., x_r) must be a bijection on Z_n; violations are
    rejected with a witness tail and colliding pair.
    """

    base_n: int
    order: int
    update: tuple[int, ...]
    base_kernel: TransitionMatrix

    def __post_init__(self) -> None:
        n, r = self.base_n, self.order
        if n < 2:
            raise ValueError(f"need base_n >= 2, got {n}")
        if r < 2:
            raise ValueError(f"need order >= 2, got {r}")
        if self.base_kernel.n != n:
            raise ValueError(
                f"base kernel has {self.base_kernel.n} states, expected {n}"
            )
        states = n**r
        if len(self.update) != states:
            raise ValueError(f"update table has {len(self.update)} entries, expected {states}")
        if any(not 0 <= v < n for v in self.update):
            raise ValueError("update table value out of range")
        pw = n ** (r - 1)
        for tail in range(pw):
            seen: dict[int, int] = {}
            for x1 in range(n):
                img = self.update[x1 * pw + tail]
                if img in seen:
                    digits = []
                    t = tail
                    for _ in range(r - 1):
                        digits.append(t % n)
                        t //= n
                    tail_tuple = tuple(reversed(digits))
                    raise BijectionError(
                        f"update is not a bijection in the first coordinate: "
                        f"inputs {seen[img]} and {x1} collide at tail {tail_tuple}"
                    )
                seen[img] = x1

    @property
    def states(self) -> int:
        return self.base_n**self.order


def higher_order_spec(base_kernel: TransitionMatrix, order: int = 2,
                      update: str | Sequence[int] = "additive") -> HigherOrderChainSpec:
    """Build a register-chain spec from a builtin update name or a table."""
    n = base_kernel.n
    if isinstance(update, str):
        if update not in _BUILTIN_UPDATES:
            raise ValueError(
                f"unknown update {update!r}; builtins: {sorted(_BUILTIN_UPDATES)}"
            )
        table = _BUILTIN_UPDATES[update](n, order)
    else:
        table = tuple(int(v) for v in update)
    return HigherOrderChainSpec(base_n=n, order=order, update=table, base_kernel=base_kernel)


def build_higher_order_chain(spec: HigherOrderChainSpec) -> TransitionMatrix:
    """The explicit transition matrix of the register chain on Z_n^order.

    From state (x_1, ..., x_r): shift to (x_2, ..., x_r, f(x)), then take
    a base-kernel step in the last coordinate. Doubly stochastic whenever
    the base kernel is.
    """
    n, N = spec.base_n, spec.states
    if N > MATRIX_SIZE_CAP:
        raise CapacityError(
            f"register chain has {N} states, over MATRIX_SIZE_CAP={MATRIX_SIZE_CAP}"
        )
    P = spec.base_kernel.entries
    pw = N // n
    T = np.zeros((N, N))
    for s in range(N):
        tail = s % pw
        z = spec.update[s]
        T[s, tail * n:(tail + 1) * n] = P[z]
    return TransitionMatrix(T)


def _digraph_period(supp: np.ndarray) -> int:
    """gcd of directed cycle lengths, via BFS level differences from state 0.

    Valid for strongly connected digraphs: each edge (u, v) contributes
    label d(u) + 1 - d(v), and the gcd of the labels equals the period.
    """
    n = supp.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = True
    level = 0
    while frontier.any():
        level += 1
        reach = supp[frontier].any(axis=0) & (dist < 0)
        dist[reach] = level
        frontier = reach
    us, vs = np.nonzero(supp)
    labels = dist[us] + 1 - dist[vs]
    g = 0
    for lab in labels:
        g = math.gcd(g, int(lab))
        if g == 1:
            break
    return g if g else 1


@dataclass(frozen=True)
class ErgodicityReport:
    ergodic: bool
    uniform_stationary: bool


def verify_uniform_ergodicity(spec: HigherOrderChainSpec) -> ErgodicityReport:
    """Brute-force check that the register chain is ergodic and doubly stochastic.

    Requires a lazy (positive diagonal) irreducible base kernel; ergodicity
    of the register chain is decided on the explicit matrix by strong
    connectivity plus gcd of cycle lengths, with no use of the theory that
    predicts the outcome.
    """
    base_report = validate(spec.base_kernel)
    if not base_report.positive_diagonal:
        i, _ = base_report.violations["positive_diagonal"]
        raise ValueError(
            f"base kernel must be lazy: zero diagonal entry at state {i}"
        )
    if not base_report.irreducible:
        raise ValueError("base kernel must be irreducible")
    T = build_higher_order_chain(spec)
    supp = T.entries > 0.0
    strongly_connected = bool(_reachable_from(supp, 0).all()
                              and _reachable_from(supp.T, 0).all())
    aperiodic = strongly_connected and _digraph_period(supp) == 1
    colsums = T.entries.sum(axis=0)
    uniform = bool(np.all(np.abs(colsums - 1.0) <= 1e-9))
    return ErgodicityReport(ergodic=strongly_connected and aperiodic,
                            uniform_stationary=uniform)
