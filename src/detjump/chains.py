"""Finite state spaces, transition matrices, bijections, and chain builders.

State spaces are always {0, ..., n-1}. A transition matrix is
row-stochastic and 64-bit float, and it is stored by its rows: for each
row, its nonzero columns and their weights. A dense n x n array is built
only where an analysis reads one (the symmetrized kernel, the GEMM
mixing route, the atom matrix of the subset scans). Structured states
(hypercube bit vectors) are encoded by a documented index map.
Everything here is immutable after construction and safe to share
across threads.

The standing assumptions checked by :func:`validate` are:

1. irreducible (support graph strongly connected); together with a
   positive diagonal this also gives aperiodicity,
2. symmetric support: p[i][j] > 0 iff p[j][i] > 0,
3. positive diagonal: p[i][i] > 0 for every i,
4. uniform stationary distribution, i.e. the matrix is doubly stochastic.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BijectionError, CapacityError, StructureError

# The two budgets. Every analysis estimates its work, in ns on a 2-vCPU VM (numpy with
# OpenBLAS), and its peak bytes from its arguments, and ``_within_budget`` refuses an
# estimate over either before anything is allocated.
WORK_CAP = 1 << 36
MEMORY_CAP = 1 << 30
# Tolerance for row/column sums of stochastic matrices.
STOCHASTIC_TOL = 1e-9
# Tolerance on each row of the recurrence walk's marginals.
DISTRIBUTION_TOL = 1e-12


def _checked_rows(a: np.ndarray, tol: float, what: str,
                  cols: np.ndarray | None = None) -> np.ndarray:
    """Make the 2-D ``a`` read-only and return it once each row is a probability vector.

    Entries must lie in [0, 1 + tol] and each row must sum to 1 within
    ``tol``; ``what`` names the array in the message for a non-finite
    entry. Range and finiteness come from one min/max pair: a NaN or an
    infinity makes one of them non-finite. The temporaries that locate an
    offending entry are made only on failure. With ``cols``, ``a`` holds
    the weights of a rows table, and an entry is named by its column.
    """
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise StructureError(f"{what} contains non-finite entries")
    if lo < 0.0 or hi > 1.0 + tol:
        at = np.unravel_index(int(np.argmin(a)) if lo < 0.0 else int(np.argmax(a)), a.shape)
        value = float(a[at])
        if cols is not None:
            at = (at[0], cols[at])
        raise StructureError(f"entry out of [0, 1] at ({', '.join(map(str, at))}): {value!r}")
    sums = a.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if bad.size:
        i = int(bad[0])
        raise StructureError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {tol}")
    a.setflags(write=False)
    return a


def _within_budget(what: str, knob: str, work: float, memory: float = 0.0) -> float:
    """``work``, once ``what`` is refused with one CapacityError if over WORK_CAP or MEMORY_CAP.

    ``work`` is in ns and ``memory`` in bytes; the message names the
    estimate, the budget and ``knob``, the argument to make smaller.
    """
    for kind, value, name, cap, unit in (("work", work, "WORK_CAP", WORK_CAP, "ns"),
                                          ("memory", memory, "MEMORY_CAP", MEMORY_CAP, "bytes")):
        if value > cap:
            raise CapacityError(f"{what}: estimated {kind} {value:.3g} {unit} is over "
                                f"{name}={cap} {unit}; make {knob} smaller")
    return work


def _check_square(shape: tuple[int, ...]) -> None:
    """Refuse an array of this shape unless it is square with at least one state."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise StructureError(f"transition matrix must be square, got shape {shape}")
    if shape[0] == 0:
        raise StructureError("transition matrix must have at least one state")


def _dense_array(n: int, dtype=np.float64) -> np.ndarray:
    """A zeroed n x n array, refused over MEMORY_CAP before it is made.

    The dense arrays of a chain (its ``entries``, the GEMM route's Q,
    the subset scans' atoms) are made here.
    """
    _within_budget("an n x n array", "n", 0.1 * n * n, n * n * np.dtype(dtype).itemsize)
    return np.zeros((n, n), dtype=dtype)


def _table_budget(what: str, knob: str, n: float, w: int) -> None:
    """Refuse building a rows table of n x w entries over the budgets.

    Building one and validating it hold about nine int64 or float64 arrays
    of its n w entries at once: the table's 16 bytes per entry beside the
    edge lists of :func:`validate`, 56 bytes per entry on the 16-cube.
    Both take about 20 ns per entry.
    """
    _within_budget(what, knob, 20.0 * n * w, 72.0 * n * w)


def _pack(n: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows table of entries v at (i, j), listed by increasing i, then increasing j.

    Returns cols and weights of shape (n, w), w the most entries of any
    row (at least 1): row r lists its entries in the order given, padded
    at its end with (0, 0.0).
    """
    counts = np.bincount(i, minlength=n)
    t = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.zeros((n, max(1, int(counts.max()))), dtype=np.intp)
    weights = np.zeros(cols.shape)
    cols[i, t] = j
    weights[i, t] = v
    return cols, weights


def _rows_table(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows table of the nonzeros of a square array, each row in increasing column order."""
    i, j = np.nonzero(a)
    return _pack(a.shape[0], i, j, a[i, j])


def _nonzeros(cols: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows, columns and weights of the nonzeros of a rows table, in row-major order."""
    i, t = np.nonzero(weights)
    return i, cols[i, t], weights[i, t]


def _checked_table(cols: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make a rows table read-only and return it once its rows are probability vectors."""
    _checked_rows(weights, STOCHASTIC_TOL, "transition matrix", cols)
    cols.setflags(write=False)
    return cols, weights


class TransitionMatrix:
    """A row-stochastic matrix over states {0, ..., n-1}, stored as a rows table.

    ``rows`` is the pair (cols, weights), read-only arrays of shape
    (n, w), w the most nonzeros of any row: row i lists its nonzero
    columns in increasing order with their weights, padded at its end
    with (0, 0.0). Every chain the package builds is stored so (the cycle
    and hypercube walks, :func:`compose`, :func:`load_matrix_csv` and the
    register chain), in O(n w) memory. ``entries`` is the dense read-only
    C-order float64 array, built on each access and never kept. Only the
    symmetrized kernel, whose rows are dense, stores its dense array
    instead; ``entries`` then returns that array itself, and ``rows`` is
    built on each access.

    Construction enforces only the structural contract (square shape,
    entries in [0, 1], rows summing to 1 within ``STOCHASTIC_TOL``). The
    four standing chain assumptions are checked separately by
    :func:`validate`, so that a malformed chain can still be loaded and
    reported on. The constructor takes a dense array
    and keeps nothing of it, so the caller may go on changing its own.
    """

    __slots__ = ("_table", "_dense")

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=np.float64)
        _check_square(a.shape)
        self._table = _checked_table(*_rows_table(a))
        self._dense = None

    @classmethod
    def _of_rows(cls, cols: np.ndarray, weights: np.ndarray) -> "TransitionMatrix":
        """Wrap a fresh rows table that nothing else refers to, checked like the constructor's."""
        m = object.__new__(cls)
        m._table, m._dense = _checked_table(cols, weights), None
        return m

    @classmethod
    def _of_dense(cls, a: np.ndarray) -> "TransitionMatrix":
        """Store a fresh C-order float64 square array that nothing else refers to, uncopied."""
        _check_square(a.shape)
        m = object.__new__(cls)
        m._table, m._dense = None, _checked_rows(a, STOCHASTIC_TOL, "transition matrix")
        return m

    @property
    def n(self) -> int:
        return (self._dense if self._table is None else self._table[0]).shape[0]

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._table is not None:
            return self._table
        cols, weights = _rows_table(self._dense)
        cols.setflags(write=False)
        weights.setflags(write=False)
        return cols, weights

    @property
    def entries(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        i, j, v = _nonzeros(*self._table)
        a = _dense_array(self.n)
        a[i, j] = v
        a.setflags(write=False)
        return a


def _index_array(values, n: int | None, error: type[Exception], what: str) -> np.ndarray:
    """A read-only intp copy of ``values``, refused unless it is 1-D with integers in [0, n).

    With ``n`` None the bound is the length of ``values``. Floats, bools,
    strings and integers numpy can hold only as objects are refused, as
    is any value outside [0, n); ``error`` is raised with a message
    naming ``what``.
    """
    a = np.asarray(values)
    if a.ndim != 1:
        raise error(f"{what} must be a 1-D sequence, got shape {a.shape}")
    if n is None:
        n = a.shape[0]
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} entries out of range: need integers in [0, {n}), got {a.dtype}")
    bad = np.flatnonzero((a < 0) | (a >= n))
    if bad.size:
        i = int(bad[0])
        raise error(f"{what} entry {a[i]} at position {i} out of range [0, {n})")
    out = a.astype(np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection f on {0, ..., n-1}, stored with its inverse.

    ``forward`` and ``inverse`` are read-only intp arrays, so either one
    indexes a numpy array directly. The constructor takes any 1-D
    sequence of integers and copies it; floats, bools and images outside
    [0, n) raise BijectionError, as does a repeated image.
    """

    forward: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fwd = _index_array(self.forward, None, BijectionError, "permutation")
        n = fwd.shape[0]
        repeated = np.flatnonzero(np.bincount(fwd, minlength=n) > 1)
        if repeated.size:
            raise BijectionError(f"image {int(repeated[0])} repeated; map is not a bijection")
        inv = np.empty(n, dtype=np.intp)
        inv[fwd] = np.arange(n)
        inv.setflags(write=False)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)

    @property
    def n(self) -> int:
        return self.forward.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail for each standing assumption, with one offending index pair.

    ``violations`` maps a failed check name to the first offending pair:
    for ``irreducible`` a pair (i, j) with j unreachable from i; for
    ``symmetric_support`` the first row-major (i, j) where support is
    one-sided; for ``positive_diagonal`` the first (i, i) with a zero
    diagonal; for ``uniform_stationary`` (j, j) for the first column j
    whose sum is off. ``aperiodic`` is not an assumption: it reports an
    irreducible chain whose support graph has period 1.
    """

    irreducible: bool
    symmetric_support: bool
    positive_diagonal: bool
    uniform_stationary: bool
    aperiodic: bool
    violations: dict[str, tuple[int, int]]

    @property
    def ok(self) -> bool:
        return (
            self.irreducible
            and self.symmetric_support
            and self.positive_diagonal
            and self.uniform_stationary
        )


def _bfs_levels(states: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Breadth-first levels from state 0 over the edges us -> vs; -1 if unreached.

    The edges are grouped by their source once, so a level reads only the
    edges of its frontier: O(edges) in all, beside about a dozen calls per
    level. Reading every edge at every level took 0.61 s on the lazy
    16384-cycle (8,192 levels) and grew as n^2. A state reached twice in
    one level is kept once: ``slot`` keeps the last of its positions.
    """
    targets, count = vs[np.argsort(us, kind="stable")], np.bincount(us, minlength=states)
    first = np.cumsum(count) - count
    dist, slot = np.full(states, -1, dtype=np.int64), np.empty(states, dtype=np.intp)
    dist[0] = 0
    frontier, level = np.zeros(1, dtype=np.intp), 0
    while frontier.size:
        level += 1
        c = count[frontier]
        ends = np.cumsum(c)
        reached = targets[np.repeat(first[frontier] + c - ends, c) + np.arange(ends[-1])]
        reached = reached[dist[reached] < 0]
        at = np.arange(reached.size)
        slot[reached] = at
        frontier = reached[slot[reached] == at]
        dist[frontier] = level
    return dist


def _successor_period(states: int, us: np.ndarray, vs: np.ndarray) -> int:
    """Period of the digraph with edges us -> vs; 0 if not strongly connected.

    Forward and backward BFS from state 0 decide strong connectivity. Then
    each edge (u, v) contributes the label d(u) + 1 - d(v), with d the
    forward levels, and the gcd of the labels equals the period.
    """
    dist = _bfs_levels(states, us, vs)
    if np.any(dist < 0) or np.any(_bfs_levels(states, vs, us) < 0):
        return 0
    g = int(np.gcd.reduce(np.abs(dist[us] + 1 - dist[vs])))
    return g if g else 1


def validate(P: TransitionMatrix) -> ValidationReport:
    """Check the four standing assumptions on a structurally valid matrix.

    Every check reads the edge list u -> v of the positive entries, taken
    from the rows in row-major order, and their weights. The support is
    symmetric when the reversed edges, sorted, are that same list. Then
    every state reached from 0 also reaches 0, so the backward search runs
    only on a one-sided support. A column's sum adds its entries in
    increasing row order.
    """
    n = P.n
    violations: dict[str, tuple[int, int]] = {}

    us, vs, probs = _nonzeros(*P.rows)
    edges = us * n + vs
    reversed_edges = np.sort(vs * n + us)
    symmetric_support = bool(np.array_equal(edges, reversed_edges))

    fwd = _bfs_levels(n, us, vs) >= 0
    irreducible = bool(fwd.all())
    if not irreducible:
        violations["irreducible"] = (0, int(np.flatnonzero(~fwd)[0]))
    elif not symmetric_support:
        bwd = _bfs_levels(n, vs, us) >= 0
        irreducible = bool(bwd.all())
        if not irreducible:
            violations["irreducible"] = (int(np.flatnonzero(~bwd)[0]), 0)

    if not symmetric_support:
        first = int(np.setxor1d(edges, reversed_edges, assume_unique=True)[0])
        violations["symmetric_support"] = divmod(first, n)

    lazy = np.zeros(n, dtype=bool)
    lazy[us[us == vs]] = True
    positive_diagonal = bool(lazy.all())
    if not positive_diagonal:
        i = int(np.flatnonzero(~lazy)[0])
        violations["positive_diagonal"] = (i, i)
    # A positive diagonal gives period 1 at once; only other chains pay for the gcd.
    aperiodic = irreducible and (positive_diagonal or _successor_period(n, us, vs) == 1)

    colsums = np.bincount(vs, weights=probs, minlength=n)
    bad = np.flatnonzero(np.abs(colsums - 1.0) > STOCHASTIC_TOL)
    uniform_stationary = bad.size == 0
    if not uniform_stationary:
        j = int(bad[0])
        violations["uniform_stationary"] = (j, j)

    return ValidationReport(
        irreducible=irreducible,
        symmetric_support=symmetric_support,
        positive_diagonal=positive_diagonal,
        uniform_stationary=uniform_stationary,
        aperiodic=aperiodic,
        violations=violations,
    )


def build_lazy_cycle_walk(n: int) -> TransitionMatrix:
    """Lazy walk on the n-cycle: stay, step left, or step right, each 1/3."""
    if n < 3:
        raise ValueError(f"lazy cycle walk needs n >= 3, got {n}")
    _table_budget("lazy cycle walk", "n", min(n, WORK_CAP), 3)
    idx = np.arange(n)
    cols = np.sort(np.stack([(idx - 1) % n, idx, (idx + 1) % n], axis=1), axis=1)
    return TransitionMatrix._of_rows(cols, np.full(cols.shape, 1.0 / 3.0))


def build_hypercube_walk(d: int) -> TransitionMatrix:
    """Lazy walk on {0,1}^d: stay or flip one coordinate, each 1/(d+1).

    State x is encoded as the integer with bit i equal to coordinate i,
    so flipping coordinate i maps index s to s XOR 2^i.
    """
    if d < 1:
        raise ValueError(f"hypercube walk needs d >= 1, got {d}")
    e = min(d, 64)  # 2^64 states are over any budget, so 2^d itself is never computed
    _table_budget("hypercube walk", "d", 2**e, e + 1)
    idx = np.arange(1 << d)
    cols = np.sort(np.stack([idx] + [idx ^ (1 << i) for i in range(d)], axis=1), axis=1)
    return TransitionMatrix._of_rows(cols, np.full(cols.shape, 1.0 / (d + 1)))


def min_positive_entry(P: TransitionMatrix) -> float:
    """The smallest strictly positive transition probability."""
    weights = P.rows[1]
    least = float(np.min(weights, where=weights > 0.0, initial=np.inf))
    if least == np.inf:
        raise StructureError("matrix has no positive entries")
    return least


def compose(f: Permutation, P: TransitionMatrix) -> TransitionMatrix:
    """One step of the jump-then-move chain: apply f, then take a P-step.

    Row i of the result is row f(i) of P, gathered from P's rows table.
    Composing with any bijection preserves double stochasticity.
    """
    if f.n != P.n:
        raise StructureError(f"dimension mismatch: permutation on {f.n}, matrix on {P.n}")
    cols, weights = P.rows
    return TransitionMatrix._of_rows(cols[f.forward], weights[f.forward])


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def identity_permutation(n: int) -> Permutation:
    return Permutation(np.arange(n))


def affine_permutation(n: int, a: int) -> Permutation:
    """i -> a*i mod n; a bijection iff gcd(a, n) = 1."""
    if math.gcd(a, n) != 1:
        raise BijectionError(f"i -> {a}*i mod {n} is not a bijection: gcd({a}, {n}) != 1")
    i = np.arange(n)
    # a % n first, so the products stay below n^2 for any integer a.
    return Permutation(i * (a % n) % n if n else i)


def doubling_permutation(n: int) -> Permutation:
    """i -> 2i mod n; requires odd n."""
    return affine_permutation(n, 2)


def cubing_permutation(n: int) -> Permutation:
    """i -> i^3 mod n; requires n prime with gcd(3, n-1) = 1."""
    if not _is_prime(n):
        raise BijectionError(f"cubing map needs a prime modulus, got {n}")
    if math.gcd(3, n - 1) != 1:
        raise BijectionError(f"cubing map mod {n} is not a bijection: gcd(3, {n - 1}) != 1")
    # Python's pow: i**3 overflows int64 above 2^21.
    return Permutation([pow(i, 3, n) for i in range(n)])


def inversion_permutation(n: int) -> Permutation:
    """0 -> 0 and j -> j^-1 mod n for j != 0; requires n prime."""
    if not _is_prime(n):
        raise BijectionError(f"inversion map needs a prime modulus, got {n}")
    return Permutation([0] + [pow(j, n - 2, n) for j in range(1, n)])


def random_permutation(n: int, seed: int) -> Permutation:
    """A uniformly random bijection, reproducible from the seed.

    Fisher-Yates driven by the Philox counter-based generator, so the
    same seed yields the same permutation on every platform.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    fwd = list(range(n))
    # One call draws j_i in [0, i] for i = n - 1, ..., 1: the same stream as
    # one scalar draw per i.
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        fwd[i], fwd[j] = fwd[j], fwd[i]
    return Permutation(fwd)


def build_permutation(kind: str, n: int, *, a: int | None = None,
                      seed: int | None = None,
                      values: Sequence[int] | None = None) -> Permutation:
    """Dispatch on a named permutation family.

    Kinds: identity, doubling, affine (needs ``a``), cubing, inversion,
    random (needs ``seed``), explicit (needs ``values``). A parameter
    the kind does not take is a ValueError.
    """
    plain = {"identity": identity_permutation, "doubling": doubling_permutation,
             "cubing": cubing_permutation, "inversion": inversion_permutation}
    takes = {"affine": "a", "random": "seed", "explicit": "values"}.get(kind)
    if takes is None and kind not in plain:
        raise ValueError(f"unknown permutation kind {kind!r}")
    params = {"a": a, "seed": seed, "values": values}
    for name, value in params.items():
        if value is not None and name != takes:
            raise ValueError(f"{kind!r} permutation takes no parameter {name}")
    if takes is not None and params[takes] is None:
        raise ValueError(f"{kind} permutation needs parameter {takes}")
    if kind == "affine":
        return affine_permutation(n, a)
    if kind == "random":
        return random_permutation(n, seed)
    if kind == "explicit":
        if len(values) != n:
            raise BijectionError(f"explicit permutation has {len(values)} values, expected {n}")
        return Permutation(values)
    return plain[kind](n)


# Entries per block of rows parsed by ``load_matrix_csv``: 16 rows at n = 1024, where
# a load took 0.049 s at a tracemalloc peak of 0.49 MiB, against 0.052 s and 9.0 MiB
# parsing the whole file at once and 0.056 s and 4.2 MiB with blocks of 2^18 (2-vCPU VM).
_CSV_BLOCK = 1 << 14


def load_matrix_csv(path: str | Path) -> TransitionMatrix:
    """Load a transition matrix from CSV (n rows of n decimal entries) into a rows table.

    The first row gives n; the rest is parsed in blocks of about
    _CSV_BLOCK entries, each reduced to its nonzeros, so no n x n array
    is made. After each block, the first row included, the budgets are
    checked: the work on parsing n^2 cells (about 60 ns each), and the
    memory on what the chain holds so far, 48 bytes per nonzero (its row,
    column and weight, and their concatenation) and the rows table
    ``_pack`` makes, 16 bytes per entry of n rows as wide as the widest
    row so far. So a sparse file is held by its nonzeros, and a dense row
    is refused at its own block. Only the structural contract is
    checked; :func:`validate` reports which standing assumptions the
    loaded chain satisfies.
    """
    path = Path(path)
    n, rows, parts, nonzeros, widest = _CSV_BLOCK, 0, [], 0, 1
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "(loadtxt: input|Input line .*) contained no data")
            while (block := np.loadtxt(fh, delimiter=",", ndmin=2,
                                       max_rows=max(1, _CSV_BLOCK // n))).size:
                if rows and block.shape[1] != n:
                    raise StructureError(f"malformed matrix CSV {path}: the number of columns "
                                         f"changed from {n} to {block.shape[1]} at row {rows + 1}")
                n = block.shape[1]
                i, j = np.nonzero(block)
                parts.append((i + rows, j, block[i, j]))
                nonzeros, widest = nonzeros + i.size, int(np.bincount(i).max(initial=widest))
                _within_budget(f"matrix CSV {path}", "n", 60.0 * n * n,
                               48.0 * nonzeros + 16.0 * n * widest)
                rows += block.shape[0]
    except OSError as exc:
        raise StructureError(f"cannot read matrix file {path}: {exc}") from exc
    except ValueError as exc:  # numpy counts a block's rows from 1: count them from the file's
        msg = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + rows), str(exc))
        raise StructureError(f"malformed matrix CSV {path}: {msg}") from exc
    if not rows:
        raise StructureError(f"matrix CSV {path} holds no rows")
    _check_square((rows, n))
    return TransitionMatrix._of_rows(*_pack(n, *map(np.concatenate, zip(*parts))))


def save_matrix_csv(path: str | Path, P: TransitionMatrix) -> None:
    """Write n rows of n shortest round-trip decimals, each row from P's rows table.

    An absent entry is written ``0.0``, so the file is the one the dense
    rows would give, and :func:`load_matrix_csv` reads it back bit for bit.
    """
    cols, weights = P.rows
    zeros = ["0.0"] * P.n
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row_cols, row_weights in zip(cols.tolist(), weights.tolist()):
            line = zeros.copy()
            for j, v in zip(row_cols, row_weights):
                if v:
                    line[j] = repr(v)
            fh.write(",".join(line) + "\n")


def load_permutation(path: str | Path) -> Permutation:
    """Load a permutation: one line of n whitespace-separated 0-based integers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StructureError(f"cannot read permutation file {path}: {exc}") from exc
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise StructureError(f"malformed permutation file {path}: {exc}") from exc
    return Permutation(values)


def save_permutation(path: str | Path, f: Permutation) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(" ".join(map(str, f.forward.tolist())) + "\n")
