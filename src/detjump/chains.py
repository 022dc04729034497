"""Finite state spaces, transition matrices, bijections, and chain builders.

State spaces are always {0, ..., n-1}. A transition matrix is dense,
row-stochastic, 64-bit float. Structured states (hypercube bit vectors)
are encoded by a documented index map. Everything here is immutable after
construction and safe to share across threads.

The standing assumptions checked by :func:`validate` are:

1. irreducible (support graph strongly connected); together with a
   positive diagonal this also gives aperiodicity,
2. symmetric support: p[i][j] > 0 iff p[j][i] > 0,
3. positive diagonal: p[i][i] > 0 for every i,
4. uniform stationary distribution, i.e. the matrix is doubly stochastic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BijectionError, CapacityError, StructureError

# Dense-matrix size cap: n*n float64 entries stay comfortably in memory.
MATRIX_SIZE_CAP = 4096
# Tolerance for row/column sums of stochastic matrices.
STOCHASTIC_TOL = 1e-9
# Tolerance on each row of the recurrence walk's marginals.
DISTRIBUTION_TOL = 1e-12


def _checked_rows(a: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Make the 2-D ``a`` read-only and return it once each row is a probability vector.

    Entries must lie in [0, 1 + tol] and each row must sum to 1 within
    ``tol``; ``what`` names the array in the message for a non-finite
    entry. Range and finiteness come from one min/max pair: a NaN or an
    infinity makes one of them non-finite. The temporaries that locate an
    offending entry are made only on failure.
    """
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise StructureError(f"{what} contains non-finite entries")
    if lo < 0.0 or hi > 1.0 + tol:
        at = np.unravel_index(int(np.argmin(a)) if lo < 0.0 else int(np.argmax(a)), a.shape)
        raise StructureError(
            f"entry out of [0, 1] at ({', '.join(map(str, at))}): {float(a[at])!r}")
    sums = a.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if bad.size:
        i = int(bad[0])
        raise StructureError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {tol}")
    a.setflags(write=False)
    return a


def _checked_stochastic(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only and return it once it is a square row-stochastic matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructureError(f"transition matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise StructureError("transition matrix must have at least one state")
    if n > MATRIX_SIZE_CAP:
        raise CapacityError(
            f"n={n} exceeds the dense matrix cap MATRIX_SIZE_CAP={MATRIX_SIZE_CAP}"
        )
    return _checked_rows(a, STOCHASTIC_TOL, "transition matrix")


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A dense row-stochastic matrix over states {0, ..., n-1}.

    Construction enforces only the structural contract (square shape,
    entries in [0, 1], rows summing to 1 within ``STOCHASTIC_TOL``).
    The four standing chain assumptions are checked separately by
    :func:`validate`, so that a malformed chain can still be loaded
    and reported on.

    ``entries`` is a read-only C-order float64 array. The constructor
    copies the array it is given, so the caller may go on changing its
    own. The package's builders (the cycle and hypercube walks,
    :func:`compose`, :func:`load_matrix_csv`, the symmetrized kernel and
    the register chain) hand over the fresh array they built through
    :meth:`_take`, which checks it the same way without copying it.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.float64, copy=True, order="C")
        object.__setattr__(self, "entries", _checked_stochastic(a))

    @classmethod
    def _take(cls, a: np.ndarray) -> "TransitionMatrix":
        """Wrap a fresh C-order float64 array that nothing else refers to, without a copy."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", _checked_stochastic(a))
        return m

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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
    """Breadth-first levels from state 0 over the edges us -> vs; -1 if unreached."""
    dist = np.full(states, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(states, dtype=bool)
    frontier[0] = True
    level = 0
    while True:
        level += 1
        reached = vs[frontier[us]]
        reached = reached[dist[reached] < 0]
        if reached.size == 0:
            return dist
        dist[reached] = level
        frontier = np.zeros(states, dtype=bool)
        frontier[reached] = True


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

    Both support checks read the edge list, the row-major flat indices
    u * n + v of the positive entries. The support is symmetric when the
    reversed edges, sorted, are that same list. Then every state reached
    from 0 also reaches 0, so the backward search runs only on a
    one-sided support.
    """
    a = P.entries
    n = P.n
    violations: dict[str, tuple[int, int]] = {}

    edges = np.flatnonzero(a > 0.0)
    us, vs = np.divmod(edges, n)
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

    diag = np.diag(a)
    positive_diagonal = bool(np.all(diag > 0.0))
    if not positive_diagonal:
        i = int(np.flatnonzero(diag <= 0.0)[0])
        violations["positive_diagonal"] = (i, i)
    # A positive diagonal gives period 1 at once; only other chains pay for the gcd.
    aperiodic = irreducible and (positive_diagonal or _successor_period(n, us, vs) == 1)

    colsums = a.sum(axis=0)
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
    if n > MATRIX_SIZE_CAP:
        raise CapacityError(f"lazy cycle n={n} is over MATRIX_SIZE_CAP={MATRIX_SIZE_CAP}")
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 1.0 / 3.0
    a[idx, (idx + 1) % n] = 1.0 / 3.0
    a[idx, (idx - 1) % n] = 1.0 / 3.0
    return TransitionMatrix._take(a)


def build_hypercube_walk(d: int) -> TransitionMatrix:
    """Lazy walk on {0,1}^d: stay or flip one coordinate, each 1/(d+1).

    State x is encoded as the integer with bit i equal to coordinate i,
    so flipping coordinate i maps index s to s XOR 2^i.
    """
    if d < 1:
        raise ValueError(f"hypercube walk needs d >= 1, got {d}")
    if d > MATRIX_SIZE_CAP.bit_length() - 1:  # 2^d > MATRIX_SIZE_CAP, decided without 2^d
        raise CapacityError(
            f"hypercube d={d} has 2^{d} states, over MATRIX_SIZE_CAP={MATRIX_SIZE_CAP}"
        )
    n = 1 << d
    a = np.zeros((n, n))
    p = 1.0 / (d + 1)
    idx = np.arange(n)
    a[idx, idx] = p
    for i in range(d):
        a[idx, idx ^ (1 << i)] = p
    return TransitionMatrix._take(a)


def min_positive_entry(P: TransitionMatrix) -> float:
    """The smallest strictly positive transition probability."""
    least = float(np.min(P.entries, where=P.entries > 0.0, initial=np.inf))
    if least == np.inf:
        raise StructureError("matrix has no positive entries")
    return least


def compose(f: Permutation, P: TransitionMatrix) -> TransitionMatrix:
    """One step of the jump-then-move chain: apply f, then take a P-step.

    Row i of the result is row f(i) of P. Composing with any bijection
    preserves double stochasticity.
    """
    if f.n != P.n:
        raise StructureError(f"dimension mismatch: permutation on {f.n}, matrix on {P.n}")
    return TransitionMatrix._take(P.entries[f.forward])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


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


def load_matrix_csv(path: str | Path) -> TransitionMatrix:
    """Load a transition matrix from CSV (n rows of n decimal entries).

    Only the structural contract is checked; :func:`validate` reports
    which standing assumptions the loaded chain satisfies.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise StructureError(f"cannot read matrix file {path}: {exc}") from exc
    except ValueError as exc:
        raise StructureError(f"malformed matrix CSV {path}: {exc}") from exc
    if not raw.size:
        raise StructureError(f"matrix CSV {path} holds no rows")
    return TransitionMatrix._take(raw)


def save_matrix_csv(path: str | Path, P: TransitionMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in P.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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
