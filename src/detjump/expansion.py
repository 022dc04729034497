"""Vertex-expansion machinery: one-step expansions, boundaries, and scans.

Sets of states are bitmasks (bit i set <=> state i in the set), which keeps
the exhaustive enumerations cheap: a full scan over all subsets of size at
most n/2 is done with vectorized mask arithmetic and finishes in seconds
up to the cap n = 24.

The quantity of interest for a chain P and bijection f is the worst ratio
|E(f(E(A)))| / |A| over all A with |A| <= n/2, where E is the one-step
expansion of P. ``epsilon_star`` is that worst ratio minus one: the jump
chain built from (P, f) expands every small set by the factor
1 + epsilon_star.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chains import (
    Permutation,
    TransitionMatrix,
    build_lazy_cycle_walk,
    doubling_permutation,
    min_positive_entry,
    random_permutation,
)
from .errors import CapacityError, InvariantError, StructureError

# Exhaustive subset enumeration cap (2^23 masks of size <= n/2 at n = 24).
EXHAUSTIVE_CAP = 24
# Cap for enumerating all 2^n candidate sets B in boundary counting.
BOUNDARY_CAP = 16

_MASK_CHUNK = 1 << 16


@dataclass(frozen=True)
class StateSet:
    """An immutable subset of {0, ..., n-1} stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @staticmethod
    def from_indices(n: int, indices: Iterable[int]) -> "StateSet":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"state {i} out of range for n={n}")
            mask |= 1 << i
        return StateSet(n, mask)

    @staticmethod
    def empty(n: int) -> "StateSet":
        return StateSet(n, 0)

    @staticmethod
    def full(n: int) -> "StateSet":
        return StateSet(n, (1 << n) - 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __or__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.n, self.mask | other.mask)

    def __and__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "StateSet") -> "StateSet":
        return StateSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "StateSet":
        return StateSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def map_through(self, f: Permutation) -> "StateSet":
        """The image set {f(i) : i in self}."""
        mask = 0
        for i in range(self.n):
            if self.mask >> i & 1:
                mask |= 1 << f.forward[i]
        return StateSet(self.n, mask)


def _row_masks(P: TransitionMatrix) -> list[int]:
    """Per-state reachability masks: bit j of masks[i] <=> p[i][j] > 0."""
    supp = P.entries > 0.0
    weights = 1 << np.arange(P.n, dtype=object)
    return [int((row * weights).sum()) for row in supp]


def expand(P: TransitionMatrix, A: StateSet) -> StateSet:
    """One-step expansion E(A): states reachable from A in one P-step.

    With a positive diagonal this is always a superset of A.
    """
    if A.n != P.n:
        raise ValueError(f"set on {A.n} states, matrix on {P.n}")
    masks = _row_masks(P)
    out = 0
    for i in range(P.n):
        if A.mask >> i & 1:
            out |= masks[i]
    return StateSet(P.n, out)


def external_boundary(P: TransitionMatrix, A: StateSet) -> StateSet:
    """E(A) minus A."""
    return expand(P, A) - A


@dataclass(frozen=True)
class ExpansionReport:
    """Result of scanning subsets against the two-expansions-and-a-jump ratio.

    epsilon_star is the exact minimum of |E(f(E(A)))|/|A| - 1 over the
    checked family; in exhaustive mode that family is every A with
    1 <= |A| <= n/2, so the expansion condition holds with parameter
    epsilon if and only if epsilon <= epsilon_star. ``witness`` is the
    minimizing set (smallest bitmask on ties).
    """

    epsilon_star: float
    witness: StateSet
    mode: str
    sets_checked: int

    def holds_for(self, epsilon: float) -> bool:
        return epsilon <= self.epsilon_star


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a)


def _or_expand(masks: np.ndarray, adj: np.ndarray, n: int) -> np.ndarray:
    """Vectorized E over an array of bitmasks; adj[i] is the mask of row i."""
    out = np.zeros_like(masks)
    one = masks.dtype.type(1)
    for i in range(n):
        out |= np.where((masks >> i) & one, adj[i], 0).astype(masks.dtype)
    return out


def _permute_masks(masks: np.ndarray, f: Permutation) -> np.ndarray:
    out = np.zeros_like(masks)
    one = masks.dtype.type(1)
    for i in range(f.n):
        out |= (((masks >> i) & one) << f.forward[i]).astype(masks.dtype)
    return out


def _adj_array(P: TransitionMatrix) -> np.ndarray:
    supp = P.entries > 0.0
    return (supp.astype(np.uint64) << np.arange(P.n, dtype=np.uint64)).sum(
        axis=1, dtype=np.uint64
    )


def _ratio_scan_chunk(masks: np.ndarray, adj: np.ndarray, f: Permutation,
                      n: int) -> tuple[float, int, int] | None:
    """Min expansion ratio over one mask chunk: (ratio, witness, count)."""
    sizes = _popcount(masks)
    keep = (sizes >= 1) & (2 * sizes <= n)
    masks = masks[keep]
    if masks.size == 0:
        return None
    sizes = sizes[keep]
    efe = _or_expand(_permute_masks(_or_expand(masks, adj, n), f), adj, n)
    ratios = _popcount(efe).astype(np.float64) / sizes
    best = float(ratios.min())
    witness = int(masks[np.flatnonzero(ratios == best)[0]])
    return best, witness, int(masks.size)


def _ratio_scan_bigint(masks: Sequence[int], row_masks: list[int], f: Permutation,
                       n: int) -> tuple[float, int, int] | None:
    """Same scan over arbitrary-width Python int masks (any n)."""
    best: float | None = None
    witness = 0
    checked = 0
    for mask in masks:
        size = mask.bit_count()
        if size < 1 or 2 * size > n:
            continue
        checked += 1
        e1 = 0
        for i in range(n):
            if mask >> i & 1:
                e1 |= row_masks[i]
        fe = 0
        for i in range(n):
            if e1 >> i & 1:
                fe |= 1 << f.forward[i]
        e2 = 0
        for i in range(n):
            if fe >> i & 1:
                e2 |= row_masks[i]
        ratio = e2.bit_count() / size
        if best is None or ratio < best or (ratio == best and mask < witness):
            best = ratio
            witness = mask
    if best is None:
        return None
    return best, witness, checked


def check_expansion(P: TransitionMatrix, f: Permutation, epsilon: float | None = None, *,
                    mode: str = "exhaustive", num_samples: int | None = None,
                    seed: int | None = None,
                    include: Sequence[StateSet] = (),
                    threads: int = 1) -> ExpansionReport:
    """Scan subsets A for the worst |E(f(E(A)))|/|A| ratio.

    Exhaustive mode visits every A with 1 <= |A| <= n/2 and needs
    n <= EXHAUSTIVE_CAP. Sampled mode draws ``num_samples`` subsets,
    spread as evenly as possible over the sizes 1 .. n//2 and uniform
    within each size, using a seeded Philox stream; it is a
    lower-confidence mode whose epsilon_star can only overestimate the
    exhaustive value. Sets in ``include`` are always checked on top.

    ``epsilon`` is the value the caller cares about; the report answers
    any such query via ``holds_for``, so it does not change the scan.
    """
    n = P.n
    if f.n != n:
        raise ValueError(f"permutation on {f.n} states, matrix on {n}")
    if n < 2:
        raise StructureError(f"expansion needs at least two states, got n={n}")
    if epsilon is not None and epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")

    candidates: list[tuple[float, int, int]] = []
    sets_checked = 0

    if mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive expansion scan capped at n <= {EXHAUSTIVE_CAP}, got n={n}; "
                "use sampled mode"
            )
        adj = _adj_array(P)
        total = 1 << n
        chunks = [(lo, min(lo + _MASK_CHUNK, total)) for lo in range(1, total, _MASK_CHUNK)]

        def work(bounds: tuple[int, int]):
            lo, hi = bounds
            return _ratio_scan_chunk(np.arange(lo, hi, dtype=np.uint64), adj, f, n)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(work, chunks))
        else:
            results = [work(c) for c in chunks]
        for res in results:
            if res is not None:
                candidates.append(res)
                sets_checked += res[2]
    elif mode == "sampled":
        if num_samples is None or seed is None:
            raise ValueError("sampled mode needs num_samples and seed")
        rng = np.random.Generator(np.random.Philox(seed))
        strata = list(range(1, n // 2 + 1))
        picks: list[int] = []
        for t in range(num_samples):
            size = strata[t % len(strata)]
            chosen = rng.choice(n, size=size, replace=False)
            picks.append(sum(1 << int(i) for i in chosen))
        if picks:
            res = _ratio_scan_bigint(picks, _row_masks(P), f, n)
            if res is not None:
                candidates.append(res)
                sets_checked += res[2]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    for s in include:
        if s.n != n:
            raise ValueError(f"include set on {s.n} states, matrix on {n}")
    extra = [s.mask for s in include]
    if extra:
        res = _ratio_scan_bigint(extra, _row_masks(P), f, n)
        if res is not None:
            candidates.append(res)
            sets_checked += res[2]

    if not candidates:
        raise ValueError("no subsets checked (empty sample and include lists?)")
    best, witness, _ = min(candidates, key=lambda c: (c[0], c[1]))
    return ExpansionReport(
        epsilon_star=best - 1.0,
        witness=StateSet(n, witness),
        mode=mode,
        sets_checked=sets_checked,
    )


@dataclass(frozen=True)
class DoublingGap:
    """The bounded-expansion family for the doubling map on the 4m-1 cycle.

    ``witness`` is the set A whose double expansion around the doubling
    jump gains only 6 states, capping the achievable expansion parameter
    at epsilon_cap = 6/(2m-2), which vanishes as m grows.
    """

    n: int
    witness: StateSet
    size_a: int
    size_efe: int
    epsilon_cap: float


def doubling_counterexample(m: int) -> DoublingGap:
    """Build the witness family showing the doubling jump does not expand."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    n = 4 * m - 1
    P = build_lazy_cycle_walk(n)
    f = doubling_permutation(n)
    A = StateSet.from_indices(n, list(range(1, m)) + list(range(2 * m + 1, 3 * m)))
    ea = expand(P, A)
    fea = ea.map_through(f)
    efe = expand(P, fea)
    # Cross-check the primitives against each other before reporting.
    if not (ea.mask & A.mask) == A.mask:
        raise InvariantError("expansion lost members of A")
    if fea.size != ea.size:
        raise InvariantError("bijection image changed the set size")
    return DoublingGap(
        n=n,
        witness=A,
        size_a=A.size,
        size_efe=efe.size,
        epsilon_cap=6.0 / (2 * m - 2),
    )


def boundary_histogram(P: TransitionMatrix) -> dict[int, int]:
    """Count, for every realized boundary mask, the sets B with that boundary.

    Enumerates all 2^n subsets B and buckets them by the mask of
    E(B) minus B. Capped at n <= BOUNDARY_CAP.
    """
    n = P.n
    if n > BOUNDARY_CAP:
        raise CapacityError(
            f"boundary enumeration capped at n <= {BOUNDARY_CAP}, got n={n}"
        )
    adj = _adj_array(P)
    masks = np.arange(1 << n, dtype=np.uint64)
    bnd = _or_expand(masks, adj, n) & ~masks
    values, counts = np.unique(bnd, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def count_sets_with_boundary(P: TransitionMatrix, A: StateSet) -> int:
    """Exact number of sets B whose external boundary is A."""
    if A.n != P.n:
        raise ValueError(f"set on {A.n} states, matrix on {P.n}")
    return boundary_histogram(P).get(A.mask, 0)


def max_degree(P: TransitionMatrix) -> int:
    """Max number of off-diagonal neighbors; checked against the 1/delta cap.

    Every positive row entry is at least delta and rows sum to one, so
    for a lazy chain degree + 1 can never exceed 1/delta.
    """
    supp = P.entries > 0.0
    off = supp.copy()
    np.fill_diagonal(off, False)
    deg = int(off.sum(axis=1).max())
    delta = min_positive_entry(P)
    if deg + 1 > 1.0 / delta + 1e-9:
        raise InvariantError(
            f"degree bound violated: degree {deg} + 1 exceeds 1/delta = {1.0 / delta!r}"
        )
    return deg


@dataclass(frozen=True)
class BijectionScan:
    """Outcome of testing many random bijections against one epsilon."""

    epsilon: float
    trials: int
    fraction_good: float | None
    failures: tuple[int, ...]
    rows: tuple[tuple[int, float, bool], ...]  # (seed, epsilon_star, good)


def scan_random_bijections(P: TransitionMatrix, epsilon: float, trials: int,
                           seed: int, *, threads: int = 1) -> BijectionScan:
    """Fraction of seeded random bijections meeting the expansion condition.

    Trial t uses the bijection seeded with ``seed + t`` and an exhaustive
    expansion scan, so every failing seed can be replayed exactly.
    With trials = 0 the fraction is undefined and reported as None.
    """
    if P.n < 2:
        raise StructureError(f"expansion needs at least two states, got n={P.n}")
    if P.n > EXHAUSTIVE_CAP:
        raise CapacityError(
            f"scan needs exhaustive checks, capped at n <= {EXHAUSTIVE_CAP}, got n={P.n}"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rows: list[tuple[int, float, bool]] = []
    failures: list[int] = []
    for t in range(trials):
        trial_seed = seed + t
        f = random_permutation(P.n, trial_seed)
        report = check_expansion(P, f, epsilon, threads=threads)
        good = report.holds_for(epsilon)
        rows.append((trial_seed, report.epsilon_star, good))
        if not good:
            failures.append(trial_seed)
    fraction = (sum(1 for r in rows if r[2]) / trials) if trials else None
    return BijectionScan(
        epsilon=epsilon,
        trials=trials,
        fraction_good=fraction,
        failures=tuple(failures),
        rows=tuple(rows),
    )
