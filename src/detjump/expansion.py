"""Vertex-expansion machinery: one-step expansions, boundaries, and scans.

A set of states is a bitmask (bit i set <=> state i in the set) where it is
named, and a 0/1 row where it is scanned: a block of sets is a (sets x n)
0/1 matrix, and every subset quantity is one matrix product on that block.
E is a union homomorphism, so E(A) is the union of the supports of A's
rows of P, and E(f(E(A))) is the support of ``rows @ M`` for the atom
matrix M whose row i is E(f(E({i}))). A full scan over all subsets of size
at most n/2 finishes in seconds up to the cap n = 24.

The quantity of interest for a chain P and bijection f is the worst ratio
|E(f(E(A)))| / |A| over all A with |A| <= n/2, where E is the one-step
expansion of P. ``epsilon_star`` is that worst ratio minus one: the jump
chain built from (P, f) expands every small set by the factor
1 + epsilon_star.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .chains import (
    Permutation,
    TransitionMatrix,
    _index_array,
    _dense_array,
    _nonzeros,
    build_lazy_cycle_walk,
    doubling_permutation,
    random_permutation,
)
from .errors import CapacityError, InvariantError, StructureError

# Exhaustive subset enumeration cap (2^23 masks of size <= n/2 at n = 24).
EXHAUSTIVE_CAP = 24
# Cap for enumerating all 2^n candidate sets B in boundary counting.
BOUNDARY_CAP = 16
# Sampled subsets per scan; one draw costs about 15 us at n = 8 and 45 us at n = 1024.
SAMPLE_CAP = 1 << 18
# Work of a random-bijection scan, trials x (sets per trial + SCAN_TRIAL_SETS).
# A trial's fixed cost (its bijection, its atom matrix) is about 120 us, the
# time of some 1,300 set checks; SCAN_TRIAL_SETS stands for it, so that many
# trials on a tiny chain are bounded too.
SCAN_WORK_CAP = 1 << 29
SCAN_TRIAL_SETS = 1 << 11

# Entries (sets x states) per block of rows: 10,922 sets at n = 24 and 256 at
# n = 1024, so a block's rows and product stay near 1 MiB each for any n and
# any family size. Blocks of 2^20 entries ran no faster at n = 24 and raised
# the subsets benchmark's peak RSS from about 77 to 104 MiB.
SUBSET_BLOCK = 1 << 18


@dataclass(frozen=True)
class StateSet:
    """An immutable subset of {0, ..., n-1} stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        for name in ("n", "mask"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"state set {name} must be an integer, got {value!r:.80}")
            object.__setattr__(self, name, int(value))
        if self.n < 0:
            raise ValueError(f"state set n must be >= 0, got {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @staticmethod
    def from_indices(n: int, indices: Iterable[int]) -> "StateSet":
        """The set of the given states; ValueError unless each is an integer in [0, n)."""
        states = _index_array(list(indices), n, ValueError, "state set")
        row = np.zeros((1, n), dtype=np.uint8)
        row[0, states] = 1
        return StateSet(n, int(row_masks(row)[0]))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def map_through(self, f: Permutation) -> "StateSet":
        """The image set {f(i) : i in self}: state j is in it when f^-1(j) is in self."""
        if f.n != self.n:
            raise ValueError(f"set on {self.n} states, bijection on {f.n}")
        return StateSet(self.n, int(row_masks(set_rows([self.mask], self.n)[:, f.inverse])[0]))


# --- the subset engine -----------------------------------------------------------
#
# 0/1 products run in float32, exact while n < 2^24; the bottleneck scan in
# spectral.py runs its weighted products in float64.

def set_rows(masks: np.ndarray | Sequence[int], n: int, dtype=np.float32) -> np.ndarray:
    """The (sets x n) 0/1 matrix of some masks: a uint64 array (n <= 64) or Python ints."""
    if isinstance(masks, np.ndarray):
        data = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    else:
        width = (n + 7) // 8
        data = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                             dtype=np.uint8).reshape(-1, width)
    return np.unpackbits(data, axis=1, count=n, bitorder="little").astype(dtype)


def row_masks(rows: np.ndarray) -> np.ndarray:
    """The masks of the nonzero pattern of each row: uint64 for n <= 64, else Python ints."""
    packed = np.packbits(rows != 0, axis=1, bitorder="little")
    if rows.shape[1] <= 64:
        words = np.zeros((rows.shape[0], 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        return words.view("<u8")[:, 0]
    return np.array([int.from_bytes(r.tobytes(), "little") for r in packed], dtype=object)


def _block_sets(n: int) -> int:
    return max(1, SUBSET_BLOCK // n)


def mask_blocks(n: int) -> Iterator[np.ndarray]:
    """Every mask 0 .. 2^n - 1 in increasing order, as uint64 blocks."""
    step = _block_sets(n)
    for lo in range(0, 1 << n, step):
        yield np.arange(lo, min(lo + step, 1 << n), dtype=np.uint64)


def _check_exhaustive_size(n: int, scan: str) -> None:
    """Refuse a scan of every small subset of n states unless 2 <= n <= EXHAUSTIVE_CAP."""
    if n < 2:
        raise StructureError(f"{scan} needs at least two states, got n={n}")
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"{scan} capped at n <= {EXHAUSTIVE_CAP}, got n={n}")


def small_set_blocks(n: int, dtype=np.float32) -> Iterator[np.ndarray]:
    """Rows of every A with 1 <= |A| <= n/2, block by block in increasing mask order."""
    for masks in mask_blocks(n):
        sizes = np.bitwise_count(masks)
        yield set_rows(masks[(sizes >= 1) & (2 * sizes <= n)], n, dtype)


def sampled_blocks(n: int, num_samples: int, seed: int) -> Iterator[np.ndarray]:
    """Rows of the sampled family, drawn block by block in one Philox stream.

    Draw t is ``choice(n, 1 + t % (n // 2), replace=False)``: the sizes
    1 .. n//2 in turn, uniform within a size. Drawing in blocks keeps the
    call order, so the family does not depend on the block size. More than
    SAMPLE_CAP draws raise CapacityError before the first one.
    """
    if num_samples > SAMPLE_CAP:
        raise CapacityError(f"{num_samples} sampled sets are over SAMPLE_CAP={SAMPLE_CAP}")
    rng = np.random.Generator(np.random.Philox(seed))
    step = _block_sets(n)
    for lo in range(0, num_samples, step):
        rows = np.zeros((min(step, num_samples - lo), n), dtype=np.float32)
        for r in range(rows.shape[0]):
            rows[r, rng.choice(n, size=1 + (lo + r) % (n // 2), replace=False)] = 1
        yield rows


def list_blocks(masks: Sequence[int], n: int) -> Iterator[np.ndarray]:
    """Rows of a list of Python-int masks, block by block."""
    step = _block_sets(n)
    for lo in range(0, len(masks), step):
        yield set_rows(masks[lo:lo + step], n)


def min_ratio(blocks: Iterable[np.ndarray],
              numerator: Callable[[np.ndarray], np.ndarray]) -> tuple[tuple, int] | None:
    """((num, size, mask), sets): the row minimizing numerator / |A| over all blocks.

    ``numerator`` maps a block of rows to one value per row. Ratios compare
    by cross-multiplication, num_a * size_b < num_b * size_a, and the
    smallest mask wins ties; with int64 numerators both are exact. Within
    a block the float64 quotient locates the minimum: distinct ratios stay
    distinct and in order there while every num * size < 2^52, which
    every caller guarantees.
    """
    best = None
    sets = 0
    for rows in blocks:
        if not len(rows):
            continue
        sets += len(rows)
        size = (rows @ np.ones(rows.shape[1], rows.dtype)).astype(np.int64)
        num = numerator(rows)
        j = int(np.argmin(num / size))
        tied = num * size[j] == num[j] * size
        cand = (num[j].item(), int(size[j]), int(row_masks(rows[tied]).min()))
        if best is None or (cand[0] * best[1], cand[2]) < (best[0] * cand[1], best[2]):
            best = cand
    return None if best is None else (best, sets)


def expand(P: TransitionMatrix, A: StateSet) -> StateSet:
    """One-step expansion E(A): states reachable from A in one P-step.

    E(A) is the union of the nonzero columns of A's rows of P, read from
    P's rows table, so it needs no n x n support. With a positive diagonal
    it is always a superset of A.
    """
    if A.n != P.n:
        raise ValueError(f"set on {A.n} states, matrix on {P.n}")
    cols, weights = P.rows
    inside = set_rows([A.mask], P.n, bool)[0]
    reached = np.zeros((1, P.n), dtype=np.uint8)
    reached[0, cols[inside][weights[inside] != 0]] = 1
    return StateSet(P.n, int(row_masks(reached)[0]))


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


def _atom_matrix(P: TransitionMatrix, f: Permutation) -> np.ndarray:
    """The float32 0/1 matrix M whose row i is E(f(E({i}))), written from P's rows.

    Row i is the union of N(f(j)) over j in N(i), N(i) the nonzero columns
    of row i of P: one write of 1 per edge i -> j and nonzero of row f(j).
    It equals (S[:, f^-1] @ S > 0) for S the support of P, with no support
    and no product; the scan that follows holds M alone.
    """
    cols, weights = P.rows
    i, j, _ = _nonzeros(cols, weights)
    k = f.forward[j]  # edge i -> j, then the jump j -> f(j)
    atoms = _dense_array(P.n, np.float32)
    for u in range(cols.shape[1]):
        hit = weights[k, u] != 0
        atoms[i[hit], cols[k[hit], u]] = 1
    return atoms


def check_expansion(P: TransitionMatrix, f: Permutation, *,
                    mode: str = "exhaustive", num_samples: int | None = None,
                    seed: int | None = None,
                    include: Sequence[StateSet] = ()) -> ExpansionReport:
    """Scan subsets A for the worst |E(f(E(A)))|/|A| ratio.

    Exhaustive mode visits every A with 1 <= |A| <= n/2 and needs
    n <= EXHAUSTIVE_CAP. Sampled mode draws ``num_samples`` subsets,
    spread as evenly as possible over the sizes 1 .. n//2 and uniform
    within each size, using a seeded Philox stream; it is a
    lower-confidence mode whose epsilon_star can only overestimate the
    exhaustive value; exhaustive mode takes no ``num_samples`` or
    ``seed``. Sets in ``include`` are checked on top, except those
    whose size is outside 1 .. n/2, which are skipped.
    Each block of sets is counted by one product with the atom matrix M,
    whose row i is E(f(E({i}))) (``_atom_matrix``).
    """
    n = P.n
    if f.n != n:
        raise ValueError(f"permutation on {f.n} states, matrix on {n}")
    if n < 2:
        raise StructureError(f"expansion needs at least two states, got n={n}")

    if mode == "exhaustive":
        if num_samples is not None or seed is not None:
            raise ValueError("exhaustive mode takes no num_samples or seed")
        _check_exhaustive_size(n, "exhaustive expansion scan")
        family = small_set_blocks(n)
    elif mode == "sampled":
        if num_samples is None or seed is None:
            raise ValueError("sampled mode needs num_samples and seed")
        family = sampled_blocks(n, num_samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    for s in include:
        if s.n != n:
            raise ValueError(f"include set on {s.n} states, matrix on {n}")
    extra = list_blocks([s.mask for s in include if 1 <= s.size <= n // 2], n)

    atoms = _atom_matrix(P, f)

    def efe_size(rows: np.ndarray) -> np.ndarray:
        efe = rows @ atoms
        np.minimum(efe, 1, out=efe)
        return (efe @ np.ones(n, np.float32)).astype(np.int64)

    found = min_ratio(itertools.chain(family, extra), efe_size)
    if found is None:
        raise ValueError("no subsets checked (empty sample and include lists?)")
    (size_efe, size, witness), sets_checked = found
    return ExpansionReport(
        epsilon_star=size_efe / size - 1.0,
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
    E(B) minus B, so ``.get(A.mask, 0)`` is the number of sets whose
    external boundary is A. Capped at n <= BOUNDARY_CAP.
    """
    n = P.n
    if n > BOUNDARY_CAP:
        raise CapacityError(
            f"boundary enumeration capped at n <= {BOUNDARY_CAP}, got n={n}"
        )
    S = (P.entries > 0.0).astype(np.float32)
    hist: dict[int, int] = {}
    for masks in mask_blocks(n):
        rows = set_rows(masks, n)
        values, counts = np.unique(row_masks((rows @ S) * (1 - rows)), return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            hist[v] = hist.get(v, 0) + c
    return dict(sorted(hist.items()))


@dataclass(frozen=True)
class BijectionScan:
    """Outcome of testing many random bijections against one epsilon."""

    fraction_good: float | None
    rows: tuple[tuple[int, float, bool], ...]  # (seed, epsilon_star, good)


def scan_random_bijections(P: TransitionMatrix, epsilon: float, trials: int,
                           seed: int) -> BijectionScan:
    """Fraction of seeded random bijections meeting the expansion condition.

    Trial t uses the bijection seeded with ``seed + t`` and an exhaustive
    expansion scan, so every failing seed can be replayed exactly.
    With trials = 0 the fraction is undefined and reported as None.
    ``epsilon`` must be finite and nonnegative.
    """
    _check_exhaustive_size(P.n, "random-bijection scan")
    if not 0 <= epsilon < math.inf:  # false for nan
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    sets = sum(math.comb(P.n, s) for s in range(1, P.n // 2 + 1))
    if trials * (sets + SCAN_TRIAL_SETS) > SCAN_WORK_CAP:
        raise CapacityError(
            f"{trials} trials of {sets} sets each are over SCAN_WORK_CAP={SCAN_WORK_CAP} "
            f"(each trial counts SCAN_TRIAL_SETS={SCAN_TRIAL_SETS} on top)"
        )
    rows: list[tuple[int, float, bool]] = []
    for t in range(trials):
        trial_seed = seed + t
        f = random_permutation(P.n, trial_seed)
        report = check_expansion(P, f)
        rows.append((trial_seed, report.epsilon_star, epsilon <= report.epsilon_star))
    fraction = (sum(1 for r in rows if r[2]) / trials) if trials else None
    return BijectionScan(fraction_good=fraction, rows=tuple(rows))
