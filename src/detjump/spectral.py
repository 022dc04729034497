"""Spectral analysis of the jump chain via its symmetrized kernel.

For a chain P and bijection f, the composed step is Q = (permutation
matrix of f) times P. Convergence of Q is controlled through the
auxiliary kernel

    R = (L @ L) @ (L @ L).T   with   L = P @ (permutation matrix of f),

which is symmetric, positive semidefinite, doubly stochastic, and has
second eigenvalue lambda2 < 1 for any valid (P, f). Two total-variation
bounds are provided: one driven directly by lambda2, and one driven by a
verified expansion parameter epsilon through the Cheeger route
Phi >= epsilon * delta^4 and lambda2 <= 1 - Phi^2 / 2.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .chains import (WORK_CAP, Permutation, TransitionMatrix, _dense_array, _nonzeros, _pack,
                     _within_budget, min_positive_entry)
from .errors import InvariantError, StructureError
from .expansion import StateSet, _exhaustive_ns, min_ratio, small_set_blocks

# Symmetry tolerance for kernels fed to the eigensolver.
SYMMETRY_TOL = 1e-9
# Tolerance on the principal eigenvalue / eigenvector checks.
EIGEN_TOL = 1e-8
# Largest q tried when recovering an integer kernel K = round(q^4 R).
SCALE_ROOT_CAP = 1 << 10


def _block_pairs(n: int) -> Iterator[tuple[slice, slice]]:
    """Square blocks (I, J), I <= J, of about _BLOCK_ENTRIES entries covering the upper triangle."""
    side = math.isqrt(_BLOCK_ENTRIES)
    for lo in range(0, n, side):
        for lo2 in range(lo, n, side):
            yield slice(lo, lo + side), slice(lo2, lo2 + side)


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a.T|, one pair of blocks at a time."""
    return max(float(np.abs(a[I, J] - a[J, I].T).max()) for I, J in _block_pairs(a.shape[0]))


def _check_kernel(n: int) -> None:
    """Refuse the symmetrized kernel of an n-state chain and its eigensolve over the budgets.

    On the 2-vCPU VM A @ A.T takes about 0.01 ns and ``eigvalsh`` 0.065 ns
    (n = 1024, 2048) to 0.11 ns (n = 4096) per n^3; at most three n x n
    arrays are alive: R, beside A, L or the eigensolver's copy of R,
    and one more while R is symmetrized.
    """
    _within_budget("symmetrized kernel and its eigensolve", "n", 0.12 * n**3, 24 * n * n)


def symmetrized_kernel(P: TransitionMatrix, f: Permutation) -> TransitionMatrix:
    """The doubly stochastic, symmetric PSD kernel attached to (P, f).

    Computed as A @ A.T with A = L @ L and L[i][j] = p[i][f^-1(j)]
    (a P-step followed by the jump), L written straight from P's rows:
    L[i, f(c)] = p[i][c] for each nonzero of row i. numpy forms A @ A.T as
    a symmetric rank-k update that computes one triangle and mirrors it,
    so R is exactly symmetric as formed; ``second_eigenvalue`` still
    measures the asymmetry and symmetrizes a copy when there is any. L is
    dropped once A exists and A once R exists, and R is clipped to [0, 1]
    in place and stored as the returned matrix's dense array without a
    copy, so at most two n x n arrays are alive at once. The budgets are
    checked first (``_check_kernel``).
    """
    if f.n != P.n:
        raise ValueError(f"permutation on {f.n} states, matrix on {P.n}")
    _check_kernel(P.n)
    i, c, p = _nonzeros(*P.rows)
    L = _dense_array(P.n)
    L[i, f.forward[c]] = p
    A = L @ L
    del L
    R = A @ A.T
    del A
    np.clip(R, 0.0, 1.0, out=R)
    return TransitionMatrix._of_dense(R)


def second_eigenvalue(R: TransitionMatrix) -> float:
    """Second largest eigenvalue of a symmetric stochastic kernel.

    Uses a full symmetric eigendecomposition of (R + R.T)/2. The
    asymmetry max |R - R.T| is measured one pair of blocks at a time;
    when it is exactly 0, as ``symmetrized_kernel`` forms it, (R + R.T)/2
    is R itself and R's own array goes to the eigensolver. Otherwise
    (R + R.T)/2 is formed as a new array, R + R.T halved in place. The
    principal eigenvalue must be 1 within EIGEN_TOL with the all-ones
    vector as eigenvector (checked as R @ 1 = 1, which is robust when the
    top eigenvalue is degenerate). A degenerate second eigenvalue at 1 is legal input but
    flagged with a warning, since it cannot arise from a validated chain.
    """
    a = R.entries
    asym = _asymmetry(a)
    if asym > SYMMETRY_TOL:
        raise InvariantError(f"kernel asymmetry {asym!r} exceeds {SYMMETRY_TOL}")
    if asym != 0.0:
        # (x + y) * 0.5 rounds the same real number as (x + y) / 2, and x + y
        # equals y + x, so this is the formula bit for bit and exactly symmetric.
        a = a + a.T
        a *= 0.5
    ones = np.ones(R.n)
    if float(np.abs(a @ ones - ones).max()) > EIGEN_TOL:
        raise InvariantError("all-ones vector is not fixed by the kernel")
    w = np.linalg.eigvalsh(a)
    if abs(float(w[-1]) - 1.0) > EIGEN_TOL:
        raise InvariantError(
            f"principal eigenvalue {float(w[-1])!r} is not 1 within {EIGEN_TOL}"
        )
    if R.n == 1:
        return 0.0
    lam2 = float(w[-2])
    if lam2 > 1.0 - EIGEN_TOL:
        warnings.warn(
            "second eigenvalue is degenerate at 1; kernel cannot come from a valid chain",
            stacklevel=2,
        )
    return lam2


def integer_kernel(R: TransitionMatrix) -> tuple[np.ndarray, int] | None:
    """(K, D): R in exact integer units 1/D, or None when R has no such form.

    D = q^4 for the smallest q <= SCALE_ROOT_CAP such that K = round(D R)
    is symmetric, has every row summing to exactly D, and is within
    min(1e-3, 1e-9 D) of D R entrywise: float noise in R is about 1e-15,
    and a fixed slack of 1e-3 would accept too small a q. R = (LL)(LL)^T
    has degree four in P, so q^4 R is integral whenever q P is: q = 3 for
    lazy cycles, d + 1 for the d-dimensional hypercube. The search stops
    once n^2 D reaches 2^53, so every cut of K, times a set size, stays
    exact.
    """
    a = R.entries
    for q in range(1, SCALE_ROOT_CAP + 1):
        D = q**4
        if R.n * R.n * D >= 1 << 53:
            break
        slack = min(1e-3, 1e-9 * D)
        if float(np.abs(D * a[0] - np.rint(D * a[0])).max()) > slack:
            continue  # row 0 rules most q out at O(n) cost, so no scale stays cheap at large n
        K = np.rint(D * a)
        if (float(np.abs(D * a - K).max()) <= slack
                and np.array_equal(K, K.T) and np.all(K.sum(axis=1) == D)):
            return K, D
    return None


def cheeger_constant(R: TransitionMatrix) -> tuple[float, StateSet]:
    """Exact bottleneck ratio of a symmetric doubly stochastic kernel.

    Minimizes (1/|A|) * sum of R[i][j] over i in A, j outside A, over
    every A with 1 <= |A| <= n/2 (uniform stationary measure). Returns
    the minimum and one minimizing set, the smallest bitmask on ties.
    The cuts of a block of rows are rows @ deg - rowsum((rows @ K) * rows),
    deg the row sums of K: exact int64 values in units of 1/D on the
    integer kernel K of ``integer_kernel``, so ties are exact; for a
    kernel without one the scan runs in float64 on R itself (D = 1), and
    ties hold only up to rounding. Exhaustive, and refused over the work budget.
    """
    _exhaustive_ns(R.n, "exact bottleneck search")
    scaled = integer_kernel(R)
    K, D = scaled if scaled is not None else (R.entries, 1)
    deg, ones = K.sum(axis=1), np.ones(R.n)

    def cut(rows: np.ndarray) -> np.ndarray:
        inside = rows @ K
        inside *= rows
        c = rows @ deg - inside @ ones
        return c if scaled is None else c.astype(np.int64)

    (c, size, mask), _ = min_ratio(small_set_blocks(R.n, np.float64), cut)
    return c / (size * D), StateSet(R.n, mask)


def expansion_tv_bound(n: int, epsilon: float, delta: float, k: int) -> float:
    """Distance-to-uniform bound driven by a verified expansion parameter.

    Equals (sqrt(n)/2) * (1 - epsilon^2 * delta^8 / 2)^((k-2)/4). Valid
    for any epsilon > 0 with which the expansion condition holds; at
    k = 1 the value exceeds 1 and the bound is vacuous but well defined.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 0.0 < epsilon < math.inf:  # false for nan
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    shrink = epsilon * epsilon * delta**8 / 2.0
    if shrink > 1.0:
        raise ValueError(f"epsilon={epsilon} too large: epsilon^2*delta^8/2 exceeds 1")
    return math.sqrt(n) / 2.0 * (1.0 - shrink) ** ((k - 2) / 4.0)


def spectral_tv_bound(lambda2: float, n: int, k: int) -> float:
    """Distance-to-uniform bound (sqrt(n)/2) * lambda2^((k-2)/4), for k >= 2."""
    if k < 2:
        raise ValueError(f"spectral bound needs k >= 2, got {k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not -1e-9 <= lambda2 <= 1.0 + 1e-9:
        raise ValueError(f"lambda2 must be in [0, 1], got {lambda2}")
    lam = min(max(lambda2, 0.0), 1.0)
    return math.sqrt(n) / 2.0 * lam ** ((k - 2) / 4.0)


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Total variation distance: half the L1 distance along the last axis.

    ``mu`` and ``nu`` broadcast, so a (k, n) stack of laws against one
    length-n row gives k distances in one call; two vectors give a scalar.
    A stack is measured in blocks of about _BLOCK_ENTRIES entries along its
    first axis: the one scratch array is a block's difference, made
    absolute in place, and each row's sum is the one it has on its own.
    """
    if mu.shape[-1] != nu.shape[-1]:
        raise ValueError(f"length mismatch: {mu.shape[-1]} vs {nu.shape[-1]}")
    mu, nu = np.broadcast_arrays(mu, nu)
    if mu.ndim == 1:
        return tv_distance(mu[None], nu[None])[0]
    step = max(1, _BLOCK_ENTRIES // max(1, math.prod(mu.shape[1:])))

    def half_l1(lo: int) -> np.ndarray:
        d = mu[lo:lo + step] - nu[lo:lo + step]
        return np.abs(d, out=d).sum(axis=-1) / 2.0

    return np.concatenate([half_l1(lo) for lo in range(0, max(1, len(mu)), step)])


# Starts per gathered block: about 2^16 doubles (512 KiB) per n x B array.
# Blocks of 64 starts at n = 1024 and of 16 at n = 4096 were the fastest
# tried (0.80 s and 2.1 s, one thread); one block of all starts took 1.6 s
# and 9.3 s. GEMM does its own cache blocking and runs fastest on all starts
# at once (1.3-1.5x slower on blocks of 64-128), so the GEMM route takes one
# block on BLAS's threads. The blocks of the two sparse steps run on one
# thread per CPU this process may use, at most one per block; numpy releases
# the GIL inside their element-wise steps. Each thread reuses its X and two
# step scratch arrays for the whole profile, the distances written into the
# scratch the next step overwrites: allocated in the calling thread, they
# raised the dense benchmark's peak RSS by 0.7 MiB over the single-threaded
# profile, and allocated in the threads (per-thread malloc arenas) by 3.5 MiB.
# ``_jump_factor`` reads rows of w nonzeros in blocks of _BLOCK_ENTRIES // w,
# ``_asymmetry`` works on square blocks of this size, and ``tv_distance`` on
# blocks of rows.
_BLOCK_ENTRIES = 1 << 16


def _groups(n: int) -> list[tuple[tuple[int, ...], Callable]]:
    """The translation groups on n states: (axis moduli, index difference j - c).

    Z_n has the one axis (n,) and j - c = (j - c) mod n. For n = 2^m with
    m >= 1, Z_2^m has m axes of modulus 2, the bits of a state most
    significant first, and j - c = j ^ c. XOR is the digit-wise
    difference mod 2 in one operation: generic digit arithmetic made the
    jumped 10-cube's ``_jump_factor`` 0.12 s instead of 0.018 s (2-vCPU VM).
    """
    groups = [((n,), lambda j, c: (j - c) % n)]
    if n > 1 and n & (n - 1) == 0:
        groups.append(((2,) * (n.bit_length() - 1), np.bitwise_xor))
    return groups


def _carries(cols: np.ndarray, weights: np.ndarray, rows, diff: Callable,
             c: np.ndarray) -> np.ndarray:
    """Whether each of the given rows r of a rows table is row 0 moved by c[r].

    Every row has as many nonzeros as row 0, so row r is the translate
    exactly when the columns j with diff(j, c_r) = cols[0], sorted, are its
    columns, and row 0's weights, taken in that order, are its weights.
    """
    at = diff(cols[0], diff(0, c)[:, None])  # the j with diff(j, c_r) = cols[0]
    order = np.argsort(at, axis=1)
    return (np.all(np.take_along_axis(at, order, axis=1) == cols[rows], axis=1)
            & np.all(weights[0][order] == weights[rows], axis=1))


def _jump_factor(cols: np.ndarray, weights: np.ndarray,
                 search: bool = True) -> tuple[tuple[int, ...], np.ndarray] | None:
    """(moduli, s) with every row i of Q equal to row 0 translated by s_i, or None.

    Reads Q's rows table (cols, weights). Row i is Q[i, j] == Q[0, diff(j, s_i)]
    for one group of ``_groups``, checked exactly, and s is a permutation.
    Then Q = S R with S[i, s_i] = 1 and R invariant under the group:
    compose(f, P) has this form, s_i = f(i) - f(0) or f(i) ^ f(0),
    whenever P is circulant or XOR-invariant.

    A translate of row 0 has row 0's w nonzeros, so a row with another
    count gives None at once; then every row's w entries are read
    (``_carries``), in blocks of _BLOCK_ENTRIES // w rows, O(n w) in all.
    s = identity, Q itself invariant, is tried first for any w; then
    every row of Q^k is a permutation of row 0. Otherwise, with
    ``search``, s_i is the first translation that moves a
    nonzero of row 0, in increasing order, onto row i's first nonzero and
    carries row 0 onto row i. A chain with a periodic stencil has equal
    rows, so its s is no permutation whichever translation is taken.
    """
    n = cols.shape[0]
    counts = np.count_nonzero(weights, axis=1)
    w = int(counts[0])
    if np.any(counts != w):
        return None
    cols, weights = cols[:, :w], weights[:, :w]  # a row's nonzeros come first
    height = _BLOCK_ENTRIES // w
    blocks = [slice(lo, lo + height) for lo in range(0, n, height)]
    groups = _groups(n)
    identity = np.arange(n)
    for moduli, diff in groups:
        if all(_carries(cols, weights, rows, diff, identity[rows]).all() for rows in blocks):
            return moduli, identity
    if not search:
        return None
    for moduli, diff in groups:
        s, found = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=bool)
        for rows in blocks:
            todo = identity[rows]
            for t in range(w):  # row 0's t-th nonzero lands on the row's first
                c = diff(cols[todo, 0], cols[0, t])
                hit = _carries(cols, weights, todo, diff, c)
                s[todo[hit]], found[todo[hit]] = c[hit], True
                todo = todo[~hit]
                if not todo.size:
                    break
        if found.all() and np.bincount(s, minlength=n).max() == 1:
            return moduli, s
    return None


def _gather_tables(cols: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tables pred, wt of shape (w, n) with Q[pred[t, j], j] = wt[t, j], from Q's rows table.

    They are the rows table of Q^T, transposed: row t lists the t-th
    predecessor of each state in increasing order; states with fewer than
    w predecessors are padded with (0, 0.0).
    """
    i, j, v = _nonzeros(cols, weights)
    order = np.argsort(j, kind="stable")  # by column, each column's rows still increasing
    pred, wt = _pack(cols.shape[0], j[order], i[order], v[order])
    return np.ascontiguousarray(pred.T), np.ascontiguousarray(wt.T)


def _gemm_steps(X: np.ndarray, Y: np.ndarray, a: np.ndarray) -> Iterator[tuple]:
    """Q.T @ X as one GEMM per step, (X.T @ Q).T on the rows of Q^k, written into Y.T.

    Y is the caller's column-major scratch of X's shape, so Y.T is a
    row-major block that the product fills in place; X and Y swap roles
    after every step, so the buffer X just left is free until the next.
    """
    while True:
        yield X, Y
        np.matmul(X.T, a, out=Y.T)
        X, Y = Y, X


def _gather_steps(X: np.ndarray, acc: np.ndarray, term: np.ndarray, pred: np.ndarray,
                  wt: np.ndarray) -> Iterator[tuple]:
    """Q.T @ X as the sum over t of wt[t][:, None] * X[pred[t]], added in increasing t.

    acc and term are the caller's scratch of X's shape; X and acc swap roles
    after every step, and term is free between steps. Every index is in
    range, so the gathers take mode="clip": with the default mode="raise",
    ``np.take`` fills ``out`` through a temporary of its size.
    """
    wt = wt[:, :, None]
    while True:
        yield X, term
        np.take(X, pred[0], axis=0, out=acc, mode="clip")
        acc *= wt[0]
        for t in range(1, pred.shape[0]):
            np.take(X, pred[t], axis=0, out=term, mode="clip")
            term *= wt[t]
            acc += term
        X, acc = acc, X


def _translated(dst: np.ndarray, Y: np.ndarray, moduli: tuple[int, ...],
                offsets: Iterable[int]) -> list[tuple]:
    """Tuples (part of dst, part of Y per offset d): Y[diff(j, d)] at dst[j], diff of ``_groups``.

    In a view with one axis per modulus, each axis rolls by its digit of d:
    not at all for digit 0, by one reversed view for modulus 2, and by
    slices otherwise, cut where any of the offsets wraps; the tuples are
    the products of the axes' pieces. Two slices per cube axis would make
    2^b pieces for an offset of b bits: the jumped 10-cube profile (kmax 60)
    took 2.5-3.0 s that way, 0.67-0.73 s with the reversed views (2-vCPU VM).
    """
    digits = [np.unravel_index(d, moduli) for d in offsets]
    pieces = []
    for axis, m in enumerate(moduli):
        es = [int(e[axis]) for e in digits]
        if m == 2:
            pieces.append([(slice(None), [slice(None, None, -1 if e else 1) for e in es])])
            continue
        cuts = sorted({0, m, *es})
        pieces.append([(slice(lo, hi), [slice(lo - e, hi - e) if lo >= e else
                                        slice(lo - e + m, hi - e + m) for e in es])
                       for lo, hi in zip(cuts, cuts[1:])])
    shape = moduli + Y.shape[1:]
    dst, Y = dst.reshape(shape), Y.reshape(shape)
    return [(dst[tuple(p for p, _ in combo)],
             [Y[q] for q in zip(*(qs for _, qs in combo))])
            for combo in itertools.product(*pieces)]


def _shift_steps(X: np.ndarray, Y: np.ndarray, spare: np.ndarray, moduli: tuple[int, ...],
                 s: np.ndarray, offsets: np.ndarray, row: np.ndarray) -> Iterator[tuple]:
    """Q.T @ X for Q = S R (see ``_jump_factor``), in place: R.T @ (X[s^-1]).

    A step permutes the rows of X into Y, then adds the translates of Y
    by the nonzero offsets d of row 0, increasing, with their weights
    ``row`` (row 0 of the rows table). Offsets of equal
    weight are summed first and scaled once, in increasing d, the first
    two in one ``np.add``; the first weight level is written into X, each
    later one through ``spare``. Y and spare are the caller's scratch of
    X's shape, C-contiguous, since ``_translated`` views them with one axis
    per modulus; Y is free between steps. No index table or per-state
    weight is read.
    """
    inv = np.empty_like(s)
    inv[s] = np.arange(s.size)
    levels = []
    for c in sorted(set(row.tolist())):
        dst = spare if levels else X
        ds = offsets[row == c].tolist()
        levels.append((dst, c, len(ds) > 1, _translated(dst, Y, moduli, ds[:2]),
                       [_translated(dst, Y, moduli, [d]) for d in ds[2:]]))
    while True:
        yield X, Y
        np.take(X, inv, axis=0, out=Y, mode="clip")  # in range; see _gather_steps
        for dst, c, summed, first, rest in levels:
            for p, qs in first:
                if summed:
                    np.add(*qs, out=p)
                else:
                    np.multiply(*qs, c, out=p)
            for pieces in rest:
                for p, (q,) in pieces:
                    p += q
            if summed:
                dst *= c
            if dst is spare:
                X += spare


# Each route's step, and how many scratch arrays of X's shape it takes from the caller.
_STEPS = {"gemm": (_gemm_steps, 1), "gather": (_gather_steps, 2), "shift": (_shift_steps, 2)}
# The cost of each route on a 2-vCPU VM (OpenBLAS, 2 threads), re-measured by
# tools/route_costs.py: ns per unit of work, where a unit is one start x state x weight of
# a sparse step and one flop of GEMM (75 GFLOP/s); then, per step and block of starts, the
# ns of the calls a step makes; last, for a sparse step the ns of calls per weight, and for
# GEMM the least ns per entry of Q per step, which it streams however few its starts.
_ROUTE_NS = {"shift": (0.7, 8_000, 1_500), "gather": (1.15, 10_000, 2_000),
             "gemm": (1 / 75, 6_000, 0.17)}


def _layout(kind: str, n: int, starts: int) -> tuple[int, int, int]:
    """(width, blocks, workers): starts per block, blocks and threads of ``_worst_tv`` on ``kind``.

    GEMM takes all starts in one block; the sparse steps take blocks of
    about _BLOCK_ENTRIES / n starts, spread over ``_worker_count`` threads.
    """
    width = starts if kind == "gemm" else max(1, min(starts, _BLOCK_ENTRIES // n))
    blocks = -(-starts // width)
    return width, blocks, _worker_count(blocks)


def _profile_cost(kind: str, n: int, starts: int, w: int, k_max: int) -> tuple[float, float]:
    """The estimated (ns, peak bytes) of ``_worst_tv`` on route ``kind``, from _ROUTE_NS.

    w is the most predecessors of any state. Each step costs at least 1 ns,
    so k_max is counted up to WORK_CAP only. The blocks are ``_layout``'s:
    GEMM holds the dense Q and two n x starts blocks; a sparse step holds
    three blocks per thread and tables of n x w entries.
    """
    per_unit, per_call, last = _ROUTE_NS[kind]
    steps = min(k_max, WORK_CAP) + 1
    width, blocks, workers = _layout(kind, n, starts)
    if kind == "gemm":
        return (steps * (n * n * max(2 * starts * per_unit, last) + per_call),
                8.0 * n * (n + 2 * width))
    return (steps * (starts * n * w * per_unit + blocks * (per_call + last * w)),
            8.0 * n * (3 * width * workers + 4 * w))


def _column_sums(d: np.ndarray) -> np.ndarray:
    """Column sums of a C-order block d by folding its rows in place: d[:m - h] += d[h:m].

    h = ceil(m / 2), from m = n rows down to one: ceil(log2 n) contiguous
    adds, each entry in at most that many of them, so the error is at most
    ceil(log2 n) * 2^-53 of the sum of nonnegative entries, as for a
    pairwise sum. The result is d's first row.
    """
    m = d.shape[0]
    while m > 1:
        h = (m + 1) // 2
        d[:m - h] += d[h:m]
        m = h
    return d[0]


def _worker_count(blocks: int) -> int:
    """Threads for a profile: one per block of starts, at most one per CPU this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform (macOS, Windows)
        cpus = os.cpu_count() or 1
    return min(blocks, cpus)


def _worst_tv(n: int, k_max: int, starts: np.ndarray, step: tuple) -> np.ndarray:
    """Largest distance to uniform over ``starts`` after k = 0 .. k_max steps.

    Evolves blocks of starts as X = (Q^k).T[:, block]. ``step`` is one
    of ``_step``; each step's operations run in a fixed order, so a route
    repeats bit for bit. The blocks and threads are ``_layout``'s, GEMM's
    one block column-major. Each thread's X and step scratch are
    allocated here, once per profile; a block of b starts uses the first
    n * b entries of each, so a ragged last block still gets contiguous
    arrays of its own shape.

    The step hands back, with X, a scratch array that it overwrites before
    reading it, and |X - 1/n| is written there in X's own layout. Where a
    start's states are contiguous (the column-major GEMM block, one start)
    numpy's pairwise ``sum(axis=0)`` takes the column sums, as the
    ``M @ Q`` oracle does; blocks of several starts in C order fold their
    rows (``_column_sums``), whatever their width. So no read is strided
    and a start's distance does not depend on its block. The result is the
    elementwise max of the threads' maxima, which does not depend on how
    the blocks were shared out.
    """
    kind, *params = step
    steps, scratch = _STEPS[kind]
    width, _, workers = _layout(kind, n, starts.size)
    # Column-major for GEMM: X.T is then the row-major block of rows of Q^k.
    order = "F" if kind == "gemm" else "C"
    fold = order == "C" and starts.size > 1
    blocks = [starts[lo:lo + width] for lo in range(0, starts.size, width)]
    buffers = [[np.empty(n * width) for _ in range(1 + scratch)] for _ in range(workers)]
    worst = np.zeros((workers, k_max + 1))

    def run(i: int) -> None:
        for block in blocks[i::workers]:
            b = block.size
            X, *spare = (buf[:n * b].reshape((n, b), order=order) for buf in buffers[i])
            X.fill(0.0)
            X[block, np.arange(b)] = 1.0
            evolve = steps(X, *spare, *params)
            for k in range(k_max + 1):
                X, d = next(evolve)
                np.abs(np.subtract(X, 1.0 / n, out=d), out=d)
                sums = _column_sums(d) if fold else d.sum(axis=0)
                worst[i, k] = max(worst[i, k], float(sums.max()) / 2.0)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))
    return worst.max(axis=0)


def _step(Q: TransitionMatrix, kind: str, factor: tuple | None = None, rows=None) -> tuple:
    """The step of route ``kind`` on Q that ``_worst_tv`` takes; the one place a step is made.

    ("gemm", Q.entries); ("gather", pred, wt) of ``_gather_tables``; or
    ("shift", moduli, s, offsets, row): Q's ``factor`` (``_jump_factor``,
    searched for when not given), then the nonzero columns of row 0 and
    their weights. ``rows`` is Q's rows table when the caller holds it
    already, so a densely stored Q's table is not built again.
    """
    if kind == "gemm":
        return ("gemm", Q.entries)
    cols, weights = rows or Q.rows
    if kind == "gather":
        return ("gather", *_gather_tables(cols, weights))
    nonzero = weights[0] != 0
    return ("shift", *(factor or _jump_factor(cols, weights)), cols[0][nonzero],
            weights[0][nonzero])


def _plan(Q: TransitionMatrix, k_max: int, single_start: bool = False) -> tuple:
    """(starts, step): the starts ``mixing_profile`` evolves on Q and the step it takes.

    See ``mixing_profile`` for the rules; errors are raised in its order,
    the chosen route's estimate checked against the budgets before the
    step is made. Q's rows table is built once, here, and handed to
    ``_step``; it goes with this call, so a table built from a densely
    stored Q is gone before ``_worst_tv`` makes its blocks.
    """
    n = Q.n
    cols, weights = Q.rows
    factor = _jump_factor(cols, weights, search=False)  # Q itself invariant, s = identity
    if single_start and factor is None:
        raise StructureError(
            "single_start needs a translation-invariant chain (circulant, or XOR-invariant "
            "for n a power of two); start 0 need not be the worst start here"
        )
    starts = np.zeros(1, dtype=np.intp) if factor is not None else np.arange(n)
    w = int(np.bincount(cols[weights != 0], minlength=n).max())
    costs = {kind: _profile_cost(kind, n, starts.size, w, k_max) for kind in _ROUTE_NS}
    if factor is None and costs["shift"][0] < min(costs["gather"][0], costs["gemm"][0]):
        factor = _jump_factor(cols, weights)
    if factor is None:
        del costs["shift"]
    kind = min(costs, key=lambda route: costs[route][0])
    _within_budget("mixing profile", "kmax", *costs[kind])
    return starts, _step(Q, kind, factor, (cols, weights))


def mixing_profile(Q: TransitionMatrix, k_max: int, *,
                   single_start: bool = False) -> list[tuple[int, float]]:
    """Worst-start distance to uniform after k steps, for k = 0 .. k_max.

    ``_plan`` picks the starts and the step; they follow properties
    checked exactly on Q's rows table by ``_jump_factor``, not options,
    and the step is the route with the lowest estimate
    (``_profile_cost``); w is the largest number of predecessors of any
    state. Only the GEMM route builds a dense Q.

    - starts: when Q is translation-invariant (circulant, or XOR-invariant
      for n a power of two) every start is a worst start and only state 0
      is evolved; otherwise all n starts are evolved, in blocks of about
      2^16 / n for the two sparse steps below. Those blocks run on one
      thread per CPU this process may use, at most one per block, and
      the profile is the same bit for bit with any number of threads.
    - step, the cheapest estimate of three: when every row of Q is row 0
      translated by s_i, s a permutation (compose(f, P) with P circulant
      or XOR-invariant), a step can permute the rows of X by s^-1 and add
      w translates of the result with the weights of row 0; the search for
      s runs only when this estimate is the lowest. A step can gather the
      w predecessors of every state, or be one matrix product,
      bit-identical to the all-starts M @ Q loop. Every route repeats bit
      for bit.

    ``single_start`` asks for the one-start route and raises
    StructureError when Q is not translation-invariant, where start 0
    need not be the worst. The sequence must be nonincreasing; any
    numerical violation beyond 1e-12 is raised, not smoothed over. The
    chosen route's estimate is checked against the budgets before any
    block is made (CapacityError).
    """
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    worst = _worst_tv(Q.n, k_max, *_plan(Q, k_max, single_start)).tolist()
    for k in range(1, k_max + 1):
        if worst[k] > worst[k - 1] + 1e-12:
            raise InvariantError(
                f"worst-start distance increased at k={k}: {worst[k - 1]!r} -> {worst[k]!r}"
            )
    return list(enumerate(worst))


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of one (P, f) pair.

    ``expansion_epsilon`` is present when the caller verified the
    expansion condition and wants the Cheeger-route consistency checks:
    with it, the report asserts cheeger >= epsilon * delta^4 - 1e-9.
    The unconditional checks lambda2 >= -1e-9 and
    lambda2 <= 1 - cheeger^2/2 + 1e-9 always run.
    """

    n: int
    delta: float
    lambda2: float
    cheeger: float
    cheeger_witness: StateSet
    expansion_epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.lambda2 < -1e-9:
            raise InvariantError(f"negative second eigenvalue {self.lambda2!r}")
        if self.lambda2 > 1.0 - self.cheeger**2 / 2.0 + 1e-9:
            raise InvariantError(
                f"lambda2={self.lambda2!r} above the bottleneck bound "
                f"1 - {self.cheeger!r}^2/2"
            )
        if self.expansion_epsilon is not None:
            floor = self.expansion_epsilon * self.delta**4
            if self.cheeger < floor - 1e-9:
                raise InvariantError(
                    f"bottleneck {self.cheeger!r} below expansion floor {floor!r}"
                )


def spectral_report(P: TransitionMatrix, f: Permutation, *,
                    expansion_epsilon: float | None = None) -> SpectralReport:
    """Compute the symmetrized kernel and summarize its spectrum.

    A chain with n < 2, or whose bottleneck search is over the work
    budget, is refused before the kernel is built.
    """
    _exhaustive_ns(P.n, "exact bottleneck search")
    R = symmetrized_kernel(P, f)
    lam2 = second_eigenvalue(R)
    phi, witness = cheeger_constant(R)
    return SpectralReport(
        n=P.n,
        delta=min_positive_entry(P),
        lambda2=lam2,
        cheeger=phi,
        cheeger_witness=witness,
        expansion_epsilon=expansion_epsilon,
    )
