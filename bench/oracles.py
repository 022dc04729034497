"""Independent reference computations the benchmark checks outputs against.

None of these call detjump: each recomputes a quantity by a different
route than the package does, so a faster but wrong kernel shows up as a
failed check rather than as a new checksum.
"""

from __future__ import annotations

import math

import numpy as np

# One tolerance for every float comparison: it admits summation-order
# changes (the roadmap allows 1e-14 drift on profiles) and nothing larger.
ABS_TOL = 1e-12
REL_TOL = 1e-9


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


# --- chains ------------------------------------------------------------------

def lazy_cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = a[idx, (idx + 1) % n] = a[idx, (idx - 1) % n] = 1.0 / 3.0
    return a


def hypercube(d: int) -> np.ndarray:
    n = 1 << d
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 1.0 / (d + 1)
    for i in range(d):
        a[idx, idx ^ (1 << i)] = 1.0 / (d + 1)
    return a


def random_lazy_kernel(n: int, rng: np.random.Generator) -> list[dict[int, float]]:
    """Rows of I/3 + (C + C^T)/6 + (D + D^T)/6, C one random n-cycle, D a random permutation.

    Doubly stochastic, symmetric support, positive diagonal, and
    irreducible because C visits every state. Kept sparse so that
    making inputs never sets the run's peak memory.
    """
    order, perm = rng.permutation(n).tolist(), rng.permutation(n).tolist()
    rows: list[dict[int, float]] = [{i: 1.0 / 3.0} for i in range(n)]
    pairs = [(order[k], order[(k + 1) % n]) for k in range(n)] + list(enumerate(perm))
    for i, j in pairs:
        rows[i][j] = rows[i].get(j, 0.0) + 1.0 / 6.0
        rows[j][i] = rows[j].get(i, 0.0) + 1.0 / 6.0
    return rows


def min_positive(a: np.ndarray) -> float:
    return float(a[a > 0.0].min())


def kernel(P: np.ndarray, fwd: list[int]) -> np.ndarray:
    """R = (L L)(L L)^T with L[i][j] = p[i][f^-1(j)], symmetrized."""
    inv = np.empty(len(fwd), dtype=np.int64)
    inv[np.asarray(fwd)] = np.arange(len(fwd))
    L = P[:, inv]
    A = L @ L
    R = A @ A.T
    return (R + R.T) / 2.0


def second_eigenvalue(R: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(R)[-2])


def cut_ratio(R: np.ndarray, members: list[int]) -> float:
    inside = np.asarray(members)
    return float(R[inside].sum() - R[np.ix_(inside, inside)].sum()) / len(members)


def random_bijection(n: int, seed: int) -> list[int]:
    """The package's documented bijection: Fisher-Yates driven by Philox(seed)."""
    rng = np.random.Generator(np.random.Philox(seed))
    fwd = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        fwd[i], fwd[j] = fwd[j], fwd[i]
    return fwd


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(indices: list[int]) -> int:
    return sum(1 << i for i in indices)


# --- expansion -----------------------------------------------------------------

def row_masks(P: np.ndarray) -> list[int]:
    return [sum(1 << int(j) for j in np.flatnonzero(row > 0.0)) for row in P]


def efe_atoms(P: np.ndarray, fwd: list[int]) -> list[int]:
    """Atoms g[i] = E(f(E({i}))).

    E(f(E(A))) is the OR of g over A, since E and f distribute over union.
    """
    rows = row_masks(P)
    atoms = []
    for row in P:
        out = 0
        for j in np.flatnonzero(row > 0.0):
            out |= rows[fwd[j]]
        atoms.append(out)
    return atoms


def _or_table(atoms: list[int]) -> np.ndarray:
    t = np.zeros(1 << len(atoms), dtype=np.uint64)
    for b, g in enumerate(atoms):
        t[1 << b:2 << b] = t[:1 << b] | np.uint64(g)
    return t


def exhaustive_expansion(atoms: list[int]) -> tuple[float, int]:
    """(epsilon_star, witness) over every A with 1 <= |A| <= n/2, smallest mask on ties.

    Split-half OR tables: the union for mask l + (h << lo) is
    T_lo[l] | T_hi[h]. Ratios use the same float division as the
    package, so equal ratios compare equal and epsilon_star is exact.
    """
    n = len(atoms)
    lo = n // 2
    t_lo, t_hi = _or_table(atoms[:lo]), _or_table(atoms[lo:])
    pc_lo = np.bitwise_count(np.arange(1 << lo, dtype=np.uint64)).astype(np.int64)
    pc_hi = np.bitwise_count(np.arange(t_hi.size, dtype=np.uint64)).astype(np.int64)
    best, witness = math.inf, -1
    block = max(1, (1 << 20) >> lo)
    for h0 in range(0, t_hi.size, block):
        hs = np.arange(h0, min(h0 + block, t_hi.size))
        cnt = np.bitwise_count(t_hi[hs][:, None] | t_lo[None, :]).astype(np.float64)
        size = pc_hi[hs][:, None] + pc_lo[None, :]
        ok = (size >= 1) & (2 * size <= n)
        ratio = np.where(ok, cnt / np.maximum(size, 1), np.inf).ravel()
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            witness = (int(hs[i // (1 << lo)]) << lo) | (i % (1 << lo))
    return best - 1.0, witness


def sampled_masks(n: int, num_samples: int, seed: int) -> list[int]:
    """The documented sampled-mode family: sizes 1..n//2 in turn, uniform within a size."""
    rng = np.random.Generator(np.random.Philox(seed))
    strata = list(range(1, n // 2 + 1))
    return [sum(1 << int(i) for i in rng.choice(n, size=strata[t % len(strata)], replace=False))
            for t in range(num_samples)]


def efe(atoms: list[int], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= atoms[low.bit_length() - 1]
        mask ^= low
    return out


def set_ratio(atoms: list[int], mask: int) -> float:
    return efe(atoms, mask).bit_count() / mask.bit_count()


def family_expansion(atoms: list[int], masks: list[int]) -> tuple[float, int]:
    n = len(atoms)
    best = min((set_ratio(atoms, m), m) for m in masks if 1 <= m.bit_count() <= n // 2)
    return best[0] - 1.0, best[1]


def sets_up_to_half(n: int) -> int:
    return sum(math.comb(n, s) for s in range(1, n // 2 + 1))


def boundary_histogram(P: np.ndarray) -> dict[int, int]:
    masks = np.arange(1 << P.shape[0], dtype=np.uint64)
    bnd = _or_table(row_masks(P)) & ~masks
    values, counts = np.unique(bnd, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def doubling_witness(m: int) -> int:
    return sum(1 << i for i in list(range(1, m)) + list(range(2 * m + 1, 3 * m)))


def doubling_efe_size(m: int) -> int:
    n = 4 * m - 1
    atoms = efe_atoms(lazy_cycle(n), [2 * i % n for i in range(n)])
    return efe(atoms, doubling_witness(m)).bit_count()


# --- mixing ------------------------------------------------------------------------

def worst_tv_at(Q: np.ndarray, ks: list[int]) -> dict[int, float]:
    """Worst-start TV at each k >= 1, from Q^k built by repeated squaring (not step by step)."""
    n = Q.shape[0]
    squares = [Q]
    while 1 << len(squares) <= max(ks):
        squares.append(squares[-1] @ squares[-1])
    out = {}
    for k in ks:
        acc = None
        for j, sq in enumerate(squares):
            if k >> j & 1:
                acc = sq if acc is None else acc @ sq
        out[k] = float(np.abs(acc - 1.0 / n).sum(axis=1).max()) / 2.0
    return out


def spectral_bound(lam2: float, n: int, k: int) -> float:
    return math.sqrt(n) / 2.0 * min(max(lam2, 0.0), 1.0) ** ((k - 2) / 4.0)


def expansion_bound(n: int, eps: float, delta: float, k: int) -> float:
    return math.sqrt(n) / 2.0 * (1.0 - eps * eps * delta**8 / 2.0) ** ((k - 2) / 4.0)


# --- recurrence walks --------------------------------------------------------------

def fibonacci_laws(n: int, kmax: int) -> list[np.ndarray]:
    """Laws of X_1..X_kmax from X_k = F_k + sum_{b<k} F_b e_b, by 3-point convolutions.

    The package evolves the n-by-n pair chain instead; this route is O(n) per step.
    """
    laws = []
    q = np.zeros(n)
    q[0] = 1.0
    f_prev, f_cur = 0, 1  # F_{k-1}, F_k
    for _ in range(kmax):
        laws.append(np.roll(q, f_cur % n))
        q = (np.roll(q, f_cur) + q + np.roll(q, -f_cur)) / 3.0
        f_prev, f_cur = f_cur, (f_prev + f_cur) % n
    return laws


def fourier_bounds(n: int, kmax: int) -> list[float]:
    """(1/2) sqrt(sum_a prod_{b<k} (1/3 + 2/3 cos(2 pi a F_b / n))^2) for k = 1..kmax."""
    a = np.arange(1, n, dtype=np.int64)
    prod = np.ones(n - 1)
    out = []
    f_prev, f_cur = 0, 1
    for _ in range(kmax):
        out.append(0.5 * math.sqrt(float(np.sum(prod * prod))))
        prod = prod * (1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi * ((a * f_cur) % n) / n))
        f_prev, f_cur = f_cur, (f_prev + f_cur) % n
    return out


def residue_worst_gap(n: int, a: int) -> tuple[bool, int]:
    """(holds, worst_gap) of the middle-third window property, in plain integers."""
    w = 8.0 + 3.0 * math.log(n) / math.log(1.5)
    wlen = int(math.floor(w))
    m = n // math.gcd(a, n)
    period, x, y = 0, 0, 1
    while True:
        x, y = y, (x + y) % m
        period += 1
        if (x, y) == (0, 1):
            break
    horizon = period + wlen
    length = horizon + wlen + 1
    seq, x, y = [], 0, 1
    for _ in range(length):
        seq.append(a * x % n)
        x, y = y, (x + y) % n
    nxt, worst = length, 0
    for j in range(length - 1, -1, -1):
        if n <= 3 * seq[j] <= 2 * n:
            nxt = j
        if j <= horizon:
            worst = max(worst, nxt - j if nxt < length else length)
    return worst <= w, worst
