"""Independent brute-force reference implementations.

Everything here is deliberately written against plain Python sets and
explicit loops (plus one hand-rolled Jacobi eigensolver), sharing no
code path with the package: these are the oracles the fast
implementations are checked against.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


def neighbor_sets(P):
    """state -> set of states reachable in one step (positive entry)."""
    a = P.entries
    n = a.shape[0]
    return {i: {j for j in range(n) if a[i, j] > 0.0} for i in range(n)}


def brute_expand(P, subset):
    nbrs = neighbor_sets(P)
    out = set()
    for i in subset:
        out |= nbrs[i]
    return out


def brute_expand_via_columns(P, subset):
    a = P.entries
    n = a.shape[0]
    return {j for j in range(n) if any(a[i, j] > 0.0 for i in subset)}


def brute_epsilon_star(P, f):
    """Worst double-expansion ratio minus one, by explicit set enumeration."""
    n = P.entries.shape[0]
    best = None
    witness = None
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            e1 = brute_expand(P, set(combo))
            fe = {f.forward[i] for i in e1}
            e2 = brute_expand(P, fe)
            ratio = len(e2) / size
            if best is None or ratio < best:
                best = ratio
                witness = set(combo)
    return best - 1.0, witness


def brute_cheeger(R):
    """Bottleneck ratio by explicit enumeration of all small subsets."""
    a = R.entries
    n = a.shape[0]
    best = None
    witness = None
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            inside = set(combo)
            cut = sum(a[i, j] for i in inside for j in range(n) if j not in inside)
            ratio = cut / size
            if best is None or ratio < best:
                best = ratio
                witness = inside
    return best, witness


def brute_cheeger_exact(R, D):
    """(phi, mask): least cut/|A| of the integer kernel K = round(D R), smallest mask on ties.

    Cuts are Python integers in units of 1/D and ratios are Fractions, so
    equal cuts tie exactly; phi is the exact ratio as a Fraction.
    """
    K = [[int(round(D * v)) for v in row] for row in R.entries]
    n = len(K)
    best = None
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            cut = sum(K[i][j] for i in combo for j in range(n) if j not in combo)
            key = (Fraction(cut, size * D), sum(1 << i for i in combo))
            if best is None or key < best:
                best = key
    return best


def brute_expansion_over(P, f, sets):
    """(epsilon_star, witness mask, sets checked) over the given index sets.

    Only sets with 1 <= |A| <= n/2 count; the smallest mask wins ties.
    """
    n = P.entries.shape[0]
    nbrs = neighbor_sets(P)
    best = None
    checked = 0
    for subset in sets:
        if not 1 <= len(subset) <= n // 2:
            continue
        checked += 1
        e1 = set().union(*(nbrs[i] for i in subset))
        e2 = set().union(*(nbrs[f.forward[i]] for i in e1))
        key = (Fraction(len(e2), len(subset)), sum(1 << i for i in subset))
        if best is None or key < best:
            best = key
    return float(best[0]) - 1.0, best[1], checked


def brute_atoms(P, f):
    """Row i of the atom matrix as a set, E(f(E({i}))), by explicit unions."""
    nbrs = neighbor_sets(P)
    return [set().union(*(nbrs[f.forward[j]] for j in nbrs[i])) for i in range(len(nbrs))]


def all_small_sets(n):
    """Every A with 1 <= |A| <= n/2, as sets."""
    return [set(c) for size in range(1, n // 2 + 1) for c in combinations(range(n), size)]


def sampled_sets(n, num_samples, seed):
    """The documented sampled family: draw t is choice(n, 1 + t % (n // 2)) from Philox(seed)."""
    rng = np.random.Generator(np.random.Philox(seed))
    return [set(int(i) for i in rng.choice(n, size=1 + t % (n // 2), replace=False))
            for t in range(num_samples)]


def brute_boundary_histogram(P):
    """{mask of E(B) minus B: number of sets B}, over all 2^n sets B."""
    n = P.entries.shape[0]
    nbrs = neighbor_sets(P)
    hist = {}
    for mask in range(1 << n):
        inside = {i for i in range(n) if mask >> i & 1}
        outside = set().union(*(nbrs[i] for i in inside)) - inside
        key = sum(1 << j for j in outside)
        hist[key] = hist.get(key, 0) + 1
    return hist


def brute_boundary_count(P, subset):
    """Number of sets B with external boundary exactly `subset`."""
    n = P.entries.shape[0]
    target = set(subset)
    count = 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            b = set(combo)
            if brute_expand(P, b) - b == target:
                count += 1
    return count


def jacobi_eigenvalues(matrix, sweeps=100, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Hand-rolled: no LAPACK involvement. Returns eigenvalues in
    ascending order.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return sorted(float(a[i, i]) for i in range(n))


def tv_to_uniform(vec):
    n = len(vec)
    return 0.5 * sum(abs(v - 1.0 / n) for v in vec)


def mixing_profile_dense(Q, k_max):
    """Worst-start distance to uniform for k = 0 .. k_max: every start, M @ Q per step."""
    a = np.asarray(Q.entries)
    n = a.shape[0]
    M = np.eye(n)
    out = []
    for k in range(k_max + 1):
        out.append(float(np.abs(M - 1.0 / n).sum(axis=1).max()) / 2.0)
        if k < k_max:
            M = M @ a
    return out


def mixing_profile_exact(Q, k_max):
    """Worst-start distance to uniform for k = 0 .. k_max as Fractions, for Q's entries as stored.

    Each float entry is the rational Fraction(x); over their common
    denominator D they are integers N, and start r's law after k steps is
    row r of N^k / D^k, evolved in Python integers, one successor at a time.
    """
    entries = [[Fraction(x) for x in row] for row in np.asarray(Q.entries).tolist()]
    n = len(entries)
    D = math.lcm(*(x.denominator for row in entries for x in row))
    succ = [[(j, int(x * D)) for j, x in enumerate(row) if x] for row in entries]
    laws = [[int(i == r) for i in range(n)] for r in range(n)]
    out = []
    for k in range(k_max + 1):
        scale = D**k
        worst = max(sum(abs(n * v - scale) for v in law) for law in laws)
        out.append(Fraction(worst, 2 * n * scale))
        if k < k_max:
            nxt = []
            for law in laws:
                new = [0] * n
                for i, v in enumerate(law):
                    if v:
                        for j, x in succ[i]:
                            new[j] += v * x
                nxt.append(new)
            laws = nxt
    return out


def pair_step_loop(joint):
    """One pair-chain move, column by column: (a, b) -> (b, a + b + e)."""
    n = joint.shape[0]
    nxt = np.empty_like(joint)
    for b in range(n):
        col = joint[:, b]
        nxt[b] = (np.roll(col, b - 1) + np.roll(col, b) + np.roll(col, b + 1)) / 3.0
    return nxt


def fib_cos_factors_loop(n, k, a):
    """Running product over b = 1 .. k-1 of 1/3 + (2/3) cos(2 pi a F_b / n)."""
    prod = np.ones(a.shape)
    f_prev, f_cur = 0, 1  # F_0, F_1
    for _ in range(1, k):
        prod *= 1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi * ((a * f_cur) % n) / n)
        f_prev, f_cur = f_cur, (f_prev + f_cur) % n
    return prod


@lru_cache(maxsize=None)
def fib_residues_period(n):
    """F_k mod n over one full Pisano period, by the plain recurrence."""
    out = [0, 1 % n]
    while len(out) < 3 or (out[-2], out[-1]) != (0, 1 % n):
        out.append((out[-2] + out[-1]) % n)
    return np.array(out[:-2], dtype=np.int64)


def residue_window_searchsorted(n, a, horizon=None):
    """(holds, worst_gap) of the middle-third window check for one (n, a) pair.

    Hits of a * F_k mod n are listed once, then the first hit at or after
    each start is found by searchsorted; a start with no later hit, as in
    a sequence with no hit at all, scores the sequence length.
    """
    w = 8.0 + 3.0 * math.log(n) / math.log(1.5)
    wlen = int(math.floor(w))
    if horizon is None:
        horizon = fib_residues_period(n // math.gcd(a, n)).size + wlen
    length = horizon + wlen + 1
    b = (a * np.resize(fib_residues_period(n), length)) % n
    hits = np.flatnonzero((3 * b >= n) & (3 * b <= 2 * n))
    if hits.size == 0:
        return False, length
    starts = np.arange(horizon + 1)
    idx = np.searchsorted(hits, starts)
    gaps = np.where(idx < hits.size, hits[np.minimum(idx, hits.size - 1)] - starts, length)
    worst = int(gaps.max())
    return worst <= w, worst


def reachable_dense(adj, start):
    """BFS reachability over a boolean adjacency matrix."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        frontier = list(np.flatnonzero(nxt))
        seen |= nxt
    return seen


def digraph_period_dense(supp):
    """gcd of cycle lengths of a strongly connected digraph, from BFS levels.

    Each edge (u, v) contributes the label d(u) + 1 - d(v) with d the BFS
    level from state 0; the gcd of the labels equals the period.
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
    g = 0
    for u, v in zip(*np.nonzero(supp)):
        g = math.gcd(g, int(dist[u] + 1 - dist[v]))
    return g if g else 1


def dense_period(supp):
    """Period of the digraph with adjacency supp, or 0 if not strongly connected."""
    if not (reachable_dense(supp, 0).all() and reachable_dense(supp.T, 0).all()):
        return 0
    return digraph_period_dense(supp)


def register_ergodicity_dense(T):
    """(ergodic, uniform_stationary) of an explicit register-chain matrix."""
    a = T.entries
    return (dense_period(a > 0.0) == 1,
            bool(np.all(np.abs(a.sum(axis=0) - 1.0) <= 1e-9)))


def register_digits(s, n, r):
    """Base-n digits (x_1, ..., x_r) of an encoded register state."""
    digits = []
    for _ in range(r):
        digits.append(s % n)
        s //= n
    return tuple(reversed(digits))


def additive_table_loop(n, r):
    return tuple(sum(register_digits(s, n, r)) % n for s in range(n**r))


def cubing_table_loop(n, r):
    out = []
    for s in range(n**r):
        first, *rest = register_digits(s, n, r)
        out.append((pow(first, 3, n) + sum(rest)) % n)
    return tuple(out)


def first_collision_loop(table, n, r):
    """First (earlier x1, later x1, tail) with equal images, scanning tails in order."""
    pw = n ** (r - 1)
    for tail in range(pw):
        seen = {}
        for x1 in range(n):
            img = table[x1 * pw + tail]
            if img in seen:
                return seen[img], x1, register_digits(tail, n, r - 1)
            seen[img] = x1
    return None


def register_matrix_loop(P, table, n, r):
    """Explicit register-chain matrix, one row per state."""
    N = n**r
    pw = N // n
    T = np.zeros((N, N))
    for s in range(N):
        tail = s % pw
        T[s, tail * n:(tail + 1) * n] = P.entries[table[s]]
    return T
