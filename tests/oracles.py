"""Independent brute-force reference implementations.

Everything here is deliberately written against plain Python sets and
explicit loops (plus one hand-rolled Jacobi eigensolver), sharing no
code path with the package: these are the oracles the fast
implementations are checked against.
"""

import math
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
