"""Re-measure the cost of each mixing route beside the constants of the cost model.

Run from a checkout (about 20 s on 2 vCPUs):

    python3 tools/route_costs.py

At n = 256, 1024 and 2048 it evolves all n starts of two chains with w
nonzeros per row through each step ``mixing_profile`` can take:

- a lazy union of random permutations (the identity and w - 1 random
  permutations, equal weights), which does not factor: the gather step and
  GEMM;
- a jumped lazy circulant (w offsets, one of them 0, equal weights, then a
  random permutation), which factors: the shift step.

Each line gives the measured ns per start x state x weight x step of the
two sparse steps and the GFLOP/s of GEMM, with the model's constants
(``detjump.spectral._ROUTE_NS``) in brackets; then the route the model picks
for the union and the faster of the two measured on it. Wall times are the
best of two profiles. The last lines give the model's break-even w between
the gather step and GEMM at each n.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import detjump as dj  # noqa: E402
from detjump import spectral  # noqa: E402

SIZES = {256: 60, 1024: 10, 2048: 4}  # n: kmax, about a second per GEMM profile
WIDTHS = (3, 5, 9, 17, 33)


def lazy_union(n: int, w: int, rng: np.random.Generator) -> dj.TransitionMatrix:
    a = np.eye(n)
    for _ in range(w - 1):
        a[np.arange(n), rng.permutation(n)] += 1.0
    return dj.TransitionMatrix(a / a.sum(axis=1, keepdims=True))


def jumped_circulant(n: int, w: int, rng: np.random.Generator) -> dj.TransitionMatrix:
    offsets = np.concatenate([[0], rng.choice(np.arange(1, n), w - 1, replace=False)])
    rows = np.arange(n)[:, None]
    a = np.zeros((n, n))
    a[rows, (rows + offsets) % n] = 1.0 / w
    return dj.compose(dj.random_permutation(n, int(rng.integers(2**31))), dj.TransitionMatrix(a))


def step(Q: dj.TransitionMatrix, kind: str) -> tuple:
    cols, weights = Q.rows
    if kind == "gemm":
        return ("gemm", Q.entries)
    if kind == "gather":
        return ("gather", *spectral._gather_tables(cols, weights))
    nonzero = weights[0] != 0
    return ("shift", *spectral._jump_factor(cols, weights), cols[0][nonzero],
            weights[0][nonzero])


def seconds(Q: dj.TransitionMatrix, kind: str, k_max: int) -> float:
    s = step(Q, kind)
    best = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        spectral._worst_tv(Q.n, k_max, np.arange(Q.n), s)
        best = min(best, time.perf_counter() - t0)
    return best


def predecessors(Q: dj.TransitionMatrix) -> int:
    cols, weights = Q.rows
    return int(np.bincount(cols[weights != 0], minlength=Q.n).max())


def main() -> None:
    rng = np.random.default_rng(1)
    model = {kind: c[0] for kind, c in spectral._ROUTE_NS.items()}
    print(f"model: shift {model['shift']:.2f} ns, gather {model['gather']:.2f} ns, "
          f"GEMM {1 / model['gemm']:.0f} GFLOP/s")
    for n, k_max in SIZES.items():
        for w in WIDTHS:
            union, jumped = lazy_union(n, w, rng), jumped_circulant(n, w, rng)
            wp = predecessors(union)
            t = {"shift": seconds(jumped, "shift", k_max),
                 "gather": seconds(union, "gather", k_max), "gemm": seconds(union, "gemm", k_max)}
            costs = {kind: spectral._profile_cost(kind, n, n, wp, k_max)[0]
                     for kind in ("gather", "gemm")}
            print(f"n={n:5d} w={w:3d} (w={wp:2d} union) kmax={k_max:3d} | "
                  f"shift {t['shift'] / (n * n * w * k_max) * 1e9:5.2f} ns "
                  f"[{model['shift']:.2f}] | "
                  f"gather {t['gather'] / (n * n * wp * k_max) * 1e9:5.2f} ns "
                  f"[{model['gather']:.2f}] | "
                  f"GEMM {2.0 * n**3 * k_max / t['gemm'] / 1e9:5.0f} GFLOP/s "
                  f"[{1 / model['gemm']:.0f}] | union: model {min(costs, key=costs.get)}, "
                  f"measured {min(('gather', 'gemm'), key=t.get)} "
                  f"({t['gather']:.3f} s against {t['gemm']:.3f} s)")
    for n, k_max in SIZES.items():
        w = next(w for w in range(1, n + 1)
                 if spectral._profile_cost("gemm", n, n, w, k_max)[0]
                 < spectral._profile_cost("gather", n, n, w, k_max)[0])
        print(f"model break-even at n={n}: GEMM from w={w} on, the gather step below")


if __name__ == "__main__":
    main()
