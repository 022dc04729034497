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

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import Distribution, Permutation, TransitionMatrix, min_positive_entry
from .errors import CapacityError, InvariantError, StructureError
from .expansion import StateSet

# Symmetry tolerance for kernels fed to the eigensolver.
SYMMETRY_TOL = 1e-9
# Tolerance on the principal eigenvalue / eigenvector checks.
EIGEN_TOL = 1e-8
# Subset enumeration cap for the exact Cheeger constant.
CHEEGER_CAP = 24

_CHEEGER_CHUNK = 1 << 16


def symmetrized_kernel(P: TransitionMatrix, f: Permutation) -> TransitionMatrix:
    """The doubly stochastic, symmetric PSD kernel attached to (P, f).

    Computed as A @ A.T with A = L @ L and L[i][j] = p[i][f^-1(j)]
    (a P-step followed by the jump). The result is symmetrized exactly
    to strip float asymmetry from the matrix products.
    """
    if f.n != P.n:
        raise ValueError(f"permutation on {f.n} states, matrix on {P.n}")
    L = P.entries[:, np.asarray(f.inverse)]
    A = L @ L
    R = A @ A.T
    R = (R + R.T) / 2.0
    return TransitionMatrix(np.clip(R, 0.0, 1.0))


def second_eigenvalue(R: TransitionMatrix) -> float:
    """Second largest eigenvalue of a symmetric stochastic kernel.

    Uses a full symmetric eigendecomposition of (R + R.T)/2. The
    principal eigenvalue must be 1 within EIGEN_TOL with the all-ones
    vector as eigenvector (checked as R @ 1 = 1, which is robust when
    the top eigenvalue is degenerate). A degenerate second eigenvalue
    at 1 is legal input but flagged with a warning, since it cannot
    arise from a validated chain.
    """
    a = R.entries
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_TOL:
        raise InvariantError(f"kernel asymmetry {asym!r} exceeds {SYMMETRY_TOL}")
    sym = (a + a.T) / 2.0
    ones = np.ones(R.n)
    if float(np.abs(sym @ ones - ones).max()) > EIGEN_TOL:
        raise InvariantError("all-ones vector is not fixed by the kernel")
    w = np.linalg.eigvalsh(sym)
    if abs(float(w[-1]) - 1.0) > EIGEN_TOL:
        raise InvariantError(f"principal eigenvalue {w[-1]!r} is not 1 within {EIGEN_TOL}")
    if R.n == 1:
        return 0.0
    lam2 = float(w[-2])
    if lam2 > 1.0 - EIGEN_TOL:
        warnings.warn(
            "second eigenvalue is degenerate at 1; kernel cannot come from a valid chain",
            stacklevel=2,
        )
    return lam2


def _cheeger_chunk(masks: np.ndarray, R: np.ndarray, n: int) -> tuple[float, int] | None:
    sizes = np.bitwise_count(masks)
    keep = (sizes >= 1) & (2 * sizes <= n)
    masks = masks[keep]
    if masks.size == 0:
        return None
    sizes = sizes[keep]
    B = ((masks[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.float64
    )
    flow = B @ R
    cross = flow.sum(axis=1) - (flow * B).sum(axis=1)
    ratios = cross / sizes
    best = float(ratios.min())
    witness = int(masks[np.flatnonzero(ratios == best)[0]])
    return best, witness


def cheeger_constant(R: TransitionMatrix, *, threads: int = 1) -> tuple[float, StateSet]:
    """Exact bottleneck ratio of a symmetric doubly stochastic kernel.

    Minimizes (1/|A|) * sum of R[i][j] over i in A, j outside A, over
    every A with 1 <= |A| <= n/2 (uniform stationary measure). Returns
    the minimum and one minimizing set (smallest bitmask on ties).
    Exhaustive; capped at n <= CHEEGER_CAP.
    """
    n = R.n
    if n > CHEEGER_CAP:
        raise CapacityError(
            f"exact bottleneck search capped at n <= {CHEEGER_CAP}, got n={n}; "
            "use cheeger_constant_sampled"
        )
    if n < 2:
        raise StructureError(f"bottleneck ratio needs at least two states, got n={n}")
    a = R.entries
    total = 1 << n
    chunks = [(lo, min(lo + _CHEEGER_CHUNK, total)) for lo in range(1, total, _CHEEGER_CHUNK)]

    def work(bounds: tuple[int, int]):
        lo, hi = bounds
        return _cheeger_chunk(np.arange(lo, hi, dtype=np.uint64), a, n)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(c) for c in chunks]
    results = [r for r in results if r is not None]
    phi, witness = min(results, key=lambda r: (r[0], r[1]))
    return phi, StateSet(n, witness)


def cheeger_constant_sampled(R: TransitionMatrix, num_samples: int, seed: int) -> tuple[float, StateSet]:
    """Sampled stand-in for the exact bottleneck search above the cap.

    Minimizes over a random family only, so the result is an upper
    estimate of the true constant with no exactness guarantee. Never
    used by the acceptance checks.
    """
    n = R.n
    if n < 2:
        raise StructureError(f"bottleneck ratio needs at least two states, got n={n}")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(seed))
    sizes = list(range(1, n // 2 + 1))
    a = R.entries
    best: float | None = None
    best_mask = 0
    for t in range(num_samples):
        size = sizes[t % len(sizes)]
        inside = np.sort(rng.choice(n, size=size, replace=False))
        mask = sum(1 << int(i) for i in inside)
        flow = a[inside].sum() - a[np.ix_(inside, inside)].sum()
        ratio = float(flow) / size
        if best is None or ratio < best or (ratio == best and mask < best_mask):
            best = ratio
            best_mask = mask
    assert best is not None
    return best, StateSet(n, best_mask)


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
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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


def evolve(Q: TransitionMatrix, mu0: Distribution, k: int) -> Distribution:
    """The exact law after k steps: mu0 times Q^k via repeated products."""
    if mu0.n != Q.n:
        raise ValueError(f"distribution on {mu0.n} states, matrix on {Q.n}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    v = mu0.probs.copy()
    for _ in range(k):
        v = v @ Q.entries
    return Distribution(v)


def tv_distance(mu: Distribution, nu: Distribution) -> float:
    """Total variation distance: half the L1 distance."""
    if mu.n != nu.n:
        raise ValueError(f"length mismatch: {mu.n} vs {nu.n}")
    return float(np.abs(mu.probs - nu.probs).sum()) / 2.0


def mixing_profile(Q: TransitionMatrix, k_max: int, *,
                   single_start: bool = False) -> list[tuple[int, float]]:
    """Worst-start distance to uniform after k steps, for k = 0 .. k_max.

    Evolves all n point-mass starts at once (rows of Q^k) and takes the
    max; ``single_start`` restricts to the start at state 0, a fast path
    that is exact for vertex-transitive chains only. The sequence must
    be nonincreasing; any numerical violation beyond 1e-12 is raised,
    not smoothed over.
    """
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    n = Q.n
    M = np.eye(n)[:1] if single_start else np.eye(n)
    out: list[tuple[int, float]] = []
    prev = float("inf")
    for k in range(k_max + 1):
        worst = float(np.abs(M - 1.0 / n).sum(axis=1).max()) / 2.0
        if worst > prev + 1e-12:
            raise InvariantError(
                f"worst-start distance increased at k={k}: {prev!r} -> {worst!r}"
            )
        prev = worst
        out.append((k, worst))
        if k < k_max:
            M = M @ Q.entries
    return out


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
                    expansion_epsilon: float | None = None,
                    threads: int = 1) -> SpectralReport:
    """Compute the symmetrized kernel and summarize its spectrum."""
    R = symmetrized_kernel(P, f)
    lam2 = second_eigenvalue(R)
    phi, witness = cheeger_constant(R, threads=threads)
    return SpectralReport(
        n=P.n,
        delta=min_positive_entry(P),
        lambda2=lam2,
        cheeger=phi,
        cheeger_witness=witness,
        expansion_epsilon=expansion_epsilon,
    )
