"""Deterministic-jump speedups for finite Markov chains.

Build small doubly stochastic chains, interleave them with bijections of
the state space, and measure exactly how much faster the composed chain
reaches the uniform distribution: expansion scans, spectral and
bottleneck bounds, and second-order recurrence walks, all at desk scale
with explicit tolerances and reproducible seeds.
"""

from .chains import (
    Permutation,
    TransitionMatrix,
    ValidationReport,
    affine_permutation,
    build_hypercube_walk,
    build_lazy_cycle_walk,
    build_permutation,
    compose,
    cubing_permutation,
    doubling_permutation,
    identity_permutation,
    inversion_permutation,
    load_matrix_csv,
    load_permutation,
    min_positive_entry,
    random_permutation,
    save_matrix_csv,
    save_permutation,
    validate,
)
from .errors import (
    BijectionError,
    CapacityError,
    ConfigError,
    DetjumpError,
    InvariantError,
    StructureError,
)
from .expansion import (
    BijectionScan,
    ExpansionReport,
    StateSet,
    boundary_histogram,
    check_expansion,
    doubling_counterexample,
    expand,
    max_degree,
    scan_random_bijections,
)
from .fibonacci import (
    ErgodicityReport,
    FibResidueSequence,
    HigherOrderChainSpec,
    MixingGuarantee,
    WindowCheck,
    build_higher_order_chain,
    check_residue_window,
    fib_residue_sequence,
    fibonacci_walk_marginals,
    fourier_tv_bound,
    higher_order_spec,
    mixing_guarantee,
    residue_window_length,
    verify_uniform_ergodicity,
)
from .spectral import (
    SpectralReport,
    cheeger_constant,
    expansion_tv_bound,
    mixing_profile,
    second_eigenvalue,
    spectral_report,
    spectral_tv_bound,
    symmetrized_kernel,
    tv_distance,
)

__version__ = "0.1.0"
