"""Spans around the package's layer boundaries, recorded from the benchmark side.

The tracer replaces public functions on the modules that call them (for
example ``detjump.cli.check_expansion`` and ``detjump.expansion.check_expansion``,
the name ``scan_random_bijections`` looks up) with wrappers that record a
span: name, start, end, parent, the job it ran for, process CPU time, and
counts computed from the call's arguments. Nothing inside the package
changes; wrappers are installed only for traced passes.

All traced calls happen on the calling thread: the package's worker
threads run private chunk functions, which are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) pairs to wrap; the span is named "<layer>.<attribute>".
_TRACED = {
    "cli": [("detjump.cli", "main")],
    "chains": [("detjump.cli", a) for a in ("build_lazy_cycle_walk", "build_hypercube_walk",
                                            "build_permutation", "compose", "validate",
                                            "load_matrix_csv")]
    + [("detjump.chains", a) for a in ("validate", "build_lazy_cycle_walk", "build_hypercube_walk")]
    + [("detjump.fibonacci", "validate"),
       ("detjump.expansion", "random_permutation"), ("detjump.expansion", "build_lazy_cycle_walk")],
    "expansion": [("detjump.cli", "check_expansion"), ("detjump.cli", "scan_random_bijections"),
                  ("detjump.expansion", "check_expansion"),
                  ("detjump.expansion", "boundary_histogram"),
                  ("detjump.expansion", "doubling_counterexample")],
    "spectral": [("detjump.cli", a) for a in ("spectral_report", "mixing_profile",
                                              "symmetrized_kernel", "second_eigenvalue",
                                              "tv_distance")]
    + [("detjump.spectral", a) for a in ("symmetrized_kernel", "second_eigenvalue",
                                         "cheeger_constant")],
    "fibonacci": [("detjump.cli", a) for a in ("fibonacci_walk_marginals", "fourier_tv_bound",
                                               "higher_order_spec", "verify_uniform_ergodicity")]
    + [("detjump.fibonacci", "build_higher_order_chain")],
}

_BUILDERS = {"chains.build_lazy_cycle_walk", "chains.build_hypercube_walk",
             "chains.build_permutation", "chains.random_permutation", "chains.compose"}


def _subsets(n: int) -> dict[str, int]:
    return {"sets": sum(math.comb(n, s) for s in range(1, n // 2 + 1)), "masks": (1 << n) - 1}


def _expansion_counts(a: dict) -> dict[str, int]:
    if a["mode"] == "exhaustive":
        return {"exhaustive_" + k: v for k, v in _subsets(a["P"].n).items()}
    return {"sampled_sets": a["num_samples"] or 0}


def _mixing_counts(a: dict) -> dict[str, int]:
    n, k = a["Q"].n, a["k_max"]
    rows = 1 if a["single_start"] else n
    # One step reads M (rows x n) and Q (n x n) and writes M, in float64.
    return {"flops": 2 * rows * n * n * k, "bytes": 8 * k * (2 * rows * n + n * n)}


# Counts computed from a call's bound arguments, so they repeat exactly.
_COUNTERS = {
    "expansion.check_expansion": _expansion_counts,
    "spectral.cheeger_constant": lambda a: {"cheeger_" + k: v
                                            for k, v in _subsets(a["R"].n).items()},
    "spectral.mixing_profile": _mixing_counts,
    "fibonacci.fibonacci_walk_marginals": lambda a: {"pair_steps": a["k_max"] - 1},
    "fibonacci.fourier_tv_bound": lambda a: {"fourier_calls": 1,
                                             "fourier_factor_evals": (a["k"] - 1) * (a["n"] - 1)},
    "fibonacci.build_higher_order_chain": lambda a: {"register_states": a["spec"].states},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str
    pass_index: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for traced passes; ``installed()`` wraps the package for one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.job = ""
        self.pass_index = -1

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.job, self.pass_index,
                 time.perf_counter(), time.process_time(), counts=counts or {})
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end, s.cpu_end = time.perf_counter(), time.process_time()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            with self.span(name, counts):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, pass_index: int):
        self.pass_index = pass_index
        originals = []
        try:
            for layer, targets in _TRACED.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, f"{layer}.{attr}"))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def as_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "job": s.job,
                 "pass": s.pass_index, "start": s.start, "end": s.end,
                 "cpu": s.cpu_end - s.cpu_start, **({"counts": s.counts} if s.counts else {})}
                for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], predicted: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``predicted`` names the spans expected to dominate.

    A span's self time is its duration minus its children's durations;
    children run sequentially on the caller's thread, so they never overlap.
    """
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + s.end - s.start
            child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu_end - s.cpu_start

    def self_wall(s: Span) -> float:
        return s.end - s.start - child_wall.get(s.id, 0.0)

    def dur(*names: str) -> float:
        return sum(s.end - s.start for s in spans if s.name in names)

    def layer_self(layer: str) -> float:
        return sum(self_wall(s) for s in spans if s.layer == layer)

    def layer_cpu(layer: str) -> float:
        return sum(s.cpu_end - s.cpu_start - child_cpu.get(s.id, 0.0)
                   for s in spans if s.layer == layer)

    def count(key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans)

    def dur_with(key: str) -> float:
        return sum(s.end - s.start for s in spans if key in s.counts)

    exh_s, samp_s = dur_with("exhaustive_sets"), dur_with("sampled_sets")
    cheeger_s, mixing_s = dur("spectral.cheeger_constant"), dur("spectral.mixing_profile")
    marginals_s = dur("fibonacci.fibonacci_walk_marginals")
    m = {
        "cli.main_s": dur("cli.main"),
        "cli.self_s": layer_self("cli"),
        "chains.build_s": sum(s.end - s.start for s in spans if s.name in _BUILDERS),
        "chains.validate_s": dur("chains.validate"),
        "chains.load_matrix_csv_s": dur("chains.load_matrix_csv"),
        "chains.self_s": layer_self("chains"),
        "expansion.exhaustive_s": exh_s,
        "expansion.exhaustive_sets": count("exhaustive_sets"),
        "expansion.exhaustive_sets_per_s": _ratio(count("exhaustive_sets"), exh_s),
        "expansion.useful_ratio": _ratio(count("exhaustive_sets"), count("exhaustive_masks")),
        "expansion.scan_s": dur("expansion.scan_random_bijections"),
        "expansion.sampled_s": samp_s,
        "expansion.sampled_sets_per_s": _ratio(count("sampled_sets"), samp_s),
        "expansion.boundary_histogram_s": dur("expansion.boundary_histogram"),
        "expansion.doubling_counterexample_s": dur("expansion.doubling_counterexample"),
        "expansion.self_s": layer_self("expansion"),
        "expansion.cpu_s": layer_cpu("expansion"),
        "spectral.cheeger_s": cheeger_s,
        "spectral.cheeger_sets": count("cheeger_sets"),
        "spectral.cheeger_useful_ratio": _ratio(count("cheeger_sets"), count("cheeger_masks")),
        "spectral.cheeger_sets_per_s": _ratio(count("cheeger_sets"), cheeger_s),
        "spectral.mixing_profile_s": mixing_s,
        "spectral.mixing_flops": count("flops"),
        "spectral.mixing_bytes": count("bytes"),
        "spectral.mixing_gflops_per_s": _ratio(count("flops") / 1e9, mixing_s),
        "spectral.symmetrized_kernel_s": dur("spectral.symmetrized_kernel"),
        "spectral.second_eigenvalue_s": dur("spectral.second_eigenvalue"),
        "spectral.self_s": layer_self("spectral"),
        "spectral.cpu_s": layer_cpu("spectral"),
        "fibonacci.marginals_s": marginals_s,
        "fibonacci.pair_steps": count("pair_steps"),
        "fibonacci.pair_steps_per_s": _ratio(count("pair_steps"), marginals_s),
        "fibonacci.fourier_s": dur("fibonacci.fourier_tv_bound"),
        "fibonacci.fourier_calls": count("fourier_calls"),
        "fibonacci.fourier_factor_evals": count("fourier_factor_evals"),
        "fibonacci.residue_window_s": dur("fibonacci.check_residue_window"),
        "fibonacci.build_higher_order_s": dur("fibonacci.build_higher_order_chain"),
        "fibonacci.ergodicity_s": dur("fibonacci.verify_uniform_ergodicity"),
        "fibonacci.register_states": count("register_states"),
        "fibonacci.self_s": layer_self("fibonacci"),
    }
    m["trace.predicted_s"] = sum(
        self_wall(s) for s in spans
        if any(s.name == p or (p.endswith(".") and s.name.startswith(p)) for p in predicted))
    return m
