"""Experiment orchestration: JSON configs in, deterministic artifacts out.

One config describes a chain, an optional bijection, and a list of
analyses; each analysis writes one CSV or JSON artifact atomically
(temp file + rename). Everything is a pure function of the config bytes
and the seeds it contains, so identical runs produce identical bytes.

Exit codes: 0 success, 2 config error, 3 capacity error, 4 invariant
violation detected during analysis, including a chain that fails the
standing assumptions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .chains import (
    Distribution,
    Permutation,
    TransitionMatrix,
    ValidationReport,
    build_hypercube_walk,
    build_lazy_cycle_walk,
    build_permutation,
    compose,
    identity_permutation,
    load_matrix_csv,
    load_permutation,
    min_positive_entry,
    validate,
)
from .errors import (
    BijectionError,
    CapacityError,
    ConfigError,
    InvariantError,
    StructureError,
)
from .expansion import StateSet, check_expansion, scan_random_bijections
from .fibonacci import (
    fibonacci_walk_marginals,
    fourier_tv_bound,
    higher_order_spec,
    mixing_guarantee,
    verify_uniform_ergodicity,
)
from .spectral import (
    expansion_tv_bound,
    mixing_profile,
    second_eigenvalue,
    spectral_report,
    spectral_tv_bound,
    symmetrized_kernel,
    tv_distance,
)

ANALYSIS_TYPES = ("mixing", "spectral", "expansion", "scan", "fibonacci", "hof")
_CHAIN_ANALYSES = {"mixing", "spectral", "expansion", "scan"}


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _strip_comment_keys(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_comment_keys(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, list):
        return [_strip_comment_keys(v) for v in obj]
    return obj


def _load_json(path: Path) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return _strip_comment_keys(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    source: Path
    chain: dict | None
    bijection: dict | None
    analyses: tuple[dict, ...]
    output: dict | None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _validate_output_spec(out: Any, where: str) -> None:
    _require(isinstance(out, dict), f"{where}: output must be an object")
    fmt = out.get("format")
    _require(fmt in (None, "csv", "json"), f"{where}: output format must be csv or json")
    _require(isinstance(out.get("path", ""), str), f"{where}: output path must be a string")


def _is_finite_number(value: Any) -> bool:
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_analysis_entry(entry: Any, where: str) -> None:
    _require(isinstance(entry, dict), f"{where}: analysis entry must be an object")
    kind = entry.get("type")
    _require(kind in ANALYSIS_TYPES, f"{where}: unknown analysis type {kind!r}")
    if kind == "mixing":
        kmax = entry.get("kmax")
        _require(isinstance(kmax, int) and kmax >= 0, f"{where}: mixing needs integer kmax >= 0")
        eps = entry.get("epsilon")
        _require(eps is None or (_is_finite_number(eps) and eps > 0),
                 f"{where}: mixing epsilon must be a finite positive number")
        for flag in ("spectral_bound", "single_start"):
            _require(isinstance(entry.get(flag, False), bool),
                     f"{where}: {flag} must be a boolean")
    elif kind == "spectral":
        _require(isinstance(entry.get("compute_epsilon", False), bool),
                 f"{where}: compute_epsilon must be a boolean")
    elif kind == "expansion":
        mode = entry.get("mode", "exhaustive")
        _require(mode in ("exhaustive", "sampled"), f"{where}: expansion mode must be "
                 "exhaustive or sampled")
        if mode == "sampled":
            _require(isinstance(entry.get("num_samples"), int) and entry["num_samples"] >= 0,
                     f"{where}: sampled expansion needs integer num_samples")
            _require(isinstance(entry.get("seed"), int),
                     f"{where}: sampled expansion needs an explicit integer seed")
        eps = entry.get("epsilon")
        _require(eps is None or (isinstance(eps, (int, float)) and eps >= 0),
                 f"{where}: expansion epsilon must be a number >= 0")
        inc = entry.get("include", [])
        _require(isinstance(inc, list)
                 and all(isinstance(s, list) and all(_is_int(i) for i in s) for s in inc),
                 f"{where}: include must be a list of lists of integer state indices")
    elif kind == "scan":
        _require(isinstance(entry.get("epsilon"), (int, float)) and entry["epsilon"] >= 0,
                 f"{where}: scan needs nonnegative epsilon")
        _require(isinstance(entry.get("trials"), int) and entry["trials"] >= 0,
                 f"{where}: scan needs integer trials >= 0")
        _require(isinstance(entry.get("seed"), int),
                 f"{where}: scan needs an explicit integer seed")
    elif kind == "fibonacci":
        _require(isinstance(entry.get("n"), int) and entry["n"] >= 2,
                 f"{where}: fibonacci needs integer n >= 2")
        _require(isinstance(entry.get("kmax"), int) and entry["kmax"] >= 1,
                 f"{where}: fibonacci needs integer kmax >= 1")
        c = entry.get("c", 0.0)
        _require(_is_finite_number(c) and c >= 0,
                 f"{where}: fibonacci c must be a finite number >= 0")
    elif kind == "hof":
        spec_path = entry.get("spec_path")
        _require(isinstance(spec_path, str), f"{where}: hof needs spec_path")
        _require(Path(spec_path).exists(), f"{where}: hof spec file not found: {spec_path}")
    if "output" in entry:
        _validate_output_spec(entry["output"], where)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    path = Path(path)
    raw = _load_json(path)
    _require(isinstance(raw, dict), f"{path}: top level must be an object")

    chain = raw.get("chain")
    if chain is not None:
        _require(isinstance(chain, dict), f"{path}: chain must be an object")
        family = chain.get("family")
        _require(family in ("lazy_cycle", "hypercube", "file"),
                 f"{path}: chain family must be lazy_cycle, hypercube, or file")
        if family == "lazy_cycle":
            _require(isinstance(chain.get("n"), int) and chain["n"] >= 3,
                     f"{path}: lazy_cycle needs integer n >= 3")
        elif family == "hypercube":
            _require(isinstance(chain.get("d"), int) and chain["d"] >= 1,
                     f"{path}: hypercube needs integer d >= 1")
        else:
            mpath = chain.get("path")
            _require(isinstance(mpath, str), f"{path}: chain file needs a path")
            _require(Path(mpath).exists(), f"{path}: matrix file not found: {mpath}")

    bijection = raw.get("bijection")
    if bijection is not None:
        _require(isinstance(bijection, dict), f"{path}: bijection must be an object")
        kind = bijection.get("kind")
        _require(isinstance(kind, str), f"{path}: bijection needs a kind")
        if kind == "random":
            _require(isinstance(bijection.get("seed"), int),
                     f"{path}: random bijection needs an explicit integer seed")
        if kind == "affine":
            _require(isinstance(bijection.get("a"), int), f"{path}: affine bijection needs a")
        if kind == "explicit":
            _require(isinstance(bijection.get("values"), list) or
                     isinstance(bijection.get("path"), str),
                     f"{path}: explicit bijection needs values or a path")

    analyses = raw.get("analysis", [])
    _require(isinstance(analyses, list), f"{path}: analysis must be a list")
    for i, entry in enumerate(analyses):
        _validate_analysis_entry(entry, f"{path}: analysis[{i}]")
        if entry.get("type") in _CHAIN_ANALYSES:
            _require(chain is not None,
                     f"{path}: analysis[{i}] ({entry.get('type')}) needs a chain section")

    output = raw.get("output")
    if output is not None:
        _validate_output_spec(output, str(path))

    return ExperimentConfig(
        source=path,
        chain=chain,
        bijection=bijection,
        analyses=tuple(analyses),
        output=output,
    )


def build_chain(config: ExperimentConfig) -> tuple[TransitionMatrix, ValidationReport]:
    _require(config.chain is not None, f"{config.source}: missing chain section")
    chain = config.chain
    if chain["family"] == "lazy_cycle":
        P = build_lazy_cycle_walk(chain["n"])
    elif chain["family"] == "hypercube":
        P = build_hypercube_walk(chain["d"])
    else:
        return load_matrix_csv(chain["path"])
    return P, validate(P)


def _require_standing_assumptions(config: ExperimentConfig, report: ValidationReport) -> None:
    """Chain analyses rely on the standing assumptions; a failed one exits 4, as in `validate`."""
    if not report.ok:
        failed = ", ".join(f"{name} at {pair}" for name, pair in sorted(report.violations.items()))
        raise InvariantError(f"{config.source}: chain fails the standing assumptions: {failed}")


def build_bijection(config: ExperimentConfig, n: int) -> Permutation:
    """The configured bijection, defaulting to the identity."""
    if config.bijection is None:
        return identity_permutation(n)
    b = config.bijection
    if b["kind"] == "explicit" and "path" in b:
        return load_permutation(b["path"])
    return build_permutation(
        b["kind"], n, a=b.get("a"), seed=b.get("seed"), values=b.get("values"),
    )


def _json_artifact(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run_mixing(P: TransitionMatrix, f: Permutation, params: dict) -> str:
    kmax = params["kmax"]
    epsilon = params.get("epsilon")
    want_spectral = bool(params.get("spectral_bound", False))
    profile = mixing_profile(compose(f, P), kmax,
                             single_start=bool(params.get("single_start", False)))
    n = P.n
    delta = min_positive_entry(P)
    lam2 = second_eigenvalue(symmetrized_kernel(P, f)) if want_spectral else None
    header = ["k", "worst_tv"]
    if epsilon is not None:
        header.append("bound_expansion")
    if want_spectral:
        header.append("bound_spectral")
    lines = [",".join(header)]
    for k, worst in profile:
        row = [str(k), _fmt(worst)]
        if epsilon is not None:
            row.append(_fmt(expansion_tv_bound(n, epsilon, delta, k)) if k >= 1 else "")
        if want_spectral:
            row.append(_fmt(spectral_tv_bound(lam2, n, k)) if k >= 2 else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _run_spectral(P: TransitionMatrix, f: Permutation, params: dict) -> str:
    eps = None
    if params.get("compute_epsilon", False):
        eps = check_expansion(P, f).epsilon_star
    report = spectral_report(P, f, expansion_epsilon=eps)
    payload = {
        "n": report.n,
        "delta": report.delta,
        "lambda2": report.lambda2,
        "cheeger": report.cheeger,
        "cheeger_witness": sorted(report.cheeger_witness.indices()),
    }
    if report.expansion_epsilon is not None:
        payload["expansion_epsilon"] = report.expansion_epsilon
    return _json_artifact(payload)


def _run_expansion(P: TransitionMatrix, f: Permutation, params: dict) -> str:
    include = [StateSet.from_indices(P.n, idxs) for idxs in params.get("include", [])]
    report = check_expansion(
        P, f, params.get("epsilon"),
        mode=params.get("mode", "exhaustive"),
        num_samples=params.get("num_samples"),
        seed=params.get("seed"),
        include=include,
    )
    return _json_artifact({
        "epsilon_star": report.epsilon_star,
        "witness": sorted(report.witness.indices()),
        "mode": report.mode,
        "sets_checked": report.sets_checked,
    })


def _run_scan(P: TransitionMatrix, params: dict) -> str:
    result = scan_random_bijections(P, params["epsilon"], params["trials"], params["seed"])
    lines = ["seed,epsilon_star,good"]
    for seed, eps_star, good in result.rows:
        lines.append(f"{seed},{_fmt(eps_star)},{1 if good else 0}")
    return "\n".join(lines) + "\n"


def _run_fibonacci(params: dict) -> str:
    n, kmax = params["n"], params["kmax"]
    c = float(params.get("c", 0.0))
    guarantee = mixing_guarantee(n, c) if n >= 22 else None
    horizon = max(kmax, guarantee.k) if guarantee else kmax
    marginals = fibonacci_walk_marginals(n, horizon)
    uniform = Distribution.uniform(n)
    lines = ["k,tv_exact,tv_fourier_bound"]
    for k in range(1, kmax + 1):
        tv = tv_distance(marginals[k - 1], uniform)
        lines.append(f"{k},{_fmt(tv)},{_fmt(fourier_tv_bound(n, k))}")
    if guarantee is not None:
        tv_at_k = tv_distance(marginals[guarantee.k - 1], uniform)
        lines.append(
            f"# guarantee c={_fmt(c)} k={guarantee.k} "
            f"tv_bound={_fmt(guarantee.tv_bound)} tv_at_k={_fmt(tv_at_k)}"
        )
    return "\n".join(lines) + "\n"


def _run_hof(params: dict) -> str:
    spec_path = Path(params["spec_path"])
    raw = _load_json(spec_path)
    _require(isinstance(raw, dict), f"{spec_path}: hof spec must be an object")
    for key in ("base_n", "order", "update", "base_kernel_csv"):
        _require(key in raw, f"{spec_path}: hof spec missing {key!r}")
    for key in ("base_n", "order"):
        _require(_is_int(raw[key]), f"{spec_path}: {key} must be an integer")
    update = raw["update"]
    _require(isinstance(update, str)
             or (isinstance(update, list) and all(_is_int(v) for v in update)),
             f"{spec_path}: update must be a builtin name or a list of integers")
    _require(isinstance(raw["base_kernel_csv"], str),
             f"{spec_path}: base_kernel_csv must be a string")
    kernel_path = Path(raw["base_kernel_csv"])
    _require(kernel_path.exists(), f"{spec_path}: base kernel file not found: {kernel_path}")
    base, _report = load_matrix_csv(kernel_path)
    _require(base.n == raw["base_n"],
             f"{spec_path}: base kernel has {base.n} states, spec says {raw['base_n']}")
    spec = higher_order_spec(base, order=raw["order"], update=update)
    result = verify_uniform_ergodicity(spec)
    return _json_artifact({
        "states": spec.states,
        "ergodic": result.ergodic,
        "uniform_stationary": result.uniform_stationary,
    })


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_output(entry: dict, config: ExperimentConfig,
                    out_override: str | None, natural_format: str) -> Path | None:
    spec = entry.get("output") or config.output or {}
    fmt = spec.get("format")
    if fmt is not None and fmt != natural_format:
        raise ConfigError(
            f"{config.source}: analysis type {entry.get('type')!r} emits {natural_format}, "
            f"config asks for {fmt}"
        )
    if out_override is not None:
        return Path(out_override)
    path = spec.get("path")
    return Path(path) if path else None


_NATURAL_FORMAT = {
    "mixing": "csv", "spectral": "json", "expansion": "json",
    "scan": "csv", "fibonacci": "csv", "hof": "json",
}


def run(config: ExperimentConfig, *, only_type: str | None = None,
        out_override: str | None = None) -> list[Path | None]:
    """Execute the config's analyses in order, one artifact each.

    With ``only_type`` only matching analyses run (the subcommand view).
    ``out_override`` requires exactly one selected analysis. Artifacts
    without a resolvable path go to stdout.
    """
    selected = [e for e in config.analyses
                if only_type is None or e.get("type") == only_type]
    if only_type is not None and not selected:
        raise ConfigError(f"{config.source}: no analysis of type {only_type!r} in config")
    if not selected:
        raise ConfigError(f"{config.source}: analysis list is empty")
    if out_override is not None and len(selected) != 1:
        raise ConfigError(
            f"{config.source}: --out needs exactly one selected analysis, got {len(selected)}"
        )

    chain_cache: tuple[TransitionMatrix, ValidationReport] | None = None
    written: list[Path | None] = []
    for entry in selected:
        kind = entry["type"]
        if kind in _CHAIN_ANALYSES:
            if chain_cache is None:
                chain_cache = build_chain(config)
                _require_standing_assumptions(config, chain_cache[1])
            P, _report = chain_cache
            if kind == "scan":  # each trial draws its own bijection
                text = _run_scan(P, entry)
            else:
                f = build_bijection(config, P.n)
                if kind == "mixing":
                    text = _run_mixing(P, f, entry)
                elif kind == "spectral":
                    text = _run_spectral(P, f, entry)
                else:
                    text = _run_expansion(P, f, entry)
        elif kind == "fibonacci":
            text = _run_fibonacci(entry)
        else:
            text = _run_hof(entry)
        target = _resolve_output(entry, config, out_override, _NATURAL_FORMAT[kind])
        if target is None:
            sys.stdout.write(text)
        else:
            _atomic_write(target, text)
            print(f"wrote {target}")
        written.append(target)
    return written


def run_validate(config: ExperimentConfig, out_override: str | None) -> int:
    """The `validate` subcommand: report the standing assumptions."""
    P, report = build_chain(config)
    payload = {
        "n": P.n,
        "delta": min_positive_entry(P),
        "ok": report.ok,
        "aperiodic": report.aperiodic,
        "assumptions": {
            "irreducible": report.irreducible,
            "symmetric_support": report.symmetric_support,
            "positive_diagonal": report.positive_diagonal,
            "uniform_stationary": report.uniform_stationary,
        },
        "violations": {k: list(v) for k, v in sorted(report.violations.items())},
    }
    text = _json_artifact(payload)
    if out_override is None:
        sys.stdout.write(text)
    else:
        _atomic_write(Path(out_override), text)
        print(f"wrote {out_override}")
    return 0 if report.ok else 4


def run_compare(config_a: ExperimentConfig, config_b: ExperimentConfig,
                out_override: str | None) -> None:
    """Side-by-side worst-start mixing table for two configs."""

    def mixing_entry(cfg: ExperimentConfig) -> dict:
        for entry in cfg.analyses:
            if entry.get("type") == "mixing":
                return entry
        raise ConfigError(f"{cfg.source}: compare needs a mixing analysis in each config")

    ea, eb = mixing_entry(config_a), mixing_entry(config_b)
    if ea["kmax"] != eb["kmax"]:
        raise ConfigError(
            f"compare needs equal kmax, got {ea['kmax']} ({config_a.source}) "
            f"and {eb['kmax']} ({config_b.source})"
        )

    def profile(cfg: ExperimentConfig, entry: dict) -> list[tuple[int, float]]:
        P, report = build_chain(cfg)
        _require_standing_assumptions(cfg, report)
        f = build_bijection(cfg, P.n)
        return mixing_profile(compose(f, P), entry["kmax"],
                              single_start=bool(entry.get("single_start", False)))

    rows_a, rows_b = profile(config_a, ea), profile(config_b, eb)
    lines = ["k,worst_tv_A,worst_tv_B"]
    for (k, tva), (_, tvb) in zip(rows_a, rows_b):
        lines.append(f"{k},{_fmt(tva)},{_fmt(tvb)}")
    text = "\n".join(lines) + "\n"
    if out_override is None:
        sys.stdout.write(text)
    else:
        _atomic_write(Path(out_override), text)
        print(f"wrote {out_override}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detjump",
        description="Deterministic-jump speedup experiments for finite Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output artifact path")

    common(sub.add_parser("validate", help="check the standing chain assumptions"))
    common(sub.add_parser("mix", help="worst-start mixing profile CSV"))
    common(sub.add_parser("spectral", help="spectral/bottleneck report JSON"))
    common(sub.add_parser("expansion", help="expansion scan JSON"))
    scan = sub.add_parser("scan", help="random-bijection scan CSV")
    common(scan)
    scan.add_argument("--threads", type=int, default=1,
                      help="ignored (must be >= 1); kept so that existing scan command lines run")

    fib = sub.add_parser("fibonacci", help="recurrence-walk distance curve CSV")
    fib.add_argument("--n", type=int, required=True, help="modulus")
    fib.add_argument("--kmax", type=int, required=True, help="largest step count")
    fib.add_argument("--c", type=float, default=0.0, help="guarantee strength")
    fib.add_argument("--out", default=None)

    hof = sub.add_parser("hof", help="verify a higher-order register chain")
    hof.add_argument("--config", required=True,
                     help="register-chain spec JSON (base_n, order, update, base_kernel_csv)")
    hof.add_argument("--out", default=None)

    cmp_p = sub.add_parser("compare", help="side-by-side mixing table for two configs")
    cmp_p.add_argument("--config-a", required=True)
    cmp_p.add_argument("--config-b", required=True)
    cmp_p.add_argument("--out", default=None)

    return parser


_SUBCOMMAND_TYPE = {
    "mix": "mixing", "spectral": "spectral", "expansion": "expansion", "scan": "scan",
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", 1)
    try:
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        if args.command == "validate":
            return run_validate(load_config(args.config), args.out)
        if args.command in _SUBCOMMAND_TYPE:
            run(load_config(args.config), only_type=_SUBCOMMAND_TYPE[args.command],
                out_override=args.out)
            return 0
        if args.command == "fibonacci":
            entry = {"type": "fibonacci", "n": args.n, "kmax": args.kmax, "c": args.c}
            _validate_analysis_entry(entry, "fibonacci")
            config = ExperimentConfig(source=Path("<cli>"), chain=None, bijection=None,
                                      analyses=(entry,), output=None)
            run(config, out_override=args.out)
            return 0
        if args.command == "hof":
            entry = {"type": "hof", "spec_path": args.config}
            _validate_analysis_entry(entry, "hof")
            config = ExperimentConfig(source=Path(args.config), chain=None, bijection=None,
                                      analyses=(entry,), output=None)
            run(config, out_override=args.out)
            return 0
        if args.command == "compare":
            run_compare(load_config(args.config_a), load_config(args.config_b), args.out)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (StructureError, BijectionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
