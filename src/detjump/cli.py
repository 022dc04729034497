"""Experiment orchestration: JSON configs in, deterministic artifacts out.

One config describes a chain, an optional bijection, and a list of
chain analyses; each subcommand runs the analyses of its one type, and
each writes one CSV or JSON artifact atomically (temp file + rename);
a target that exists and is not a regular file, such as a FIFO, a pipe
or a device, is written in place.
`fibonacci` and `hof` read no config: their flags are their one
analysis. Everything is a pure function of the inputs and the seeds
they contain, so identical runs produce identical bytes.

Exit codes: 0 success, 2 config error, 3 capacity error, 4 invariant
violation detected during analysis, including a chain that fails the
standing assumptions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .chains import (
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
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    source: Path
    chain: dict
    bijection: dict | None
    analyses: tuple[dict, ...]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# --- runners: one artifact text from one checked analysis entry -------------------
#
# Package functions are called by their names in this module, looked up at call
# time, so that a wrapper installed on the module sees every call.

def _json_artifact(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _record(report: Any) -> dict:
    """A report dataclass's fields as JSON values; a StateSet lists its states, None is left out."""
    out = {}
    for field in dataclass_fields(report):
        value = getattr(report, field.name)
        if value is not None:
            out[field.name] = list(value.indices()) if isinstance(value, StateSet) else value
    return out


def _run_mixing(params: dict, P: TransitionMatrix, f: Permutation) -> str:
    epsilon, want_spectral = params["epsilon"], params["spectral_bound"]
    n = P.n
    if epsilon is not None:
        delta = min_positive_entry(P)
        expansion_tv_bound(n, epsilon, delta, 1)  # refuses a bad epsilon before any step
    profile = mixing_profile(compose(f, P), params["kmax"])
    # Eigensolve after the profile: BLAS threads left spinning by it slow a profile.
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


def _run_spectral(params: dict, P: TransitionMatrix, f: Permutation) -> str:
    eps = check_expansion(P, f).epsilon_star if params["compute_epsilon"] else None
    return _json_artifact(_record(spectral_report(P, f, expansion_epsilon=eps)))


def _run_expansion(params: dict, P: TransitionMatrix, f: Permutation) -> str:
    return _json_artifact(_record(check_expansion(
        P, f, mode=params["mode"], num_samples=params["num_samples"],
        seed=params["seed"],
        include=[StateSet.from_indices(P.n, idxs) for idxs in params["include"]],
    )))


def _run_scan(params: dict, P: TransitionMatrix) -> str:
    result = scan_random_bijections(P, params["epsilon"], params["trials"], params["seed"])
    lines = ["seed,epsilon_star,good"]
    for seed, eps_star, good in result.rows:
        lines.append(f"{seed},{_fmt(eps_star)},{1 if good else 0}")
    return "\n".join(lines) + "\n"


def _run_fibonacci(params: dict) -> str:
    n, kmax, c = params["n"], params["kmax"], float(params["c"])
    guarantee = mixing_guarantee(n, c) if n >= 22 else None
    horizon = max(kmax, guarantee.k) if guarantee else kmax
    tv = tv_distance(fibonacci_walk_marginals(n, horizon), np.full(n, 1.0 / n))
    lines = ["k,tv_exact,tv_fourier_bound"]
    for k in range(1, kmax + 1):
        lines.append(f"{k},{_fmt(tv[k - 1])},{_fmt(fourier_tv_bound(n, k))}")
    if guarantee is not None:
        lines.append(
            f"# guarantee c={_fmt(c)} k={guarantee.k} "
            f"tv_bound={_fmt(guarantee.tv_bound)} tv_at_k={_fmt(tv[guarantee.k - 1])}"
        )
    return "\n".join(lines) + "\n"


def _run_hof(params: dict) -> str:
    spec_path = params["spec_path"]
    raw = _check(_load_json(Path(spec_path)), HOF_SPEC, spec_path)
    base = load_matrix_csv(raw["base_kernel_csv"])
    _require(base.n == raw["base_n"],
             f"{spec_path}: base kernel has {base.n} states, spec says {raw['base_n']}")
    spec = higher_order_spec(base, order=raw["order"], update=raw["update"])
    return _json_artifact({"states": spec.states, **_record(verify_uniform_ergodicity(spec))})


# --- the config schema: every section, family, kind and analysis type, once ---------

_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config key: the values it takes, in words and as a test, and its default.

    A key without a default must be given. A key whose ``when`` names an
    earlier key of its section and a value is needed when that key has
    that value, and allowed only then. ``section`` declares the keys of an
    object value.
    """

    what: str
    ok: Callable[[Any], bool]
    default: Any = _REQUIRED
    when: tuple[str, Any] | None = None
    section: dict[str, Field] | None = None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_finite_number(value: Any) -> bool:
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


def _int(low: int | None = None, **kw: Any) -> Field:
    return Field("an integer" + ("" if low is None else f" >= {low}"),
                 lambda v: _is_int(v) and (low is None or v >= low), **kw)


def _number(positive: bool = False, **kw: Any) -> Field:
    if positive:
        return Field("a finite positive number", lambda v: _is_finite_number(v) and v > 0, **kw)
    return Field("a finite number >= 0", lambda v: _is_finite_number(v) and v >= 0, **kw)


def _flag() -> Field:
    return Field("a boolean", lambda v: isinstance(v, bool), False)


def _choice(*options: str, **kw: Any) -> Field:
    return Field("one of " + ", ".join(options), lambda v: isinstance(v, str) and v in options,
                 **kw)


def _file(**kw: Any) -> Field:
    return Field("the path of an existing file",
                 lambda v: isinstance(v, str) and Path(v).is_file(), **kw)


def _object(section: dict[str, Field] | None = None, default: Any = None) -> Field:
    return Field("an object", lambda v: isinstance(v, dict), default, section=section)


# An analysis's own artifact path; ``--out`` takes its place.
_OUTPUT = _object({"path": Field("a string", lambda v: isinstance(v, str), None)})

CONFIG = {"chain": _object(default=_REQUIRED), "bijection": _object(),
          "analysis": Field("a list", lambda v: isinstance(v, list), ())}


@dataclass(frozen=True)
class Family:
    """A chain family: its keys, and its builder returning the chain."""

    fields: dict[str, Field]
    build: Callable[[dict], TransitionMatrix]


CHAINS = {
    "lazy_cycle": Family({"n": _int(3)}, lambda c: build_lazy_cycle_walk(c["n"])),
    "hypercube": Family({"d": _int(1)}, lambda c: build_hypercube_walk(c["d"])),
    "file": Family({"path": _file()}, lambda c: load_matrix_csv(c["path"])),
}

# Bijection kinds; their keys are the keyword arguments of build_permutation,
# except an explicit bijection's ``path``, which is read by load_permutation.
BIJECTIONS: dict[str, dict[str, Field]] = {
    "identity": {}, "doubling": {}, "cubing": {}, "inversion": {},
    "affine": {"a": _int()},
    "random": {"seed": _int(0)},
    "explicit": {"path": _file(default=None),
                 "values": Field("a list of integers", _is_int_list, None, when=("path", None))},
}

# The register-chain spec file that `hof` reads.
HOF_SPEC = {
    "base_n": _int(), "order": _int(),
    "update": Field("a builtin name or a list of integers",
                    lambda v: isinstance(v, str) or _is_int_list(v)),
    "base_kernel_csv": _file(),
}


@dataclass(frozen=True)
class Analysis:
    """An analysis type: its keys, its subcommand and what its runner takes.

    A ``chain`` analysis is an entry of a config's analysis list; its
    runner gets the checked entry, then the configured chain, then the
    configured bijection if ``bijection``. Any other analysis is its
    subcommand's flags, and its runner gets only the checked flags.
    """

    fields: dict[str, Field]
    command: str
    help: str
    runner: Callable[..., str]
    chain: bool = False
    bijection: bool = False


ANALYSES = {
    "mixing": Analysis(
        {"kmax": _int(0), "epsilon": _number(positive=True, default=None),
         "spectral_bound": _flag()},
        "mix", "worst-start mixing profile CSV", _run_mixing, True, True),
    "spectral": Analysis(
        {"compute_epsilon": _flag()},
        "spectral", "spectral/bottleneck report JSON", _run_spectral, True, True),
    "expansion": Analysis(
        {"mode": _choice("exhaustive", "sampled", default="exhaustive"),
         "num_samples": _int(0, default=None, when=("mode", "sampled")),
         "seed": _int(0, default=None, when=("mode", "sampled")),
         "include": Field("a list of lists of integers",
                          lambda v: isinstance(v, list) and all(map(_is_int_list, v)), ())},
        "expansion", "expansion scan JSON", _run_expansion, True, True),
    "scan": Analysis(  # each trial draws its own bijection
        {"epsilon": _number(), "trials": _int(0), "seed": _int(0)},
        "scan", "random-bijection scan CSV", _run_scan, chain=True),
    "fibonacci": Analysis(
        {"n": _int(2), "kmax": _int(1), "c": _number(default=0.0)},
        "fibonacci", "recurrence-walk distance curve CSV", _run_fibonacci),
    "hof": Analysis(
        {"spec_path": _file()},
        "hof", "verify a higher-order register chain", _run_hof),
}


def _check(section: Any, fields: dict[str, Field], where: str) -> dict:
    """``section`` with every declared default filled in; ConfigError on a bad or extra key."""
    _require(isinstance(section, dict), f"{where} must be an object")
    for key in section:
        _require(key in fields, f"{where}: undeclared key {key!r}")
    out = {}
    for name, field in fields.items():
        when = field.when
        applies = when is None or out[when[0]] == when[1]
        if name in section:
            value = section[name]
            if not applies:
                raise ConfigError(
                    f"{where}: {name} is not allowed with {when[0]}={out[when[0]]!r:.80}")
            _require(field.ok(value), f"{where}: {name} must be {field.what}, got {value!r:.80}")
            if field.section is not None:
                value = _check(value, field.section, f"{where}: {name}")
        else:
            needed = field.default is _REQUIRED or (when is not None and applies)
            _require(not needed, f"{where}: missing {name}, {field.what}")
            value = field.default
        out[name] = value
    return out


def _check_variant(section: Any, key: str, kinds: dict[str, dict[str, Field]],
                   where: str) -> dict:
    """A section tagged by ``key``, checked against the fields of its kind."""
    _require(isinstance(section, dict), f"{where} must be an object")
    tag = section.get(key)
    _require(isinstance(tag, str) and tag in kinds,
             f"{where}: {key} must be one of {', '.join(kinds)}, got {tag!r:.80}")
    rest = {k: v for k, v in section.items() if k != key}
    return {key: tag, **_check(rest, kinds[tag], f"{where} ({tag})")}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and check an experiment config file, filling in every default.

    The chain section is required and every analysis is a chain analysis;
    a `fibonacci` or `hof` entry is refused, naming its subcommand.
    """
    path = Path(path)
    raw = _check(_load_json(path), CONFIG, str(path))
    chain = _check_variant(raw["chain"], "family", {k: f.fields for k, f in CHAINS.items()},
                           f"{path}: chain")
    bijection = raw["bijection"]
    if bijection is not None:
        bijection = _check_variant(bijection, "kind", BIJECTIONS, f"{path}: bijection")
    kinds = {t: {**a.fields, "output": _OUTPUT} for t, a in ANALYSES.items() if a.chain}
    flags_only = [t for t in ANALYSES if t not in kinds]
    analyses = []
    for i, entry in enumerate(raw["analysis"]):
        where = f"{path}: analysis[{i}]"
        tag = entry.get("type") if isinstance(entry, dict) else None
        if tag in flags_only:  # a list: a JSON tag need not be hashable
            raise ConfigError(f"{where}: a {tag} analysis is not read from a config; "
                              f"run `detjump {ANALYSES[tag].command}` with its flags")
        analyses.append(_check_variant(entry, "type", kinds, where))
    return ExperimentConfig(source=path, chain=chain, bijection=bijection,
                            analyses=tuple(analyses))


def build_chain(config: ExperimentConfig) -> tuple[TransitionMatrix, ValidationReport]:
    """The configured chain and its one report on the standing assumptions."""
    P = CHAINS[config.chain["family"]].build(config.chain)
    return P, validate(P)


def build_bijection(config: ExperimentConfig, n: int) -> Permutation:
    """The configured bijection, defaulting to the identity."""
    if config.bijection is None:
        return identity_permutation(n)
    params = dict(config.bijection)
    path = params.pop("path", None)
    if path is not None:
        params["values"] = load_permutation(path).forward
    return build_permutation(params.pop("kind"), n, **params)


def _umask() -> int:
    """The process's file mode creation mask (read by setting it and setting it back)."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _write(text: str, target: str | Path | None) -> Path | None:
    """Write one artifact atomically (temp file + rename), or to stdout without a target.

    A written path is reported on stderr as ``wrote PATH``, so stdout holds
    artifacts only, also when the target is /dev/stdout.

    The temp file goes beside the file the target names once symbolic
    links are followed, and replaces that file, so a link stays a link.
    The artifact keeps the mode of the file it replaces; a new one gets
    the mode ``open`` would give it, 0o666 under the umask. A target that
    exists and is not a regular file (a FIFO, a pipe reached through
    /dev/stdout, a device) has no file to replace, so it is opened and
    written in place. A target that cannot be written is a config error
    naming it.
    """
    if target is None:
        sys.stdout.write(text)
        return None
    target = Path(target)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            path = Path(os.path.realpath(target))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
                os.chmod(tmp, 0o666 & ~_umask() if mode is None else stat.S_IMODE(mode))
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc
    print(f"wrote {target}", file=sys.stderr)
    return target


def _chain_inputs(config: ExperimentConfig, bijection: bool) -> tuple:
    """The configured chain, then the configured bijection if ``bijection``.

    Chain analyses rely on the standing assumptions; a chain that fails
    one exits 4, as in `validate`.
    """
    P, report = build_chain(config)
    if not report.ok:
        failed = ", ".join(f"{name} at {pair}" for name, pair in sorted(report.violations.items()))
        raise InvariantError(f"{config.source}: chain fails the standing assumptions: {failed}")
    return (P, build_bijection(config, P.n)) if bijection else (P,)


def _target(entry: dict, out_override: str | None) -> Path | None:
    """The artifact path: ``--out``, else the analysis's own ``output.path``, else stdout."""
    if out_override is not None:
        return Path(out_override)
    path = (entry["output"] or {}).get("path")
    return Path(path) if path else None


def run(config: ExperimentConfig, kind: str, out_override: str | None = None) -> list[Path | None]:
    """Execute the config's analyses of type ``kind`` in order, one artifact each.

    ``out_override`` requires exactly one selected analysis. Artifacts
    without a path go to stdout. Two selected analyses whose paths
    resolve to the same file are refused before any of them runs.
    """
    selected = [e for e in config.analyses if e["type"] == kind]
    if not selected:
        raise ConfigError(f"{config.source}: no analysis of type {kind!r} in config")
    if out_override is not None and len(selected) != 1:
        raise ConfigError(
            f"{config.source}: --out needs exactly one selected analysis, got {len(selected)}"
        )
    targets = [_target(entry, out_override) for entry in selected]
    # realpath is Path.resolve without its RuntimeError on a symlink loop
    files = [os.path.realpath(t) for t in targets if t is not None]
    twice = sorted({f for f in files if files.count(f) > 1})
    _require(not twice, f"{config.source}: more than one analysis writes {', '.join(twice)}")
    analysis = ANALYSES[kind]
    inputs = _chain_inputs(config, analysis.bijection)
    return [_write(analysis.runner(entry, *inputs), target)
            for entry, target in zip(selected, targets)]


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
    _write(_json_artifact(payload), out_override)
    return 0 if report.ok else 4


def run_compare(config_a: ExperimentConfig, config_b: ExperimentConfig,
                out_override: str | None) -> None:
    """Side-by-side worst-start mixing table for two configs.

    Each config gives its chain, its bijection and the ``kmax`` of its one
    mixing analysis; the table goes to ``out_override`` or stdout.
    """

    def mixing_entry(cfg: ExperimentConfig) -> dict:
        entries = [e for e in cfg.analyses if e["type"] == "mixing"]
        _require(len(entries) == 1, f"{cfg.source}: compare needs exactly one mixing analysis "
                                    f"in each config, got {len(entries)}")
        return entries[0]

    ea, eb = mixing_entry(config_a), mixing_entry(config_b)
    if ea["kmax"] != eb["kmax"]:
        raise ConfigError(
            f"compare needs equal kmax, got {ea['kmax']} ({config_a.source}) "
            f"and {eb['kmax']} ({config_b.source})"
        )

    def profile(cfg: ExperimentConfig, entry: dict) -> list[tuple[int, float]]:
        P, f = _chain_inputs(cfg, True)
        return mixing_profile(compose(f, P), entry["kmax"])

    rows_a, rows_b = profile(config_a, ea), profile(config_b, eb)
    lines = ["k,worst_tv_A,worst_tv_B"]
    for (k, tva), (_, tvb) in zip(rows_a, rows_b):
        lines.append(f"{k},{_fmt(tva)},{_fmt(tvb)}")
    _write("\n".join(lines) + "\n", out_override)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detjump",
        description="Deterministic-jump speedup experiments for finite Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"validate": sub.add_parser("validate",
                                           help="check the standing chain assumptions")}
    for kind in ANALYSES.values():
        commands[kind.command] = p = sub.add_parser(kind.command, help=kind.help)
        if kind.chain:
            p.add_argument("--config", required=True, help="experiment config JSON")
    commands["validate"].add_argument("--config", required=True, help="experiment config JSON")
    commands["scan"].add_argument(
        "--threads", type=int, default=1,
        help="ignored (must be >= 1); kept so that existing scan command lines run")
    commands["fibonacci"].add_argument("--n", type=int, required=True, help="modulus")
    commands["fibonacci"].add_argument("--kmax", type=int, required=True,
                                       help="largest step count")
    commands["fibonacci"].add_argument("--c", type=float, default=0.0,
                                       help="guarantee strength")
    commands["hof"].add_argument(
        "--config", dest="spec_path", metavar="CONFIG", required=True,
        help="register-chain spec JSON (base_n, order, update, base_kernel_csv)")
    commands["compare"] = p = sub.add_parser("compare",
                                             help="side-by-side mixing table for two configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    for p in commands.values():
        p.add_argument("--out", default=None, help="output artifact path (stdout if omitted)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", 1)
    try:
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        if args.command == "validate":
            return run_validate(load_config(args.config), args.out)
        if args.command == "compare":
            run_compare(load_config(args.config_a), load_config(args.config_b), args.out)
            return 0
        kind, analysis = next((t, a) for t, a in ANALYSES.items() if a.command == args.command)
        if analysis.chain:
            run(load_config(args.config), kind, args.out)
        else:  # the subcommand's own flags are its one analysis
            flags = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            _write(analysis.runner(_check(flags, analysis.fields, f"command line ({kind})")),
                   args.out)
        return 0
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
