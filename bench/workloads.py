"""The benchmark's workloads: inputs made from a seed, job lists and output checks.

Three workloads, each dominated by a different layer:

- ``subsets``: exhaustive subset scans at n <= 24 (expansion and Cheeger),
  where dense work is negligible.
- ``dense``: n = 1024, above every subset cap, where dense evolution and
  the eigensolve dominate; sampled expansion is the only subset route there.
- ``recurrence``: Python-loop-bound recurrence-walk work, with no BLAS and
  no subset scans.

Every random input (bijection seeds, sample and scan seeds, include sets,
file chains) is derived from the workload seed; the program only sees the
generated configs and CSVs. Jobs call the package through ``detjump.cli.main``
or through module attributes looked up at call time, so the tracing wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
from detjump import chains, cli, expansion, fibonacci

Artifacts = dict[str, "bytes | None"]


@dataclass
class Job:
    """One call into the package and the artifact it leaves.

    ``run`` returns the exit code and, for library calls, the text the
    benchmark writes as the artifact. ``check`` reads every artifact of
    the pass (some checks compare two jobs) and returns the problems it
    found. ``seeded`` jobs depend on the workload seed, so their frozen
    reference applies at the default seed only. ``span`` names one
    span the tracer opens around the whole job, for library loops whose
    calls are too many to trace one by one.
    """

    name: str
    run: Callable[[], tuple[int, str | None]]
    artifact: Path
    check: Callable[[Artifacts], list[str]]
    summarize: Callable[[bytes], dict]
    seeded: bool
    span: str | None = None


SIZES = {
    "full": {
        "subsets": dict(spectral_n=22, expansion_n=24, include_sizes=(5, 12), cube_d=4,
                        scan_n=20, scan_trials=8, boundary_n=16, boundary_d=4, doubling_m=49),
        "dense": dict(n=1024, kmax=60, cube_d=10, samples=2000, include_size=300),
        "recurrence": dict(pair_n=200, pair_kmax=200, pair_c=1.0, fourier_n=50,
                           fourier_kmax=400, fourier_c=0.0, hof_n=16, hof_order=3,
                           residue_n=200, residue_checks=150),
    },
    "smoke": {
        "subsets": dict(spectral_n=10, expansion_n=12, include_sizes=(3, 6), cube_d=3,
                        scan_n=10, scan_trials=3, boundary_n=8, boundary_d=3, doubling_m=9),
        "dense": dict(n=64, kmax=20, cube_d=6, samples=100, include_size=20),
        "recurrence": dict(pair_n=30, pair_kmax=40, pair_c=1.0, fourier_n=22,
                           fourier_kmax=60, fourier_c=0.0, hof_n=4, hof_order=3,
                           residue_n=30, residue_checks=20),
    },
}

# The layers each workload is predicted to spend at least half its time in;
# entries ending in "." name a whole layer, others one traced function.
PREDICTED = {
    "subsets": ("expansion.", "spectral.cheeger_constant"),
    "dense": ("spectral.mixing_profile", "spectral.symmetrized_kernel",
              "spectral.second_eigenvalue"),
    "recurrence": ("fibonacci.",),
}

SCAN_EPSILON = 0.5
MIX_EPSILON = 1.0


# --- helpers ------------------------------------------------------------------------

def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return path


def _write_matrix(path: Path, rows: list[dict[int, float]]) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            cells = ["0.0"] * len(rows)
            for j, v in row.items():
                cells[j] = repr(v)
            fh.write(",".join(cells) + "\n")
    return path


def _cli_job(name: str, argv: list[str], out: Path, check, summarize, seeded: bool) -> Job:
    def run() -> tuple[int, None]:
        return cli.main([*argv, "--out", str(out)]), None
    return Job(name, run, out, check, summarize, seeded)


def _lib_job(name: str, make_text: Callable[[], str], out: Path, check, summarize,
             seeded: bool, span: str | None = None) -> Job:
    return Job(name, lambda: (0, make_text()), out, check, summarize, seeded, span)


def _csv(data: bytes) -> tuple[dict[str, list[str]], list[str]]:
    """Columns by header name, and the comment lines."""
    lines = data.decode().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged CSV")
    return {h: [r[i] for r in body] for i, h in enumerate(header)}, comments


def _floats(col: list[str]) -> list[float | None]:
    return [float(v) if v else None for v in col]


def _comment_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split()[2:])


def summarize_json(approx: tuple[str, ...] = (), skip: tuple[str, ...] = (),
                   digest: bool = False) -> Callable[[bytes], dict]:
    """Exact fields compare exactly, ``approx`` fields within the float tolerance.

    Every approximate value is stored as a list of floats (None for an
    empty CSV cell), so one comparison covers columns and scalars.
    """
    def summarize(data: bytes) -> dict:
        obj = json.loads(data)
        if digest:
            return {"exact": {"sha256": hashlib.sha256(data).hexdigest()}, "approx": {}}
        return {"exact": {k: v for k, v in obj.items() if k not in approx and k not in skip},
                "approx": {k: [obj[k]] for k in approx}}
    return summarize


def summarize_csv(exact: tuple[str, ...]) -> Callable[[bytes], dict]:
    def summarize(data: bytes) -> dict:
        cols, comments = _csv(data)
        out = {"exact": {"header": list(cols), **{k: cols[k] for k in exact}}, "approx": {}}
        for k, col in cols.items():
            if k not in exact:
                out["approx"][k] = _floats(col)
        for line in comments:
            for key, value in _comment_fields(line).items():
                if value.lstrip("-").isdigit():
                    out["exact"][key] = int(value)
                else:
                    out["approx"][key] = [float(value)]
        return out
    return summarize


def compare_summary(got: dict, want: dict) -> list[str]:
    """Problems between a summary and its frozen reference."""
    bad = [f"{key} differs from the frozen reference"
           for key in sorted(set(got["exact"]) | set(want["exact"]))
           if got["exact"].get(key) != want["exact"].get(key)]
    for key in sorted(set(got["approx"]) | set(want["approx"])):
        vals, refs = got["approx"].get(key, []), want["approx"].get(key, [])
        if len(vals) != len(refs) or not all(
                v == r if None in (v, r) else orc.close(v, r) for v, r in zip(vals, refs)):
            bad.append(f"{key} differs from the frozen reference beyond tolerance")
    return bad


class Problems(list):
    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _seeds(seed: int, count: int) -> tuple[np.random.Generator, list[int]]:
    rng = np.random.Generator(np.random.Philox(seed))
    return rng, [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --- checks shared by several jobs --------------------------------------------------

def _check_spectral(data: bytes, P: np.ndarray, fwd: list[int]) -> list[str]:
    d = json.loads(data)
    n = len(fwd)
    R = orc.kernel(P, fwd)
    eps, _ = orc.exhaustive_expansion(orc.efe_atoms(P, fwd))
    delta = orc.min_positive(P)
    phi, lam2, w = d["cheeger"], d["lambda2"], d["cheeger_witness"]
    bad = Problems()
    bad.need(d["n"] == n and d["delta"] == delta, "n or delta wrong")
    bad.need(d["expansion_epsilon"] == eps, f"epsilon* {d['expansion_epsilon']!r} != {eps!r}")
    bad.need(1 <= len(w) <= n // 2 and orc.close(orc.cut_ratio(R, w), phi),
             "Cheeger witness does not achieve phi")
    bad.need(orc.close(lam2, orc.second_eigenvalue(R)), "lambda2 off")
    bad.need(lam2 <= 1.0 - phi * phi / 2.0 + 1e-9, "lambda2 above 1 - phi^2/2")
    bad.need(phi >= eps * delta**4 - 1e-9, "phi below epsilon * delta^4")
    return bad


def _check_expansion(data: bytes, atoms: list[int], family: list[int] | None,
                     include: list[int]) -> list[str]:
    """Exhaustive when ``family`` is None, else over the sampled family plus includes."""
    d = json.loads(data)
    n = len(atoms)
    if family is None:
        eps, witness = orc.exhaustive_expansion(atoms)
        checked = orc.sets_up_to_half(n)
    else:
        eps, witness = orc.family_expansion(atoms, family + include)
        checked = sum(1 for m in family if 1 <= m.bit_count() <= n // 2)
    checked += sum(1 for m in include if 1 <= m.bit_count() <= n // 2)
    bad = Problems()
    bad.need(d["mode"] == ("exhaustive" if family is None else "sampled"), "wrong mode")
    bad.need(d["epsilon_star"] == eps, f"epsilon* {d['epsilon_star']!r} != {eps!r}")
    bad.need(d["witness"] == orc.bits(witness), "witness is not the smallest minimizer")
    bad.need(orc.set_ratio(atoms, orc.mask_of(d["witness"])) == d["epsilon_star"] + 1.0,
             "witness ratio != epsilon* + 1")
    bad.need(d["sets_checked"] == checked, f"sets_checked {d['sets_checked']} != {checked}")
    return bad


def _check_profile(col: list[str], Q: np.ndarray, kmax: int) -> list[str]:
    tv = _floats(col)
    n = Q.shape[0]
    ks = sorted({1 << j for j in range(kmax.bit_length()) if 1 << j <= kmax} | {kmax})
    ref = orc.worst_tv_at(Q, ks)
    bad = Problems()
    bad.need(len(tv) == kmax + 1 and orc.close(tv[0], 1.0 - 1.0 / n), "profile length or start")
    bad.need(all(b <= a + 1e-12 for a, b in zip(tv, tv[1:])), "profile increases")
    bad.need(all(orc.close(tv[k], ref[k]) for k in ks), "profile differs from Q^k")
    return bad


# --- subsets ------------------------------------------------------------------------------

def build_subsets(seed: int, z: dict, work: Path, threads: int) -> list[Job]:
    rng, s = _seeds(seed, 4)
    n_sp, n_ex, d, n_sc = z["spectral_n"], z["expansion_n"], z["cube_d"], z["scan_n"]
    include = [sorted(rng.choice(n_ex, size=k, replace=False).tolist()) for k in z["include_sizes"]]

    def spectral_config(name: str, chain: dict, bij_seed: int) -> Path:
        return _write_json(work / f"{name}.config.json", {
            "chain": chain, "bijection": {"kind": "random", "seed": bij_seed},
            "analysis": [{"type": "spectral", "compute_epsilon": True}]})

    cfg_cycle = spectral_config("spectral_cycle", {"family": "lazy_cycle", "n": n_sp}, s[0])
    cfg_cube = spectral_config("spectral_cube", {"family": "hypercube", "d": d}, s[1])
    cfg_exp = _write_json(work / "expansion_cycle.config.json", {
        "chain": {"family": "lazy_cycle", "n": n_ex},
        "bijection": {"kind": "random", "seed": s[2]},
        "analysis": [{"type": "expansion", "include": include}]})
    cfg_scan = _write_json(work / "scan_cycle.config.json", {
        "chain": {"family": "lazy_cycle", "n": n_sc},
        "analysis": [{"type": "scan", "epsilon": SCAN_EPSILON, "trials": z["scan_trials"],
                      "seed": s[3]}]})

    def check_scan(a: Artifacts) -> list[str]:
        cols, _ = _csv(a["scan_cycle"])
        P = orc.lazy_cycle(n_sc)
        bad = Problems()
        bad.need(cols["seed"] == [str(s[3] + t) for t in range(z["scan_trials"])], "trial seeds")
        for t, (eps_txt, good) in enumerate(zip(cols["epsilon_star"], cols["good"])):
            fwd = orc.random_bijection(n_sc, s[3] + t)
            eps, _ = orc.exhaustive_expansion(orc.efe_atoms(P, fwd))
            bad.need(float(eps_txt) == eps, f"trial {t}: epsilon* {eps_txt} != {eps!r}")
            bad.need(good == str(int(SCAN_EPSILON <= eps)), f"trial {t}: good flag")
        return bad

    bn, bd, mmax = z["boundary_n"], z["boundary_d"], z["doubling_m"]

    def boundary_text() -> str:
        return json.dumps({
            "cycle": expansion.boundary_histogram(chains.build_lazy_cycle_walk(bn)),
            "cube": expansion.boundary_histogram(chains.build_hypercube_walk(bd))}, sort_keys=True)

    def check_boundary(a: Artifacts) -> list[str]:
        d_ = json.loads(a["boundary_histogram"])
        bad = Problems()
        for key, P in (("cycle", orc.lazy_cycle(bn)), ("cube", orc.hypercube(bd))):
            got = {int(k): v for k, v in d_[key].items()}
            bad.need(got == orc.boundary_histogram(P), f"{key} histogram differs")
        return bad

    def doubling_text() -> str:
        rows = []
        for m in range(2, mmax + 1):
            g = expansion.doubling_counterexample(m)
            rows.append([g.n, list(g.witness.indices()), g.size_a, g.size_efe, g.epsilon_cap])
        return json.dumps(rows)

    def check_doubling(a: Artifacts) -> list[str]:
        rows = json.loads(a["doubling_counterexample"])
        bad = Problems()
        bad.need(len(rows) == mmax - 1, "row count")
        for m, (n, w, size_a, size_efe, cap) in zip(range(2, mmax + 1), rows):
            bad.need(n == 4 * m - 1 and w == orc.bits(orc.doubling_witness(m)), f"m={m}: witness")
            bad.need(size_a == 2 * m - 2 and size_efe == orc.doubling_efe_size(m), f"m={m}: sizes")
            bad.need(cap == 6.0 / (2 * m - 2), f"m={m}: epsilon cap")
        return bad

    spectral_summary = summarize_json(approx=("lambda2", "cheeger"), skip=("cheeger_witness",))
    P_ex = orc.lazy_cycle(n_ex)
    return [
        _cli_job("spectral_cycle", ["spectral", "--config", str(cfg_cycle)],
                 work / "spectral_cycle.json",
                 lambda a: _check_spectral(a["spectral_cycle"], orc.lazy_cycle(n_sp),
                                           orc.random_bijection(n_sp, s[0])),
                 spectral_summary, True),
        _cli_job("expansion_cycle", ["expansion", "--config", str(cfg_exp)],
                 work / "expansion_cycle.json",
                 lambda a: _check_expansion(
                     a["expansion_cycle"], orc.efe_atoms(P_ex, orc.random_bijection(n_ex, s[2])),
                     None, [orc.mask_of(i) for i in include]),
                 summarize_json(), True),
        _cli_job("spectral_cube", ["spectral", "--config", str(cfg_cube)],
                 work / "spectral_cube.json",
                 lambda a: _check_spectral(a["spectral_cube"], orc.hypercube(d),
                                           orc.random_bijection(1 << d, s[1])),
                 spectral_summary, True),
        _cli_job("scan_cycle", ["scan", "--config", str(cfg_scan), "--threads", str(threads)],
                 work / "scan_cycle.csv", check_scan,
                 summarize_csv(("seed", "epsilon_star", "good")), True),
        _lib_job("boundary_histogram", boundary_text, work / "boundary_histogram.json",
                 check_boundary, summarize_json(digest=True), False),
        _lib_job("doubling_counterexample", doubling_text, work / "doubling_counterexample.json",
                 check_doubling, lambda data: {"exact": {"rows": json.loads(data)}, "approx": {}},
                 False),
    ]


# --- dense ----------------------------------------------------------------------------------

def build_dense(seed: int, z: dict, work: Path, threads: int) -> list[Job]:
    rng, s = _seeds(seed, 3)
    n, kmax, d = z["n"], z["kmax"], z["cube_d"]
    file_chain = orc.random_lazy_kernel(n, rng)
    include = sorted(rng.choice(n, size=z["include_size"], replace=False).tolist())
    csv_path = _write_matrix(work / "file_chain.csv", file_chain)
    cycle = {"family": "lazy_cycle", "n": n}
    jump = {"kind": "random", "seed": s[0]}
    cfg_val = _write_json(work / "validate.config.json",
                          {"chain": {"family": "file", "path": str(csv_path)}})
    cfg_mix = _write_json(work / "mix_cycle.config.json", {
        "chain": cycle, "bijection": jump,
        "analysis": [{"type": "mixing", "kmax": kmax, "epsilon": MIX_EPSILON,
                      "spectral_bound": True}]})
    cfg_cube = _write_json(work / "mix_cube.config.json", {
        "chain": {"family": "hypercube", "d": d}, "bijection": {"kind": "random", "seed": s[1]},
        "analysis": [{"type": "mixing", "kmax": kmax, "spectral_bound": True}]})
    cfg_plain = _write_json(work / "plain_cycle.config.json", {
        "chain": cycle, "analysis": [{"type": "mixing", "kmax": kmax}]})
    cfg_samp = _write_json(work / "sampled.config.json", {
        "chain": cycle, "bijection": jump,
        "analysis": [{"type": "expansion", "mode": "sampled", "num_samples": z["samples"],
                      "seed": s[2], "include": [include]}]})

    def check_validate(a: Artifacts) -> list[str]:
        delta = min(v for row in file_chain for v in row.values())
        want = {"n": n, "delta": delta, "ok": True, "aperiodic": True,
                "assumptions": dict.fromkeys(("irreducible", "symmetric_support",
                                              "positive_diagonal", "uniform_stationary"), True),
                "violations": {}}
        return [] if json.loads(a["validate_file"]) == want else ["validation report differs"]

    def check_mix(data: bytes, P: np.ndarray, fwd: list[int], eps: float | None) -> list[str]:
        cols, _ = _csv(data)
        tv = _floats(cols["worst_tv"])
        bad = Problems()
        bad.need(cols["k"] == [str(k) for k in range(kmax + 1)], "k column")
        bad.extend(_check_profile(cols["worst_tv"], P[fwd], kmax))
        lam2 = orc.second_eigenvalue(orc.kernel(P, fwd))
        nn = len(fwd)
        columns = [("bound_spectral", 2, lambda k: orc.spectral_bound(lam2, nn, k))]
        if eps is not None:
            delta = orc.min_positive(P)
            columns.append(("bound_expansion", 1, lambda k: orc.expansion_bound(nn, eps, delta, k)))
        for name, k0, bound in columns:
            col = _floats(cols[name])
            bad.need(col[:k0] == [None] * k0, f"{name} set below k={k0}")
            bad.need(all(orc.close(col[k], bound(k)) for k in range(k0, kmax + 1)),
                     f"{name} differs from its formula")
            bad.need(all(col[k] >= tv[k] - 1e-12 for k in range(k0, kmax + 1)),
                     f"{name} below the exact TV")
        return bad

    def check_compare(a: Artifacts) -> list[str]:
        cols, _ = _csv(a["compare_cycle"])
        jumped, _ = _csv(a["mix_cycle"])
        bad = Problems()
        bad.need(cols["worst_tv_B"] == jumped["worst_tv"], "jumped column differs from mix")
        bad.extend(_check_profile(cols["worst_tv_A"], orc.lazy_cycle(n), kmax))
        return bad

    def check_sampled(a: Artifacts) -> list[str]:
        atoms = orc.efe_atoms(orc.lazy_cycle(n), orc.random_bijection(n, s[0]))
        return _check_expansion(a["expansion_sampled"], atoms,
                                orc.sampled_masks(n, z["samples"], s[2]), [orc.mask_of(include)])

    profile_summary = summarize_csv(("k",))
    return [
        _cli_job("validate_file", ["validate", "--config", str(cfg_val)], work / "validate.json",
                 check_validate, summarize_json(), True),
        _cli_job("mix_cycle", ["mix", "--config", str(cfg_mix)], work / "mix_cycle.csv",
                 lambda a: check_mix(a["mix_cycle"], orc.lazy_cycle(n),
                                     orc.random_bijection(n, s[0]), MIX_EPSILON),
                 profile_summary, True),
        _cli_job("mix_cube", ["mix", "--config", str(cfg_cube)], work / "mix_cube.csv",
                 lambda a: check_mix(a["mix_cube"], orc.hypercube(d),
                                     orc.random_bijection(1 << d, s[1]), None),
                 profile_summary, True),
        _cli_job("compare_cycle", ["compare", "--config-a", str(cfg_plain),
                                   "--config-b", str(cfg_mix)],
                 work / "compare_cycle.csv", check_compare, profile_summary, True),
        _cli_job("expansion_sampled", ["expansion", "--config", str(cfg_samp)],
                 work / "expansion_sampled.json", check_sampled, summarize_json(), True),
    ]


# --- recurrence -------------------------------------------------------------------------------

def build_recurrence(seed: int, z: dict, work: Path, threads: int) -> list[Job]:
    rng = np.random.Generator(np.random.Philox(seed))
    base = orc.random_lazy_kernel(z["hof_n"], rng)
    spec = _write_json(work / "register.spec.json", {
        "base_n": z["hof_n"], "order": z["hof_order"], "update": "additive",
        "base_kernel_csv": str(_write_matrix(work / "register_base.csv", base))})
    rn = z["residue_n"]
    moduli = rng.integers(2, rn + 1, size=z["residue_checks"])
    pairs = [(int(m), int(rng.integers(1, m))) for m in moduli]

    def check_fib(data: bytes, n: int, kmax: int, c: float) -> list[str]:
        cols, comments = _csv(data)
        tv, fb = _floats(cols["tv_exact"]), _floats(cols["tv_fourier_bound"])
        gk = math.floor(5.0 * (math.log(n) ** 2 + c * math.log(n))) if n >= 22 else 0
        laws = orc.fibonacci_laws(n, max(kmax, gk))
        exact = [float(np.abs(p - 1.0 / n).sum()) / 2.0 for p in laws]
        bad = Problems()
        bad.need(cols["k"] == [str(k) for k in range(1, kmax + 1)], "k column")
        bad.need(all(orc.close(t, e) for t, e in zip(tv, exact)),
                 "exact TV differs from the walk law")
        bad.need(all(orc.close(b, e) for b, e in zip(fb, orc.fourier_bounds(n, kmax))),
                 "Fourier bound differs from its formula")
        bad.need(all(t <= b + orc.ABS_TOL for t, b in zip(tv, fb)),
                 "exact TV above the Fourier bound")
        if n >= 22:
            g = _comment_fields(comments[0]) if len(comments) == 1 else {}
            bad.need(g.get("k") == str(gk), "guarantee step count")
            bound = float(g.get("tv_bound", "nan"))
            at_k = float(g.get("tv_at_k", "nan"))
            bad.need(orc.close(bound, 1.6 * math.exp(-c / 2.0)), "guarantee bound")
            bad.need(orc.close(at_k, exact[gk - 1]) and at_k <= bound, "guarantee distance")
        return bad

    def check_hof(a: Artifacts) -> list[str]:
        want = {"states": z["hof_n"] ** z["hof_order"], "ergodic": True, "uniform_stationary": True}
        return [] if json.loads(a["hof_register"]) == want else ["register chain report differs"]

    def residue_text() -> str:
        gaps, failures = {}, []
        for m in range(2, rn + 1):
            row = []
            for a in range(1, m):
                w = fibonacci.check_residue_window(m, a)
                row.append(w.worst_gap)
                if not w.holds:
                    failures.append([m, a])
            gaps[str(m)] = row
        return json.dumps({"failures": failures, "worst_gap": gaps})

    def check_residue(a: Artifacts) -> list[str]:
        d = json.loads(a["residue_windows"])
        bad = Problems()
        bad.need(d["failures"] == [], f"window property fails at {d['failures'][:5]}")
        bad.need([len(d["worst_gap"].get(str(m), [])) for m in range(2, rn + 1)]
                 == list(range(1, rn)), "missing moduli")
        for m, x in pairs:
            holds, gap = orc.residue_worst_gap(m, x)
            bad.need(holds and d["worst_gap"][str(m)][x - 1] == gap, f"n={m}, a={x}: worst gap")
        return bad

    def fib_job(name: str, n: int, kmax: int, c: float) -> Job:
        return _cli_job(name, ["fibonacci", "--n", str(n), "--kmax", str(kmax), "--c", repr(c)],
                        work / f"{name}.csv", lambda a: check_fib(a[name], n, kmax, c),
                        summarize_csv(("k",)), False)

    return [
        fib_job("fibonacci_pair", z["pair_n"], z["pair_kmax"], z["pair_c"]),
        fib_job("fibonacci_fourier", z["fourier_n"], z["fourier_kmax"], z["fourier_c"]),
        _cli_job("hof_register", ["hof", "--config", str(spec)], work / "hof_register.json",
                 check_hof, summarize_json(), True),
        _lib_job("residue_windows", residue_text, work / "residue_windows.json", check_residue,
                 summarize_json(digest=True), False, span="fibonacci.check_residue_window"),
    ]


WORKLOADS = {"subsets": build_subsets, "dense": build_dense, "recurrence": build_recurrence}


def build(workload: str, seed: int, size: str, work: Path, threads: int) -> list[Job]:
    """Write the workload's inputs under ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, SIZES[size][workload], work, threads)
