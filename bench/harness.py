"""Run one workload: repeated set-up, timed passes, output checks, one result line.

A pass runs the workload's job list once, in one process, one job after
another (a closed loop with a single caller). Passes repeat while the
next one should end within the measuring time, and at least
``MIN_PASSES`` run. With
tracing off every pass is timed; with tracing on, untraced and traced
passes alternate, so the per-layer numbers and the tracing overhead come
from the same run. Outputs are checked after the last pass, outside
every timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import detjump
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORK = BENCH / ".work"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Times the imports of the package and the benchmark in a fresh interpreter.
_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
                 "import harness; print(time.perf_counter() - t)")
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "byte",
    "chains.build_s": "s", "chains.validate_s": "s", "chains.load_matrix_csv_s": "s",
    "chains.self_s": "s",
    "expansion.exhaustive_s": "s", "expansion.exhaustive_sets": "count",
    "expansion.exhaustive_sets_per_s": "1/s", "expansion.useful_ratio": "ratio",
    "expansion.scan_s": "s", "expansion.sampled_s": "s", "expansion.sampled_sets_per_s": "1/s",
    "expansion.boundary_histogram_s": "s", "expansion.doubling_counterexample_s": "s",
    "expansion.self_s": "s", "expansion.cpu_s": "s",
    "spectral.cheeger_s": "s", "spectral.cheeger_sets": "count",
    "spectral.cheeger_useful_ratio": "ratio", "spectral.cheeger_sets_per_s": "1/s",
    "spectral.mixing_profile_s": "s", "spectral.mixing_flops": "flop_computed",
    "spectral.mixing_bytes": "byte_computed", "spectral.mixing_gflops_per_s": "GFLOP/s",
    "spectral.symmetrized_kernel_s": "s", "spectral.second_eigenvalue_s": "s",
    "spectral.self_s": "s", "spectral.cpu_s": "s",
    "fibonacci.marginals_s": "s", "fibonacci.pair_steps": "count",
    "fibonacci.pair_steps_per_s": "1/s", "fibonacci.fourier_s": "s",
    "fibonacci.fourier_calls": "count", "fibonacci.fourier_factor_evals": "count",
    "fibonacci.residue_window_s": "s", "fibonacci.build_higher_order_s": "s",
    "fibonacci.ergodicity_s": "s", "fibonacci.register_states": "count", "fibonacci.self_s": "s",
    "trace.overhead_s": "s", "trace.predicted_share": "ratio",
}


@dataclass
class Outcome:
    error: str | None
    data: bytes | None
    cli_bytes: int
    wall: float


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    outcomes: dict[str, Outcome] = field(default_factory=dict)


def run_pass(jobs: list[workloads.Job], tracer: tracing.Tracer | None = None) -> Pass:
    """Run every job once; only the package calls fall inside the timed intervals."""
    result = Pass(traced=tracer is not None)
    for job in jobs:
        job.artifact.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        span = (tracer.span(job.span) if tracer and job.span else contextlib.nullcontext())
        if tracer:
            tracer.job = job.name
        error = text = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with span:
                    code, text = job.run()
            except Exception:  # a traceback is a failed job, not a crashed benchmark
                code, error = -1, traceback.format_exc(limit=3)
            t1, c1 = time.perf_counter(), time.process_time()
        result.wall += t1 - t0
        result.cpu += c1 - c0
        if code != 0 and error is None:
            error = f"exit code {code}: {err.getvalue().strip()[:300]}"
        if text is not None:
            job.artifact.write_text(text, encoding="utf-8")
        data = job.artifact.read_bytes() if job.artifact.exists() else None
        cli_bytes = len(data) if data is not None and text is None else 0
        result.outcomes[job.name] = Outcome(error, data, cli_bytes, t1 - t0)
    return result


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(BENCH)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def set_up(workload: str, seed: int, size: str, threads: int, work: Path,
           import_s: float) -> tuple[list[workloads.Job], float]:
    """Set up ``SETUP_REPEATS`` times and return the jobs and the median set-up time.

    A set-up is the imports, one warm-up pass at smoke size (so lazy
    imports, BLAS threads and first-call costs are paid before timing) and
    writing the inputs. The first repeat counts this process's own
    imports, ``import_s``; later ones time the imports in a fresh
    interpreter, which the call waits for.
    """
    times = []
    for i in range(SETUP_REPEATS):
        imports = import_s if i == 0 else _import_seconds()
        t0 = time.perf_counter()
        run_pass(workloads.build(workload, seed, "smoke", work / "warmup", threads))
        jobs = workloads.build(workload, seed, size, work / "inputs", threads)
        times.append(imports + time.perf_counter() - t0)
    return jobs, statistics.median(times)


def check_outputs(workload: str, seed: int, size: str, jobs: list[workloads.Job],
                  passes: list[Pass], freeze: bool) -> tuple[int, list[str]]:
    """Failed (pass, job) pairs and their reasons.

    A job fails in a pass when it raised or exited non-zero, when its
    artifact differs byte for byte from the first pass's, or when the
    first pass's artifact fails a check or its frozen reference.
    """
    first = {job.name: passes[0].outcomes[job.name].data for job in jobs}
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    problems: dict[str, list[str]] = {}
    for job in jobs:
        key = f"{size}/{workload}/{job.name}"
        try:
            found = job.check(first)
            summary = job.summarize(first[job.name])
            if freeze:
                reference[key] = summary
            elif not job.seeded or seed == DEFAULT_SEED:
                found += (workloads.compare_summary(summary, reference[key]) if key in reference
                          else ["no frozen reference"])
        except Exception as exc:  # a malformed artifact fails its check
            found = [f"check raised {exc!r}"]
        problems[job.name] = found
    if freeze and not any(problems.values()):
        REFERENCE.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")
    failed, reasons = 0, []
    for i, p in enumerate(passes):
        for job in jobs:
            o = p.outcomes[job.name]
            differs = o.data != first[job.name]
            why = (o.error or ("artifact differs from the first pass" if differs else None)
                   or "; ".join(problems[job.name]))
            if why:
                failed += 1
                reasons.append(f"pass {i} {job.name}: {why}")
    return failed, reasons


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
        "workers": threads,
        "detjump": detjump.__version__,
        "commit": _git_commit(),
    }


def main(workload: str, seed: int, seconds: float, trace: bool, *, size: str = "full",
         freeze: bool = False, import_s: float = 0.0, threads: int = 2, out=None) -> int:
    """Run one workload and print the machine record, then the result as the last line."""
    out = out or sys.stdout
    if Path(detjump.__file__).resolve().parent != ROOT / "src" / "detjump":
        print(f"imported detjump from {detjump.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        jobs, setup_s = set_up(workload, seed, size, threads, work, import_s)
        tracer = tracing.Tracer() if trace else None
        passes: list[Pass] = []
        t_end = time.perf_counter() + seconds
        last = 0.0
        # Start a pass only if it should end by the deadline, so a run's
        # length stays near --seconds however long one pass takes.
        while len(passes) < MIN_PASSES or time.perf_counter() + last <= t_end:
            t0 = time.perf_counter()
            if tracer and len(passes) % 2:
                with tracer.installed(len(passes)):
                    passes.append(run_pass(jobs, tracer))
            else:
                passes.append(run_pass(jobs))
            last = time.perf_counter() - t0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, reasons = check_outputs(workload, seed, size, jobs, passes, freeze)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall for p in plain)
    if tracer:
        traced = [(i, p) for i, p in enumerate(passes) if p.traced]
        per_pass = []
        for i, p in traced:
            m = tracing.pass_metrics([s for s in tracer.spans if s.pass_index == i],
                                     workloads.PREDICTED[workload])
            m["cli.artifact_bytes"] = sum(o.cli_bytes for o in p.outcomes.values())
            m["trace.predicted_share"] = m.pop("trace.predicted_s") / p.wall
            m["trace.overhead_s"] = p.wall - wall
            per_pass.append(m)
        # Counts repeat exactly across passes; keep them whole numbers.
        values = {k: (statistics.median_low if isinstance(per_pass[0][k], int)
                      else statistics.median)([m[k] for m in per_pass]) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        trace_file = WORK / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps(tracer.as_records()))
    else:
        values = {"wall_s": wall, "cpu_s": statistics.median(p.cpu for p in plain),
                  "peak_rss_mib": peak_rss_mib, "setup_s": setup_s}
        units = END_TO_END_UNITS
        trace_file = None
    attempted = len(passes) * len(jobs)
    info = {"workload": workload, "seed": seed, "size": size, "trace": int(trace),
            "passes": len(passes), "pass_wall_s": [round(p.wall, 4) for p in passes],
            "job_wall_s": {job.name: [round(p.outcomes[job.name].wall, 4) for p in passes]
                           for job in jobs},
            "failed_frac": failed / attempted, "failures": reasons[:20],
            "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
            "machine": machine_record(threads)}
    print(json.dumps(info), file=out)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}),
          file=out)
    return 0
