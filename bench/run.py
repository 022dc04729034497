"""Benchmark entry point: run one workload at one seed and print its metrics.

    python3 bench/run.py --workload subsets --seed 1 --seconds 32 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the machine, the
pass times and any failed checks. ``--freeze`` rewrites the frozen
references for the given workload and size; it needs the default seed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("subsets", "dense", "recurrence")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measuring time; at least three passes run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--freeze", action="store_true",
                        help="write the frozen references instead of checking against them")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "detjump" / "__init__.py"
    if not package.is_file():
        print(f"no detjump sources at {package.parent}; run from a full checkout", file=sys.stderr)
        return 2
    if args.freeze and args.seed != 1:
        parser.error("--freeze needs the default seed 1")
    # One process, at most two busy threads: BLAS and the scan's --threads
    # workers share the same cap, set before numpy loads.
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace),
                        size=args.size, freeze=args.freeze,
                        import_s=time.perf_counter() - T0, threads=threads)


if __name__ == "__main__":
    sys.exit(main())
