import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` robust

import detjump as dj

# The same examples on every checkout and run, and no example database; a
# test's own @settings still sets its example count. Hypothesis also caches
# the constants it reads from local source files; that cache lives in a
# temporary directory removed at exit, so no run writes .hypothesis/ here.
settings.register_profile("default", derandomize=True, database=None)
settings.load_profile("default")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="detjump-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


@contextmanager
def _allocation_peak():
    """Trace the block's allocations; on exit, the yielded record's ``bytes``
    is their peak above what was allocated at its start."""
    record = SimpleNamespace(bytes=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        yield record
        record.bytes = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def allocation_peak():
    """``with allocation_peak() as peak: ...``, then ``peak.bytes`` is the block's peak."""
    return _allocation_peak


@pytest.fixture(scope="session")
def chain_zoo():
    """Small (label, P, f) instances shared by the property tests; all n <= 16."""
    cases = [
        ("cycle5-identity", dj.build_lazy_cycle_walk(5), dj.identity_permutation(5)),
        ("cycle5-doubling", dj.build_lazy_cycle_walk(5), dj.doubling_permutation(5)),
        ("cycle5-random3", dj.build_lazy_cycle_walk(5), dj.random_permutation(5, 3)),
        ("cycle8-random0", dj.build_lazy_cycle_walk(8), dj.random_permutation(8, 0)),
        ("cycle12-affine5", dj.build_lazy_cycle_walk(12), dj.affine_permutation(12, 5)),
        ("cycle12-random1", dj.build_lazy_cycle_walk(12), dj.random_permutation(12, 1)),
        ("cycle13-doubling", dj.build_lazy_cycle_walk(13), dj.doubling_permutation(13)),
        ("cube2-random2", dj.build_hypercube_walk(2), dj.random_permutation(4, 2)),
        ("cube3-random5", dj.build_hypercube_walk(3), dj.random_permutation(8, 5)),
        ("cycle16-random4", dj.build_lazy_cycle_walk(16), dj.random_permutation(16, 4)),
    ]
    return cases


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", None) == "call":
                rows.append((nodeid.split("::")[-1], status))
    for rep in terminalreporter.stats.get("skipped", []):
        nodeid = getattr(rep, "nodeid", "")
        if "test_acceptance" in nodeid:
            rows.append((nodeid.split("::")[-1], "skipped"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(set(rows)):
            label = "PASS" if status == "passed" else status.upper()
            terminalreporter.write_line(f"{label:>7}  {name}")
