"""Per-operator timings and suite runtimes, written to ``BENCH_<label>.json``.

    python3 scripts/bench_layers.py --label NAME

Runs in one process, in this order:

1. every verification suite as ``fracspace run all --seed 42`` runs it, from
   a fresh interpreter, recording each report's ``runtime_s``;
2. each operator at N in {2^10, 2^12, 2^14, 2^16} on a grid of half width
   ``HALF_WIDTH`` (a width the suites do not use, so no cache the suites
   filled serves the operators): the milliseconds of its first call at that
   N, which includes building any per-(N, h) cache, and the best of
   ``REPEATS`` further calls.  ``fractional_power_second_theta`` runs right
   after ``fractional_power``, at another theta: its first call finds the
   grid's exponential tables built and shows what a new order on a known
   grid costs.

The file also records the environment (code and library versions, the git
revision and whether the tree differed from it, CPU count, thread
settings), so two BENCH files can be compared without rerunning.
It is written to the repository root.  RuntimeWarnings are counted, not
printed.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracspace  # noqa: E402
from fracspace import _fd  # noqa: E402
from fracspace.grid import FULL_LINE, HALF_LINE, Grid, PowerWeight, weighted_lp_norm  # noqa: E402
from fracspace.harness import SUITES, SuiteConfig, generate_test_family, run_suite  # noqa: E402
from fracspace.kernels import hardy_hilbert_apply  # noqa: E402
from fracspace.opcalc import (  # noqa: E402
    DIRICHLET,
    HalfLineOperator,
    fractional_power,
    resolvent,
    riemann_liouville,
)
from fracspace.singular import fractional_laplacian_singular  # noqa: E402

SIZES = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
HALF_WIDTH = 32.0
REPEATS = 5
SUITE_SEED = 42
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_OP = HalfLineOperator(DIRICHLET, 2.0, 0.0)

#: name -> (grid kind, call on one grid function)
OPERATORS = {
    "derivative_array": (HALF_LINE, lambda f: _fd.derivative_array(f.values, f.grid.h)),
    "fractional_power": (HALF_LINE, lambda f: fractional_power(_OP, 0.5, f)),
    "fractional_power_second_theta": (HALF_LINE, lambda f: fractional_power(_OP, 0.25, f)),
    "riemann_liouville": (HALF_LINE, lambda f: riemann_liouville(f, 0.5)),
    "resolvent": (HALF_LINE, lambda f: resolvent(_OP, 2.0 + 1.5j, f)),
    "fractional_laplacian_singular": (FULL_LINE,
                                      lambda f: fractional_laplacian_singular(f, 0.5)),
    "hardy_hilbert_apply": (HALF_LINE, hardy_hilbert_apply),
    "weighted_lp_norm": (FULL_LINE, lambda f: weighted_lp_norm(f, 2.0, PowerWeight(0.5))),
}


def _git(*args: str) -> str | None:
    """Output of ``git args`` in the repository, or None without git."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _differs_from_revision(status: str) -> bool:
    """Whether ``git status --porcelain`` output shows a change other than an
    untracked ``BENCH_*.json`` (this script's own output)."""
    return any(not (line.startswith("?? ") and fnmatch.fnmatch(line[3:], "BENCH_*.json"))
               for line in status.splitlines())


def environment() -> dict:
    status = _git("status", "--porcelain")
    return {
        "fracspace": fracspace.__version__,
        "git_revision": _git("rev-parse", "HEAD"),
        # True when tracked or untracked files, other than untracked BENCH
        # files, differ from that revision
        "git_dirty": None if status is None else _differs_from_revision(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def suite_runtimes() -> dict:
    """runtime_s of each suite, configured as ``fracspace run all`` does."""
    return {name: run_suite(SuiteConfig(suite=name, seed=SUITE_SEED).shared()).runtime_s
            for name in SUITES}


def _ms(call, f) -> float:
    start = time.perf_counter()
    call(f)
    return 1e3 * (time.perf_counter() - start)


def operator_timings() -> dict:
    timings = {}
    for name, (kind, call) in OPERATORS.items():
        rows = {}
        for n in SIZES:
            f = generate_test_family(Grid(HALF_WIDTH, n, kind), SUITE_SEED, 1)[0]
            first = _ms(call, f)
            rows[str(n)] = {"first_ms": first,
                            "best_ms": min(_ms(call, f) for _ in range(REPEATS))}
        timings[name] = rows
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        suites = suite_runtimes()
        operators = operator_timings()
    result = {
        "label": args.label,
        "environment": environment(),
        "settings": {"sizes": list(SIZES), "half_width": HALF_WIDTH, "repeats": REPEATS,
                     "suite_seed": SUITE_SEED},
        "suites_runtime_s": suites,
        "suites_total_s": sum(suites.values()),
        "operators_ms": operators,
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
