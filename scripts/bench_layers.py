"""Per-operator timings and suite runtimes, written to ``BENCH_<label>.json``.

    python3 scripts/bench_layers.py --label NAME

Runs, in this order:

1. ``import fracspace`` in ``COLD_STARTS`` fresh interpreters, from a
   temporary copy of ``src`` without ``__pycache__`` whose bytecode cache one
   untimed import has written (``"bytecode_cache": "warm"``), so the
   checkout's caches neither help nor are touched; the ``cold_start`` block
   records the median wall time of the import, the median ``ru_maxrss``
   after it (in MiB, as the benchmark's ``peak_rss_mb``), the median number
   of loaded modules, and whether ``scipy.integrate`` or ``scipy.optimize``
   loaded in any run;
2. in this process, every verification suite as ``fracspace run all --seed
   42`` runs it, from a fresh interpreter, recording each report's
   ``runtime_s``;
3. each operator at N in {2^10, 2^12, 2^14, 2^16} on a grid of half width
   ``HALF_WIDTH`` (a width the suites do not use, so no cache the suites
   filled serves the operators): the milliseconds of its first call at that
   N, which includes building any per-(N, h) cache, and the best of
   ``REPEATS`` further calls.  ``fractional_power_second_theta`` runs right
   after ``fractional_power``, at another theta: its first call finds the
   grid's exponential tables built and shows what a new order on a known
   grid costs.  Each operator is also timed at every N on the complex
   input (1 - 0.5i) f, right after its real input f; that entry is
   ``<name>_complex``, and its first call finds the caches the real calls
   built.  ``bessel_kernel`` runs once, on an 800-point logarithmic mesh of
   [1e-6, 2] near the origin, whose size does not depend on N.
   ``sector_pencil`` is one certified sector norm (``opcalc._pencil_norm``)
   at ``SECTOR_EDGE``; it reads only the grid of its input, so its
   ``_complex`` entry times the same call again.

Each entry also records ``traced_peak_mb``, the ``tracemalloc`` peak (in
10^6 bytes) of one more call, result included, made on its own after the
timed calls so that no timing is traced.

The file also records the environment (code and library versions, the git
revision and whether the tree differed from it, CPU count, thread
settings), so two BENCH files can be compared without rerunning.
It is written to the repository root.  RuntimeWarnings are counted, not
printed.
"""

from __future__ import annotations

import argparse
import cmath
import fnmatch
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracspace  # noqa: E402
from fracspace import _fd  # noqa: E402
from fracspace.fourier import spectral_derivative  # noqa: E402
from fracspace.grid import FULL_LINE, HALF_LINE, Grid, PowerWeight, weighted_lp_norm  # noqa: E402
from fracspace.harness import SUITES, generate_test_family, run_suite  # noqa: E402
from fracspace.kernels import bessel_kernel, hardy_hilbert_apply  # noqa: E402
from fracspace.opcalc import (  # noqa: E402
    DIRICHLET,
    HalfLineOperator,
    fractional_power,
    _pencil_norm,
    resolvent,
    riemann_liouville,
)
from fracspace.singular import fractional_laplacian_singular  # noqa: E402

SIZES = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
HALF_WIDTH = 32.0
REPEATS = 5
SUITE_SEED = 42
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COLD_STARTS = 5
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize")
#: run by a fresh interpreter: times ``import fracspace`` and prints what it cost
_COLD_START = f"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fracspace
wall = time.perf_counter() - start
print(json.dumps({{
    "import_s": wall,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "modules": len(sys.modules),
    "loaded": {{m: m in sys.modules for m in {HEAVY_SCIPY!r}}},
}}))
"""

_OP = HalfLineOperator(DIRICHLET, 2.0, 0.0)
#: |lambda| = 4 on the edge of the sector that ``resolvent-sectoriality`` probes
SECTOR_EDGE = 4.0 * cmath.exp(1j * (math.pi / 4 + 0.1))

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
    "spectral_derivative": (FULL_LINE, spectral_derivative),
    "sector_pencil": (HALF_LINE, lambda f: _pencil_norm(_OP, SECTOR_EDGE, f.grid)),
}
#: 800 points from 1e-6 to 2, log-spaced: the kernel's near-origin range,
#: kept so that the ``bessel_kernel`` entries of BENCH files stay comparable
NEAR_MESH = np.logspace(-6.0, np.log10(2.0), 800)


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
    return {name: run_suite(name, SUITE_SEED).runtime_s for name in SUITES}


def _ms(call, f) -> float:
    start = time.perf_counter()
    call(f)
    return 1e3 * (time.perf_counter() - start)


def _traced_peak_mb(call, arg) -> float:
    """tracemalloc peak of one call, its result included, in 10^6 bytes."""
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _row(call, arg) -> dict:
    first = _ms(call, arg)
    return {"first_ms": first,
            "best_ms": min(_ms(call, arg) for _ in range(REPEATS)),
            "traced_peak_mb": _traced_peak_mb(call, arg)}


def operator_timings() -> dict:
    timings = {}
    for name, (kind, call) in OPERATORS.items():
        timings[name], timings[name + "_complex"] = {}, {}
        for n in SIZES:
            f = generate_test_family(Grid(HALF_WIDTH, n, kind), SUITE_SEED, 1)[0]
            timings[name][str(n)] = _row(call, f)
            timings[name + "_complex"][str(n)] = _row(call, (1.0 - 0.5j) * f)
    timings["bessel_kernel"] = {"near_mesh_800": _row(lambda x: bessel_kernel(0.5, x),
                                                      NEAR_MESH)}
    return timings


def cold_start() -> dict:
    """Median cost of ``import fracspace`` over ``COLD_STARTS`` fresh interpreters,
    each reading the bytecode cache that an untimed first import wrote into a
    copy of ``src``."""
    # the cache must be written for the state recorded below to hold
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        src = shutil.copytree(ROOT / "src", Path(tmp) / "src",
                              ignore=shutil.ignore_patterns("__pycache__"))
        runs = [json.loads(subprocess.run([sys.executable, "-c", _COLD_START, str(src)],
                                          capture_output=True, text=True, check=True,
                                          timeout=120, env=env).stdout)
                for _ in range(COLD_STARTS + 1)][1:]
    return {"runs": COLD_STARTS, "bytecode_cache": "warm",
            "import_s": statistics.median(r["import_s"] for r in runs),
            "maxrss_mb": statistics.median(r["maxrss_mb"] for r in runs),
            "modules": statistics.median(r["modules"] for r in runs),
            "loaded": {m: any(r["loaded"][m] for r in runs) for m in HEAVY_SCIPY}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    cold = cold_start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        suites = suite_runtimes()
        operators = operator_timings()
    result = {
        "label": args.label,
        "environment": environment(),
        "settings": {"sizes": list(SIZES), "half_width": HALF_WIDTH, "repeats": REPEATS,
                     "suite_seed": SUITE_SEED, "cold_starts": COLD_STARTS},
        "cold_start": cold,
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
