"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --launched T --trace 0|1 [--setup-only]

``--launched`` is the CLOCK_MONOTONIC reading (``time.monotonic()``) the
parent took just before starting this process, so ``setup_s`` runs from
interpreter start to the first timed call: it covers the interpreter, the
fracspace import and the seeded input generation.  ``wall_s`` runs from the
first operator call to the pass's verdict.  With ``--setup-only`` the pass
stops at the first timed call and reports only ``setup_s``.  The pass
prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Code and library versions, CPU count and thread settings of this pass."""
    import fracspace
    import numpy
    import scipy
    return {
        "fracspace": fracspace.__version__,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def run_pass(workload: str, seed: int, launched: float, traced: bool, setup_only: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    prepare, body = workloads.WORKLOADS[workload]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    checks = workloads.Checks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        gen_start = time.monotonic()
        with span("setup"):
            inputs = prepare(seed)
        first_call = time.monotonic()
        if setup_only:
            return {"setup_s": first_call - launched}
        cpu_start = time.process_time()
        with span("pass"):
            xcheck = body(inputs, checks)
        verdict = time.monotonic()
        cpu_s = time.process_time() - cpu_start
    result = {
        "setup_s": first_call - launched,
        "gen_s": first_call - gen_start,
        "wall_s": verdict - first_call,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "xcheck_rel_err": xcheck,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "known_failures": checks.known_failures,
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "traced": traced,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["wrappers_left"] = tracer.remaining_wrappers()
    result["environment"] = environment()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.launched, bool(args.trace),
                      args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
