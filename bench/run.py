"""fracspace benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop in one process at a time: the run starts one pass,
waits for it to end, and starts the next while another pass still fits in
``--seconds``.  Every pass is a fresh interpreter (``bench/worker.py``), so
imports and any cache the program builds are paid inside the pass, as a
``fracspace run`` user pays them.

With ``--trace 0`` every pass is untraced and the run reports the medians
of the end-to-end metrics.  Set-up-only passes, which stop at the first
timed call, fill the time the last full pass leaves and make up at least
``MIN_SETUP_SAMPLES`` set-up times for the median of ``setup_s``.

With ``--trace 1`` the run makes untraced passes and then one traced pass,
and reports the per-layer metrics of the traced pass; ``trace.overhead_s``
is its traced time minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same metrics by name with units, the environment block and the
failed checks.  The whole result, every pass included, is also written to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Wall-clock limit of one run; a pass that would end after it is not started.
RUN_LIMIT_S = 170.0
#: Traced passes take longer than untraced ones; room kept for that.
TRACE_SLOWDOWN = 1.5
#: ``setup_s`` is the median of at least this many set-up times.
MIN_SETUP_SAMPLES = 6


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed pass)."""


def _one_pass(workload: str, seed: int, timeout: float, *extra: str) -> dict:
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--launched", repr(launched), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["pass_s"] = time.monotonic() - launched
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, dict | None, list]:
    """Untraced passes while they fit in ``seconds``, then the traced pass if
    asked, else set-up-only passes; returns the passes and the set-up times."""
    start = time.monotonic()
    untraced: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        longest = max((p["pass_s"] for p in untraced), default=0.0)
        reserve = TRACE_SLOWDOWN * longest if trace else 0.0
        if untraced and elapsed + longest + reserve > seconds:
            break
        untraced.append(_one_pass(workload, seed, RUN_LIMIT_S - elapsed))
    setups = [p["setup_s"] for p in untraced]
    if trace:
        traced = _one_pass(workload, seed, RUN_LIMIT_S - (time.monotonic() - start),
                           "--trace", "1")
        return untraced, traced, setups
    # set-up-only passes fill the time left and make up MIN_SETUP_SAMPLES
    longest = max(setups)
    while True:
        elapsed = time.monotonic() - start
        if len(setups) >= MIN_SETUP_SAMPLES and elapsed + longest > seconds:
            break
        probe = _one_pass(workload, seed, RUN_LIMIT_S - elapsed, "--setup-only")
        setups.append(probe["setup_s"])
        longest = max(longest, probe["pass_s"])
    return untraced, None, setups


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def summarize(untraced: list, traced: dict | None, setups: list) -> dict:
    passes = untraced + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(len(p["known_failures"]) for p in passes)
    xchecks = {p["xcheck_rel_err"] for p in passes}
    if traced is None:
        metrics = {
            "wall_s": _median(untraced, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "xcheck_rel_err": max(xchecks),
            "checks_passed_frac": 1.0 - (failed + known) / attempted,
        }
    else:
        metrics = dict(traced["layers"])
        untraced_s = statistics.median(p["gen_s"] + p["wall_s"] for p in untraced)
        metrics["trace.overhead_s"] = traced["gen_s"] + traced["wall_s"] - untraced_s
        metrics["proc.cpu_s"] = _median(untraced, "cpu_s")
        metrics["proc.runtime_warnings"] = traced["runtime_warnings"]
    # a failed check other than a known defect, differing discrepancies (the
    # pass is deterministic given the seed) or wrappers left behind by the
    # tracer make the run incorrect; ``failed`` leaves the known defects out
    deterministic = len(xchecks) == 1
    unwrapped = traced is None or not traced["wrappers_left"]
    return {
        "correct": failed == 0 and deterministic and unwrapped,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def _report(workload: str, seed: int, untraced: list, traced: dict | None, setups: list,
            result: dict) -> None:
    env = untraced[0]["environment"]
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced pass(es)"
          + (", 1 traced pass" if traced else f", {len(setups)} set-up times"))
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    passes = untraced + ([traced] if traced else [])
    known = sum(len(p["known_failures"]) for p in passes)
    failed = result["failed"] + known
    print(f"  {'checks_failed_frac':<56} {failed / result['attempted']:>14.6g} ratio"
          f"  ({failed} of {result['attempted']} checks failed,"
          f" {known} of them known defects)")
    for failure in sorted({f for p in passes for f in p["failures"]}):
        print(f"  FAILED CHECK {failure}")
    for failure in sorted({f for p in passes for f in p["known_failures"]}):
        print(f"  KNOWN DEFECT {failure}")
    if traced:
        layers = traced["layers"]
        total = traced["gen_s"] + traced["wall_s"]
        shares = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                         if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        print(f"  self-time shares of the traced {total:.3f} s ({traced['spans']} spans):")
        for v, k in shares[:6]:
            print(f"    {k:<52} {100.0 * v / total:6.2f} %")
        if traced["wrappers_left"]:
            print(f"  TRACER LEFT WRAPPERS {traced['wrappers_left']}")
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(traced is not None)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed, "environment": env,
                               "result": result, "untraced": untraced, "traced": traced,
                               "setup_s": setups},
                              indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracspace" / "__init__.py").is_file():
        print(f"no fracspace sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # build: byte-compile the sources once, outside every timed pass
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte-compiling src failed", file=sys.stderr)
        return 2
    try:
        untraced, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = summarize(untraced, traced, setups)
    _report(args.workload, args.seed, untraced, traced, setups, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
