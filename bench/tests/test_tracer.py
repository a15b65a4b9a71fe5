"""Self-tests of the benchmark's tracer and result summary.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fracspace  # noqa: E402
from fracspace import fourier, harness, opcalc  # noqa: E402
from fracspace.grid import HALF_LINE, Grid  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402


def _work():
    """A few nested calls: domain_norm_ratio -> fractional_power, hsp_norm, ..."""
    grid = Grid(40.0, 256, HALF_LINE)
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    family = harness.generate_test_family(grid, 3, 2, support=(0.1, 0.6))
    return [opcalc.domain_norm_ratio(op, 0.5, f) for f in family]


def test_wrappers_cover_every_binding_and_are_removed():
    original = fourier.hsp_norm
    t = tracer.Tracer()
    t.install()
    try:
        # defined in fourier, imported by halfline, opcalc and the package
        assert fourier.hsp_norm is not original
        assert opcalc.hsp_norm is fourier.hsp_norm
        assert fracspace.hsp_norm is fourier.hsp_norm
        assert "fracspace.opcalc.hsp_norm" in t.remaining_wrappers()
        _work()
    finally:
        t.uninstall()
    assert t.remaining_wrappers() == []
    assert fourier.hsp_norm is original and opcalc.hsp_norm is original
    assert fracspace.hsp_norm is original


def test_self_times_sum_to_traced_wall_within_overhead():
    _work()  # warm caches and imports outside both timings
    start = time.perf_counter()
    _work()
    untraced_s = time.perf_counter() - start

    t = tracer.Tracer()
    t.install()
    try:
        start = time.perf_counter()
        with t.span("pass"):
            _work()
        traced_s = time.perf_counter() - start
    finally:
        t.uninstall()
    overhead_s = traced_s - untraced_s
    metrics = t.metrics()
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    total_self += metrics["bench.self_s"]
    assert abs(total_self - traced_s) <= abs(overhead_s) + 1e-3
    assert metrics["opcalc.domain_norm_ratio.calls"] == 2
    assert metrics["opcalc.fractional_power.calls"] == 2
    # self time excludes children: domain_norm_ratio's own share is small
    spans = t.self_times()
    inclusive = sum(end - s for name, s, end, _, _ in t.spans
                    if name == "opcalc.domain_norm_ratio")
    assert spans["opcalc.domain_norm_ratio"]["self_s"] < inclusive


def test_listed_function_never_called_reports_zero():
    t = tracer.Tracer()
    t.install()
    try:
        with t.span("pass"):
            _work()
    finally:
        t.uninstall()
    metrics = t.metrics()
    for name in ("singular.fractional_laplacian_singular", "kernels.bessel_kernel",
                 "cli.main", "opcalc.resolvent"):
        assert metrics[f"{name}.calls"] == 0
        assert metrics[f"{name}.self_s"] == 0.0
    assert metrics["singular.fractional_laplacian_singular.ms_per_call.n4096"] == 0.0
    assert metrics["opcalc.fractional_power.ms_per_call.n4096"] == 0.0


def test_every_listed_function_exists():
    import importlib
    for layer, names in tracer.LISTED.items():
        module = importlib.import_module(f"fracspace.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    run_level = ["trace.overhead_s", "proc.cpu_s", "proc.runtime_warnings"]
    assert declared == tracer.metric_names() + run_level


def _pass(**overrides):
    base = {"setup_s": 1.5, "gen_s": 0.1, "wall_s": 2.0, "cpu_s": 2.0,
            "peak_rss_mb": 100.0, "xcheck_rel_err": 1e-4, "attempted": 10,
            "failed": 0, "failures": [], "known_failures": [], "runtime_warnings": 0}
    base.update(overrides)
    return base


def test_summary_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run.summarize([_pass(wall_s=w) for w in (2.0, 3.0, 2.5)], None,
                           [1.5, 1.4, 1.7, 1.6, 1.2])
    assert result["correct"] is True
    assert result["attempted"] == 30 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["metrics"]["wall_s"]["value"] == 2.5
    assert result["metrics"]["setup_s"]["value"] == 1.5


def test_summary_counts_failed_checks_known_defects_and_nondeterminism():
    failing = run.summarize([_pass(), _pass(failed=1)], None, [1.5, 1.5])
    assert failing["correct"] is False and failing["failed"] == 1
    assert failing["metrics"]["checks_passed_frac"]["value"] == pytest.approx(0.95)
    known = run.summarize([_pass(), _pass(known_failures=["defect"])], None, [1.5, 1.5])
    assert known["correct"] is True and known["failed"] == 0
    assert known["metrics"]["checks_passed_frac"]["value"] == pytest.approx(0.95)
    drifting = run.summarize([_pass(), _pass(xcheck_rel_err=2e-4)], None, [1.5, 1.5])
    assert drifting["correct"] is False


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "probe-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
