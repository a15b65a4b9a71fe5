"""The benchmark's workloads: seeded inputs, the timed body, and its checks.

Each workload is a pair of functions.  ``prepare(seed)`` builds the
inputs (it runs before the first timed call and is paid in ``setup_s``);
``run(inputs, checks)`` makes every operator call, records each check in
``checks`` and returns the workload's cross-check discrepancy (a call that
raised is a failed check and leaves the discrepancy out).

Package functions are reached through their modules (``harness.x``, never
``from harness import x``) so that the traced pass sees every call.

Inputs come in two sets.  The *seeded* set is drawn from the benchmark's
``--seed``.  The *reference* set is drawn from the fixed ``REFERENCE_SEED``
and is the same in every run: ``xcheck_rel_err`` is the worst discrepancy
on the reference set, so that runs made with different seeds compare.  Both
sets go through the same calls and the same checks, at the tolerances the
package pins for the corresponding suite.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from fracspace import cli, fourier, halfline, harness, opcalc, singular
from fracspace import grid as gridmod
from fracspace.grid import FULL_LINE, HALF_LINE, Grid, GridFunction, PowerWeight

REFERENCE_SEED = 20170531
HALF_WIDTH = 40.0
W0 = PowerWeight(0.0)


#: Suite cases that fail at some seeds in the program as it stands: known
#: defects, keyed by (suite, case "what").  Their failures are counted in
#: ``checks_passed_frac`` and printed, but do not make a run incorrect; any
#: other failed check does.  The change that fixes a defect removes its entry.
KNOWN_DEFECTS = frozenset({
    ("reflection-extension", "duality pairing identity (20 pairs)"),
    ("hardy-gn", "Hardy sup bounded under dilation"),
})


class Checks:
    """Counts checks attempted and failed; an exception is a failed check.

    A failed check that is a known defect goes to ``known_failures``, every
    other one to ``failures``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known_failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, what: str, ok: bool, detail="", known_defect: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            failures = self.known_failures if known_defect else self.failures
            failures.append(f"{what}: {detail}" if detail != "" else what)
        return ok

    def measure(self, what: str, compute, tol: float):
        """``compute()`` and check the result against ``tol``; None if it raised."""
        try:
            value = compute()
        except Exception as exc:  # a failing operator is a failed check
            self.record(what, False, repr(exc))
            return None
        self.record(what, bool(value <= tol), value)
        return value


def rel_l2(a: GridFunction, b: GridFunction) -> float:
    """||a - b|| / ||b|| in unweighted L^2."""
    return gridmod.weighted_lp_norm(a - b, 2.0, W0) / gridmod.weighted_lp_norm(b, 2.0, W0)


def _stable(values, rtol: float) -> bool:
    top, bot = max(values), min(values)
    return math.isfinite(top) and top - bot <= rtol * bot


# ---------------------------------------------------------------------------
# fracpower-xcheck: Balakrishnan fractional power against the causal oracle


FP_N = 4096
FP_THETAS = (0.25, 0.5, 0.75)
FP_FAMILY = 2
FP_RL_TOL = 1e-3                      # fractional-domains "rl_match"
BAND_NS = (1024, 2048, 4096)
BAND_PGT = ((2.0, 0.0, 0.5), (2.0, 0.5, 0.3), (2.0, 0.5, 0.7))
BAND_FAMILY = 2
BAND_STABILITY = 0.10                 # fractional-domains "stability"


def prepare_fracpower(seed: int) -> dict:
    grid = Grid(HALF_WIDTH, FP_N, HALF_LINE)
    bands = {}
    for n in BAND_NS:
        g = Grid(HALF_WIDTH, n, HALF_LINE)
        bands[n] = harness.generate_test_family(g, seed + 5, BAND_FAMILY, support=(0.1, 0.6))
    return {
        "reference": harness.generate_test_family(grid, REFERENCE_SEED, FP_FAMILY, support=(0.1, 0.5)),
        "seeded": harness.generate_test_family(grid, seed, FP_FAMILY, support=(0.1, 0.5)),
        "bands": bands,
    }


def run_fracpower(inputs: dict, checks: Checks) -> float:
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    worst = 0.0
    for theta in FP_THETAS:
        for kind in ("reference", "seeded"):
            for i, f in enumerate(inputs[kind]):
                rel = checks.measure(
                    f"fractional_power vs riemann_liouville theta={theta} {kind}[{i}]",
                    lambda: rel_l2(opcalc.fractional_power(op, theta, f),
                                   opcalc.riemann_liouville(f, theta)),
                    FP_RL_TOL)
                if kind == "reference" and rel is not None:
                    worst = max(worst, rel)
    for p, gamma, theta in BAND_PGT:
        opw = opcalc.HalfLineOperator(opcalc.DIRICHLET, p, gamma)
        what = f"domain-norm band stable p={p} gamma={gamma} theta={theta}"
        try:
            bands = []
            for n in BAND_NS:
                ratios = [opcalc.domain_norm_ratio(opw, theta, f) for f in inputs["bands"][n]]
                bands.append(math.sqrt(max(ratios) / min(ratios)))
        except Exception as exc:
            checks.record(what, False, repr(exc))
            continue
        checks.record(what, _stable(bands, BAND_STABILITY), bands)
    return worst


# ---------------------------------------------------------------------------
# laplacian-refine: singular-integral against spectral fractional Laplacian


LAP_NS = (1024, 4096, 16384)
LAP_SIGMAS = (0.3, 0.5, 0.7)
LAP_REFERENCE = 1
LAP_SEEDED = 2
LAP_TOL = 1e-3                        # frac-laplacian-xcheck "rel_l2" at N = 4096
LAP_TOL_N = 4096


def prepare_laplacian(seed: int) -> dict:
    inputs = {"reference": {}, "seeded": {}}
    for n in LAP_NS:
        grid = Grid(HALF_WIDTH, n, FULL_LINE)
        inputs["reference"][n] = harness.generate_test_family(grid, REFERENCE_SEED, LAP_REFERENCE)
        inputs["seeded"][n] = harness.generate_test_family(grid, seed, LAP_SEEDED)
    return inputs


def run_laplacian(inputs: dict, checks: Checks) -> float:
    worst_reference = 0.0
    for sigma in LAP_SIGMAS:
        worst_by_n = []
        for n in LAP_NS:
            worst_n = 0.0
            for kind in ("reference", "seeded"):
                for i, f in enumerate(inputs[kind][n]):
                    rel = checks.measure(
                        f"singular vs spectral sigma={sigma} N={n} {kind}[{i}]",
                        lambda: rel_l2(singular.fractional_laplacian_singular(f, sigma),
                                       fourier.fractional_laplacian_spectral(f, sigma)),
                        LAP_TOL if n == LAP_TOL_N else math.inf)
                    if rel is None:
                        continue
                    worst_n = max(worst_n, rel)
                    if kind == "reference":
                        worst_reference = max(worst_reference, rel)
            worst_by_n.append(worst_n)
        checks.record(f"discrepancy decreases with N sigma={sigma}",
                      all(b < a for a, b in zip(worst_by_n, worst_by_n[1:])), worst_by_n)
    return worst_reference


# ---------------------------------------------------------------------------
# probe-mix: sector probes, one-shot resolvent residuals, the light suites


PROBE_N = 1024
PROBE_ANGLE = 3.0 * math.pi / 4.0 - 0.1
PROBE_RADII = tuple(4.0 ** k for k in range(-5, 6))
PROBE_CONTRACTION_TOL = 1e-6          # resolvent-sectoriality "real-lambda norm <= 1"
ODE_N = 2 ** 16
ODE_REFERENCE = 2
ODE_SEEDED = 2
ODE_TOL = 1e-6                        # resolvent-sectoriality "residual"
#: The suites write their reports into a temporary directory under here.
BENCH_OUT = Path(__file__).resolve().parent.parent / ".bench_out"
LIGHT_SUITES = ("c-sigma", "bessel-kernel", "schur-constants", "reflection-extension",
                "traces", "pointwise-multiplier", "hardy-gn", "integration-by-parts")


def _ode_inputs(grid: Grid, seed: int, count: int) -> list:
    family = harness.generate_test_family(grid, seed, count, support=(0.2, 0.6))
    rng = np.random.default_rng(seed + 1)
    lams = [complex(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in family]
    return list(zip(family, lams))


def prepare_probe_mix(seed: int) -> dict:
    ode_grid = Grid(HALF_WIDTH, ODE_N, HALF_LINE)
    return {
        "seed": seed,
        "probe_grid": Grid(HALF_WIDTH, PROBE_N, HALF_LINE),
        "reference": _ode_inputs(ode_grid, REFERENCE_SEED, ODE_REFERENCE),
        "seeded": _ode_inputs(ode_grid, seed, ODE_SEEDED),
    }


def _dirichlet_residual(f: GridFunction, lam: complex) -> float:
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    u = opcalc.resolvent(op, lam, f)
    du = halfline.restrict_plus(fourier.spectral_derivative(halfline.zero_extend(u)))
    return rel_l2(du + lam * u, f)


def _minus_residual(f: GridFunction, lam: complex) -> float:
    op = opcalc.HalfLineOperator(opcalc.MINUS, 2.0, 0.0)
    u = opcalc.resolvent(op, lam, f)
    coeffs = halfline.solve_reflection_coefficients(2)
    du = halfline.restrict_plus(fourier.spectral_derivative(halfline.reflect_extend(u, coeffs)))
    return rel_l2(-1.0 * du + lam * u, f)


def _run_suite(name: str, seed: int, out: Path, checks: Checks) -> None:
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run", name, "--seed", str(seed), "--out", str(out)])
        with open(out / f"{name}.json") as fh:
            cases = json.load(fh)["cases"]
    except Exception as exc:
        checks.record(f"suite {name}", False, repr(exc))
        return
    for case in cases:
        checks.record(f"suite {name} case {case['params']}", case["pass"],
                      f"value={case['value']} tol={case['tol']}",
                      known_defect=(name, case["params"].get("what")) in KNOWN_DEFECTS)
    checks.record(f"suite {name} exit code matches its cases",
                  code == (0 if all(c["pass"] for c in cases) else 1), code)


def run_probe_mix(inputs: dict, checks: Checks) -> float:
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    try:
        probe = opcalc.sectoriality_probe(op, inputs["probe_grid"], [PROBE_ANGLE],
                                          PROBE_RADII)[0]
    except Exception as exc:
        checks.record("sectoriality_probe", False, repr(exc))
    else:
        for e in probe.entries:
            lam = complex(e["re_lambda"], e["im_lambda"])
            est = e["norm_estimate"]
            checks.record(f"sector probe finite and positive at {lam}",
                          math.isfinite(est) and est > 0.0, est)
            if lam.imag == 0.0:
                checks.record(f"sector probe contraction at {lam}",
                              est <= 1.0 + PROBE_CONTRACTION_TOL, est)
    worst = 0.0
    for kind in ("reference", "seeded"):
        for i, (f, lam) in enumerate(inputs[kind]):
            for variant, residual in (("dirichlet", _dirichlet_residual),
                                      ("minus", _minus_residual)):
                rel = checks.measure(f"{variant} resolvent ODE residual {kind}[{i}]",
                                     lambda: residual(f, lam), ODE_TOL)
                if kind == "reference" and rel is not None:
                    worst = max(worst, rel)
    BENCH_OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_OUT) as out:
        for name in LIGHT_SUITES:
            _run_suite(name, inputs["seed"], Path(out), checks)
    return worst


WORKLOADS = {
    "fracpower-xcheck": (prepare_fracpower, run_fracpower),
    "laplacian-refine": (prepare_laplacian, run_laplacian),
    "probe-mix": (prepare_probe_mix, run_probe_mix),
}
