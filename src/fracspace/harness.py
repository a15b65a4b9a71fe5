"""Named verification suites over the whole package, with refinement studies
and machine-readable reports.

Each suite exercises one package-level guarantee (operator identities,
inequality constants, convergence under grid refinement) and emits a
:class:`SuiteReport` holding per-case pass/fail records, a refinement table
with at least three resolution levels, and wall-clock time.  A run is its
suite name and its seed (``run_suite``), and its report is deterministic given
those and the floating-point environment.  Refinement studies measure over one
pinned ladder of grid sizes (``_ladder`` over ``_ALL_N``) and judge each sweep
entry's values with one of two verdicts: ``_stable_case`` (they agree within
rtol) or ``_shrinking_case`` (they decrease strictly).  This module is the only
code that turns measurements into pass flags: the operator modules return
numbers, and every family maximum is ``_sup``, which keeps a NaN that ``max``
would drop.

A case is ``{params, value, reference, tol, pass, measured}``: ``params`` holds
only its inputs, so it keys the case across seeds and revisions, and
``measured`` every other number the case computed (ladder values, ratios).
Reports are strict JSON: a non-finite float is written as the string "NaN",
"Infinity" or "-Infinity", in memory as in the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .grid import (
    FULL_LINE,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    _integer,
    dual_exponent,
    dual_pairing,
    mollify,
    plateau,
    weighted_lp_norm,
)
from . import _quad, fourier, halfline, kernels, opcalc, singular


class ConfigError(ValueError):
    """Raised for an unknown suite or a bad seed (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# test families


def _support_window(grid: Grid, support: tuple[float, float] | None) -> tuple[float, float]:
    lo_dom = -grid.half_width if grid.kind == FULL_LINE else 0.0
    hi_dom = grid.half_width
    lo_frac, hi_frac = (0.1, 0.9) if support is None else support
    span = hi_dom - lo_dom
    return lo_dom + lo_frac * span, lo_dom + hi_frac * span


def generate_test_family(grid: Grid, seed: int, count: int,
                         kind: str = "smooth-compact",
                         support: tuple[float, float] | None = None,
                         trace_order: int = 0,
                         fiber_dim: int = 1) -> list[GridFunction]:
    """Deterministic pseudo-random real test functions (float64 samples) of
    a named kind.

    smooth-compact   bump/Gaussian superpositions supported strictly inside
                     the fractional window ``support`` (default (0.1, 0.9) of
                     the domain), vanishing identically at the boundary.
    zero-trace-k     functions vanishing to high order at 0 (an x^(k+6)
                     factor), post-composed with the trace projection so the
                     first ``trace_order``+1 derivatives vanish at 0.
    boundary-touching  smooth decaying functions with f(0) != 0.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    kinds = ("smooth-compact", "zero-trace-k", "boundary-touching")
    if kind not in kinds:
        raise ValueError(f"unknown family kind {kind!r}; the kinds are {', '.join(kinds)}")
    rng = np.random.default_rng(seed)
    x = grid.points
    lo, hi = _support_window(grid, support)
    mid, half_len = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if kind == "boundary-touching":
        master = plateau(x, 0.0, 0.3 * grid.half_width, 0.6 * grid.half_width)
    else:
        master = plateau(x, mid, 0.8 * half_len, half_len)
    # the bumps are evaluated where the master window is non-zero only
    live = np.flatnonzero(master)
    window = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
    x, master = x[window], master[window]
    if kind == "zero-trace-k":
        damp = (x / (1.0 + x ** 2 / half_len ** 2) ** 0.5) ** (trace_order + 6)
    out = []
    for _ in range(count):
        vals = np.zeros((grid.n_points, fiber_dim))
        for c in range(fiber_dim):
            profile = np.zeros_like(x)
            for _ in range(rng.integers(2, 5)):
                if kind == "boundary-touching":
                    center = rng.uniform(-0.15, 0.15) * grid.half_width
                else:
                    center = mid + rng.uniform(-0.55, 0.55) * half_len
                width = rng.uniform(0.04, 0.16) * half_len
                freq = rng.uniform(0.0, 2.5)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                amp = rng.uniform(0.3, 1.0)
                profile += amp * np.exp(-((x - center) / width) ** 2) \
                    * np.cos(freq * x + phase)
            if kind == "zero-trace-k":
                profile = profile * damp
            profile *= master
            peak = np.max(np.abs(profile), initial=0.0)
            vals[window, c] = profile / peak if peak > 0 else profile
        f = GridFunction(grid, vals)
        if kind == "zero-trace-k":
            f = halfline.project_H0(f, trace_order)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# pinned grids and reports


# every refinement study runs on these grid sizes: the suites' gates are set
# for them, and a coarser ladder fails cases that hold here
_ALL_N = (1024, 2048, 4096)
# every suite grid has this half width: the suites place inputs, windows and
# closed forms at absolute positions (t <= 18, a plateau from 20 to 35), so
# a run cannot rescale its domain
_HALF_WIDTH = 40.0


@dataclass
class SuiteReport:
    """Per-case records, refinement table, wall-clock, and the counts of the
    RuntimeWarnings the run suppressed (by message) of one suite run."""

    suite: str
    config_hash: str
    cases: list = field(default_factory=list)
    refinement: list = field(default_factory=list)
    runtime_s: float = 0.0
    warnings: dict = field(default_factory=dict)

    def add_case(self, params: dict, value, reference, tol: float,
                 passed: bool | None = None, measured: dict | None = None) -> bool:
        if passed is None:
            passed = bool(abs(value - reference) <= tol)
        self.cases.append({"params": params, "value": _jsonable(value),
                           "reference": _jsonable(reference), "tol": _jsonable(tol),
                           "pass": bool(passed), "measured": _jsonable(measured or {})})
        return bool(passed)

    def add_refinement(self, levels, values) -> None:
        """One row per level; the first row's ``stability_ratio`` is None, and
        a ratio after an exact 0.0 is infinite (NaN for 0 / 0)."""
        prev = None
        for level, value in zip(levels, values, strict=True):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = None if prev is None else np.float64(value) / prev
            self.refinement.append({"N": level, "value": _jsonable(value),
                                    "stability_ratio": _jsonable(ratio)})
            prev = value

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.cases)

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{self.suite}.json", "w") as fh:
            json.dump(asdict(self), fh, indent=2, allow_nan=False)
        with open(out / f"{self.suite}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["params", "value", "reference", "tol", "pass", "measured"])
            for c in self.cases:
                writer.writerow([json.dumps(c["params"]), c["value"], c["reference"],
                                 c["tol"], c["pass"], json.dumps(c["measured"])])
        with open(out / f"{self.suite}_refinement.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "value", "stability_ratio"])
            for r in self.refinement:
                writer.writerow([r["N"], r["value"], r["stability_ratio"]])


def _jsonable(v):
    """``v`` as strict JSON: real numbers as floats, a non-finite float as
    "NaN", "Infinity" or "-Infinity", lists and dict values entry by entry.
    A complex number raises TypeError: a report holds real numbers only."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, dict):
        return {key: _jsonable(u) for key, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if np.iscomplexobj(v):
        raise TypeError(f"a report holds real numbers, got the complex value {v!r}")
    f = float(v)
    if math.isfinite(f):
        return f
    return "NaN" if math.isnan(f) else ("Infinity" if f > 0 else "-Infinity")


def _band_constant(ratios) -> float:
    """Two-sided equivalence constant of a set of ratios: sqrt(max/min).

    Infinite when any ratio is not finite or not positive.
    """
    if not all(math.isfinite(r) for r in ratios):
        return math.inf
    rmax, rmin = max(ratios), min(ratios)
    if rmin <= 0:
        return math.inf
    return math.sqrt(rmax / rmin)


def _stable(values, rtol: float) -> bool:
    """All values finite and within rtol of the smallest."""
    if not all(math.isfinite(v) for v in values):
        return False
    top, bot = max(values), min(values)
    return (top - bot) <= rtol * bot


def _sup(values) -> float:
    """The largest value, NaN if any is NaN (``max`` drops a NaN after the first value)."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _rel_l2(a: GridFunction, b: GridFunction) -> float:
    """||a - b|| / ||b|| in unweighted L^2."""
    w0 = PowerWeight(0.0)
    return weighted_lp_norm(a - b, 2.0, w0) / weighted_lp_norm(b, 2.0, w0)


def _ladder(kind: str, inputs, measure):
    """Run ``measure(inputs(grid))`` on the grid of each size in ``_ALL_N``,
    coarsest first.  ``measure`` returns one value per sweep entry; the result
    is one list of values per entry and the finest grid's inputs.
    """
    rows = []
    for n in _ALL_N:
        made = inputs(Grid(_HALF_WIDTH, n, kind))
        rows.append(measure(made))
    return [list(values) for values in zip(*rows)], made


def _stable_case(report: SuiteReport, params: dict, values, rtol: float) -> None:
    """The case that the refinement ``values`` agree within ``rtol``."""
    report.add_case(params, values[-1], values[0], rtol,
                    passed=_stable(values, rtol), measured={"values": values})


def _shrinking_case(report: SuiteReport, params: dict, values) -> None:
    """The case that the refinement ``values`` are finite and strictly decreasing."""
    shrinking = (all(math.isfinite(v) for v in values)
                 and all(b < a for a, b in zip(values, values[1:])))
    report.add_case(params, values[-1], values[0], 0.0, passed=shrinking,
                    measured={"values": values})


# ---------------------------------------------------------------------------
# suites


#: sigma of ``frac-laplacian-xcheck``
_XCHECK_SIGMAS = (0.3, 0.5, 0.7)


def _suite_frac_laplacian(seed: int, report: SuiteReport) -> None:
    tol = 1e-3
    sups, _ = _ladder(FULL_LINE, lambda g: generate_test_family(g, seed, 20),
                      lambda fam: [_sup(_rel_l2(singular.fractional_laplacian_singular(f, sigma),
                                                fourier.fractional_laplacian_spectral(f, sigma))
                                        for f in fam) for sigma in _XCHECK_SIGMAS])
    for sigma, values in zip(_XCHECK_SIGMAS, sups):
        report.add_case({"sigma": sigma, "N": _ALL_N[-1], "what": "max rel L2"},
                        values[-1], 0.0, tol)
    worst_by_n = [_sup(at_n) for at_n in zip(*sups)]
    report.add_refinement(_ALL_N, worst_by_n)
    _shrinking_case(report, {"what": "discrepancy decreases with N"}, worst_by_n)


#: sigma of ``c-sigma``: 0.1 .. 0.9
_C_SIGMAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _suite_c_sigma(seed: int, report: SuiteReport) -> None:
    tol_h = 1e-6
    tol_o = 1e-8
    for sigma in _C_SIGMAS:
        c = singular.c_sigma(sigma)
        report.add_case({"sigma": sigma, "what": "c < 0"}, c, 0.0, 0.0,
                        passed=c < 0.0)
        # closed-form oracle: J = -pi / (Gamma(1+sigma) sin(pi sigma / 2))
        j_ref = -math.pi / (math.gamma(1.0 + sigma) * math.sin(math.pi * sigma / 2.0))
        report.add_case({"sigma": sigma, "what": "vs closed form"},
                        c, 1.0 / j_ref, tol_o)
        for xi in (0.5, 2.0, 8.0):
            val = c * singular.symbol_integral(xi, sigma)
            report.add_case({"sigma": sigma, "xi": xi, "what": "homogeneity"},
                            val, xi ** sigma, tol_h)
    # refinement: series/tail split points in (0, 1 / xi] must agree
    splits = (0.25, 0.5, 1.0)
    report.add_refinement(splits, [1.0 / singular.symbol_integral(1.0, 0.5, split=split)
                                   for split in splits])


def _suite_bessel_kernel(seed: int, report: SuiteReport) -> None:
    tol = 1e-6
    xs = np.linspace(0.1, 10.0, 199)
    g2 = kernels.bessel_kernel(2.0, xs)
    report.add_case({"what": "G_2 = exp(-|x|)/2 on [0.1, 10]"},
                    float(np.max(np.abs(g2 - np.exp(-xs) / 2.0))), 0.0, tol)
    # unit steps in log t from 1e-40 (the mass below it is under 1e-19 for
    # s >= 0.5) to 60 (e^-60 < 1e-26)
    mass_edges = np.geomspace(1e-40, 60.0, 98)
    for s in (0.5, 1.0, 2.0):
        mass = 2.0 * float(np.sum(_quad.log_panels(lambda t: kernels.bessel_kernel(s, t),
                                                   mass_edges)))
        report.add_case({"s": s, "what": "unit mass"}, mass, 1.0, tol)
        g = kernels.bessel_kernel(s, np.logspace(-6, 1.5, 300))
        report.add_case({"s": s, "what": "positivity on sample mesh"},
                        float(np.min(g)), 0.0, 0.0, passed=bool(np.all(g > 0)))
    # weighted integrability threshold
    for p, gamma in ((2.0, 0.0), (2.0, 0.5), (3.0, 1.0)):
        crit = (1.0 + gamma) / p
        for side, s in (("above", min(crit + 0.2, 0.97)), ("below", crit - 0.2)):
            shells = kernels.kernel_weighted_tail_integrals(s, p, gamma)
            ratio = float(shells[-1] / shells[-2])
            expected_convergent = side == "above"
            ok = ratio < 0.95 if expected_convergent else ratio > 1.05
            report.add_case({"p": p, "gamma": gamma, "s": s, "side": side},
                            ratio, 1.0, 0.0, passed=ok)
    # the independent side: the inverse Fourier transform of the symbol, by
    # the certified cosine-transform rule
    for s in (0.5, 1.0, 2.0):
        symbol = fourier.bessel_symbol(-s)
        err = _sup(abs(kernels.bessel_kernel(s, x) - _quad.cos_transform(symbol, 0.0, x) / math.pi)
                   for x in (0.1, 0.5, 1.0, 2.0, 5.0))
        report.add_case({"s": s, "what": "vs inverse transform of the symbol"},
                        float(err), 0.0, tol)
    meshes = (100, 200, 400)
    report.add_refinement(meshes, [
        float(np.max(np.abs(kernels.bessel_kernel(2.0, xs) - np.exp(-xs) / 2)))
        for xs in (np.linspace(0.1, 10.0, n_mesh) for n_mesh in meshes)])


#: (p, beta) of the Schur constants in ``schur-constants``
_SCHUR_P_BETA = ((2.0, -0.3), (2.0, -0.1), (2.0, 0.0), (2.0, 0.2), (2.0, 0.45),
                 (1.5, -0.2), (1.5, 0.2), (2.5, 0.1), (3.0, -0.25), (4.0, 0.1))


def _suite_schur(seed: int, report: SuiteReport) -> None:
    tol = 1e-8
    for p, beta in _SCHUR_P_BETA:
        val = kernels.schur_constant(p, beta)
        report.add_case({"p": p, "beta": beta, "what": "quadrature vs closed form"},
                        val, kernels.schur_closed_form(p, beta), tol)
    # operator-norm probe against the Schur bound
    rng = np.random.default_rng(seed)
    gammas = (-0.5, 0.0, 1.0)

    def bump_ratio(grid: Grid, gamma: float) -> float:
        c = rng.uniform(0.05, 0.6) * _HALF_WIDTH
        wd = rng.uniform(0.01, 0.12) * _HALF_WIDTH
        h = GridFunction(grid, np.exp(-((grid.points - c) / wd) ** 2))
        w = PowerWeight(gamma)
        return (weighted_lp_norm(kernels.hardy_hilbert_apply(h), 2.0, w)
                / weighted_lp_norm(h, 2.0, w))

    sups, _ = _ladder(HALF_LINE, lambda g: g, lambda g: [
        _sup(bump_ratio(g, gamma) for _ in range(50)) for gamma in gammas])
    for gamma, values in zip(gammas, sups):
        beta = gamma / 2.0
        admissible = -1.0 < beta - 0.5 < 0.0
        bound = kernels.schur_closed_form(2.0, beta) if admissible else math.inf
        report.add_case({"gamma": gamma, "what": "probe <= Schur bound"},
                        values[-1], bound, 0.0, passed=values[-1] <= bound)
    report.add_refinement(_ALL_N, [_sup(at_n) for at_n in zip(*sups)])


def _suite_reflection(seed: int, report: SuiteReport) -> None:
    c0 = halfline.solve_reflection_coefficients(0)
    report.add_case({"what": "m=0 coefficients"}, list(c0.bs), [3.0, -2.0], 0.0,
                    passed=c0.bs == (3.0, -2.0))
    tol_poly = 1e-9
    grid = Grid(_HALF_WIDTH, 8192, HALF_LINE)
    t = grid.points
    xg = grid.companion(FULL_LINE).points
    mask = (xg < 0) & (xg >= -1.0)
    for m in (0, 1, 2):
        cm = halfline.solve_reflection_coefficients(m)
        plateau_top = 2 * m + 3.0
        win = plateau(t, 0.0, plateau_top, 3 * plateau_top)
        exts = (halfline.reflect_extend(GridFunction(grid, t ** n_deg * win), cm)
                for n_deg in range(2 * m + 2))
        worst = _sup(float(np.max(np.abs(ext.values[mask, 0] - xg[mask] ** n_deg)))
                     for n_deg, ext in enumerate(exts))
        report.add_case({"m": m, "what": "polynomial reproduction deg<=2m+1"},
                        worst, 0.0, tol_poly)
    # restriction identity and zero extension, exact
    f = generate_test_family(grid, seed, 1)[0]
    ext = halfline.reflect_extend(f, halfline.solve_reflection_coefficients(1))
    back = halfline.restrict_plus(ext)
    report.add_case({"what": "restriction identity exact"},
                    float(np.max(np.abs(back.values - f.values))), 0.0, 0.0)
    zero = GridFunction(grid, np.zeros(grid.n_points))
    ez = halfline.reflect_extend(zero, c0)
    report.add_case({"what": "extension of zero"},
                    float(np.max(np.abs(ez.values))), 0.0, 0.0)
    # duality, with refinement
    tol_dual = 1e-8
    c1 = halfline.solve_reflection_coefficients(1)

    def duality_gap(fh: GridFunction, gg: GridFunction) -> float:
        lhs = dual_pairing(halfline.reflect_extend(fh, c1), gg)
        rhs = dual_pairing(halfline.zero_extend(fh), halfline.reflect_extend_dual(gg, c1))
        return abs(lhs - rhs)

    (errs_by_n,), _ = _ladder(
        FULL_LINE,
        lambda g: (generate_test_family(g.companion(HALF_LINE), seed + 1, 20),
                   generate_test_family(g, seed + 2, 20)),
        lambda fams: [_sup(duality_gap(fh, gg) for fh, gg in zip(*fams))])
    report.add_refinement(_ALL_N, errs_by_n)
    report.add_case({"what": "duality pairing identity (20 pairs)"},
                    errs_by_n[-1], 0.0, tol_dual)


def _suite_traces(seed: int, report: SuiteReport) -> None:
    tol = 1e-8
    grid = Grid(_HALF_WIDTH, 4096, FULL_LINE)
    x = grid.points
    win = plateau(x, 0.0, 3.0, 9.0)
    f2 = GridFunction(grid, x ** 2 * win)
    tr = halfline.trace(f2, 2)
    report.add_case({"what": "trace of x^2, k=2"},
                    float(np.max(np.abs(tr.entries[:, 0] - np.array([0, 0, 2.0])))),
                    0.0, tol)
    fe = GridFunction(grid, np.exp(x) * plateau(x, 0.0, 2.0, 6.0))
    report.add_case({"what": "trace of exp, k=1"},
                    float(np.max(np.abs(halfline.trace(fe, 1).entries[:, 0] - 1.0))),
                    0.0, tol)
    # round trip at resolutions where the stencil conditioning allows 1e-8
    rng = np.random.default_rng(seed)
    for k, n in ((0, 4096), (1, 4096), (2, 2048), (3, 2048), (4, 1024)):
        g = Grid(_HALF_WIDTH, n, FULL_LINE)
        tv = halfline.TraceVector(
            k, rng.standard_normal((k + 1, 1)) + 1j * rng.standard_normal((k + 1, 1)))
        back = halfline.trace(halfline.coextend(tv, g), k)
        report.add_case({"k": k, "N": n, "what": "trace(coextend) identity"},
                        float(np.max(np.abs(back.entries - tv.entries))), 0.0, tol)
    # vanishing near 0 gives exactly zero trace
    gh = Grid(_HALF_WIDTH, 4096, HALF_LINE)
    th = gh.points
    fv = GridFunction(gh, np.where(th > 1.0, np.exp(-(th - 5.0) ** 2), 0.0))
    report.add_case({"what": "zero trace for f vanishing on (0, delta)"},
                    float(np.max(np.abs(halfline.trace(fv, 2).entries))), 0.0, 0.0)
    # projection: vanishing trace and idempotence
    fam = generate_test_family(grid, seed + 3, 20, "boundary-touching")
    projected = [halfline.project_H0(f, 2) for f in fam]
    report.add_case({"what": "projection kills the trace (20 inputs)"},
                    _sup(float(np.max(np.abs(halfline.trace(p1, 2).entries)))
                         for p1 in projected), 0.0, tol)
    report.add_case({"what": "projection idempotent"},
                    _sup(float(np.max(np.abs(halfline.project_H0(p1, 2).values - p1.values)))
                         for p1 in projected), 0.0, tol)
    # projection followed by one-sided mollification: the error shrinks with the scale
    gfine = Grid(_HALF_WIDTH, 8192, FULL_LINE)
    f = generate_test_family(gfine, seed + 3, 1, "boundary-touching")[0]
    proj = halfline.project_H0(f, 2)
    conv = []
    for scale in (4, 8, 12):
        m = mollify(proj, scale, "left")
        conv.append(weighted_lp_norm(m - proj, 2.0, PowerWeight(0.0)))
    _shrinking_case(report, {"what": "one-sided mollify convergence (reported)"},
                    [float(c) for c in conv])
    tv = halfline.TraceVector(2, np.ones((3, 1)))
    (errs,), _ = _ladder(FULL_LINE, lambda g: g, lambda g: [float(np.max(np.abs(
        halfline.trace(halfline.coextend(tv, g), 2).entries - tv.entries)))])
    report.add_refinement(_ALL_N, errs)


def _multiplier_triples() -> tuple:
    """The (s, p, gamma) of ``pointwise-multiplier``: per (p, gamma), the
    midpoint and the points 0.1 inside either end of -(gd + 1)/p' < s <
    (gamma + 1)/p, with gd = -gamma/(p - 1) the dual weight."""
    triples = []
    for p, gamma in ((2.0, 0.0), (2.0, 0.5), (3.0, 1.0)):
        gd = -gamma / (p - 1.0)
        pd = dual_exponent(p)
        lo = -(gd + 1.0) / pd + 0.05
        hi = (gamma + 1.0) / p - 0.05
        for s in (lo + 0.05, 0.5 * (lo + hi), hi - 0.05):
            triples.append((round(s, 3), p, gamma))
    return tuple(triples)


_MULTIPLIER_TRIPLES = _multiplier_triples()


def _suite_pointwise_multiplier(seed: int, report: SuiteReport) -> None:
    stab = 0.10
    tol_comm = 1e-6
    sups, _ = _ladder(FULL_LINE,
                      lambda g: generate_test_family(g, seed, 50, "boundary-touching"),
                      lambda fam: [_sup(r) for r in zip(
                          *(halfline.multiplier_norm_ratios(f, _MULTIPLIER_TRIPLES)
                            for f in fam))])
    for (s, p, gamma), values in zip(_MULTIPLIER_TRIPLES, sups):
        _stable_case(report, {"s": s, "p": p, "gamma": gamma,
                              "what": "indicator norm-ratio sup stable"}, values, stab)
    # zero-trace windows and the derivative-commutation identity
    w = PowerWeight(0.0)
    for k in (1, 2):
        (sups_k,), fam = _ladder(
            FULL_LINE,
            lambda g: generate_test_family(g, seed + k, 20, "zero-trace-k", trace_order=k),
            lambda fam: [_sup(halfline.multiplier_norm_ratio(f, k - 0.2, 2.0, 0.0)
                              for f in fam)])
        worst = _sup(weighted_lp_norm(
            fourier.spectral_derivative(halfline.indicator_multiply(f), j)
            - halfline.indicator_multiply(fourier.spectral_derivative(f, j)), 2.0, w)
            for f in fam[:10] for j in range(1, k + 1))
        report.add_case({"k": k, "what": "derivative commutation in L2"},
                        worst, 0.0, tol_comm)
        _stable_case(report, {"k": k, "s": k - 0.2,
                              "what": "zero-trace window ratio sup stable"}, sups_k, stab)
    report.add_refinement(_ALL_N, sups[0])


#: (p, gamma) of the Gagliardo-Nirenberg study in ``hardy-gn``: the admissible
#: pairs of gamma in {-0.5, 0, 1} and p in {1.5, 2, 3}
_GN_PAIRS = tuple((p, gamma) for gamma in (-0.5, 0.0, 1.0) for p in (1.5, 2.0, 3.0)
                  if -1.0 < gamma < p - 1.0)


def _suite_hardy_gn(seed: int, report: SuiteReport) -> None:
    stab = 0.10
    tol_scale = 1e-6
    # Hardy embedding ratio

    def hardy_sup(fam) -> float:
        return _sup(halfline.hardy_embedding_check(f, 0.4, 2.0, 0.5) for f in fam)

    (sups,), fam = _ladder(FULL_LINE, lambda g: generate_test_family(g, seed, 50),
                           lambda fam: [hardy_sup(fam)])
    grid = fam[0].grid
    report.add_refinement(_ALL_N, sups)
    _stable_case(report, {"s": 0.4, "p": 2, "gamma": 0.5, "what": "Hardy ratio sup stable"},
                 sups, stab)
    # rescaling study: dilating the whole family by lam (exact integer
    # gathers) against the homogeneous norm || |D|^0.4 f ||_{L^2(w_0.5)}, under
    # which both sides scale as lam^(s - (1+gamma)/p), so the sup is invariant.
    # On the grid the dilated samples are the family sampled lam times
    # coarser, so the sups move only by the refinement error over spacings
    # h .. 4h: the ladder's band ``stab``

    def dilate(f: GridFunction, lam: int) -> GridFunction:
        idx = lam * np.arange(grid.n_points) - (lam - 1) * grid.zero_index
        vals = np.zeros_like(f.values)
        ok = (idx >= 0) & (idx < grid.n_points)
        vals[ok] = f.values[idx[ok]]
        return GridFunction(grid, vals)

    def homogeneous_ratio(f: GridFunction) -> float:
        denom = weighted_lp_norm(fourier.fractional_laplacian_spectral(f, 0.4), 2.0,
                                 PowerWeight(0.5))
        return weighted_lp_norm(f, 2.0, PowerWeight(0.5 - 0.4 * 2.0)) / denom

    dilated_sups = [_sup(homogeneous_ratio(dilate(f, lam)) for f in fam) for lam in (1, 2, 4)]
    _stable_case(report, {"s": 0.4, "p": 2, "gamma": 0.5,
                          "what": "Hardy sup bounded under dilation"},
                 dilated_sups, stab)
    # Gagliardo-Nirenberg, one family per N
    sups_gn, _ = _ladder(FULL_LINE, lambda g: generate_test_family(g, seed + 7, 50),
                         lambda fam: [_sup(r) for r in zip(
                             *(halfline.gn_ratios(f, 1, 2, _GN_PAIRS) for f in fam))])
    for (p, gamma), values in zip(_GN_PAIRS, sups_gn):
        _stable_case(report, {"p": p, "gamma": gamma, "what": "GN ratio sup stable"},
                     values, stab)
    # scale invariance at gamma = 0
    x = grid.points
    u = GridFunction(grid, np.exp(-x ** 2) * (1.0 + 0.3 * np.cos(2.0 * x)))
    r0 = halfline.gn_check(u, 1, 2, 2.0, 0.0)
    worst = _sup(abs(halfline.gn_check(GridFunction(
        grid, np.exp(-(lam * x) ** 2) * (1.0 + 0.3 * np.cos(2.0 * lam * x))),
        1, 2, 2.0, 0.0) - r0) for lam in (0.5, 2.0, 4.0))
    report.add_case({"what": "GN scale invariance at gamma=0"}, worst, 0.0, tol_scale)


def _suite_resolvent(seed: int, report: SuiteReport) -> None:
    tol_ode = 1e-8
    tol_res = 1e-6
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    opm = opcalc.HalfLineOperator(opcalc.MINUS, 2.0, 0.0)
    # closed-form examples; the recursion is exact for piecewise-linear data,
    # so the e^{-t} examples run on a fine grid where interpolation error
    # sits below the tolerance
    g = Grid(_HALF_WIDTH, 4096, HALF_LINE)
    t = g.points
    f1 = GridFunction(g, plateau(t, 0.0, 20.0, 35.0))
    u = opcalc.resolvent(op, 1.0, f1)
    mask = t <= 18.0
    report.add_case({"what": "dirichlet lam=1 f=1 -> 1-exp(-t)"},
                    float(np.max(np.abs(u.values[mask, 0] - (1 - np.exp(-t[mask]))))),
                    0.0, tol_ode)
    gf = Grid(_HALF_WIDTH, 2 ** 17, HALF_LINE)
    tf = gf.points
    uf = opcalc.resolvent(op, 1.0, GridFunction(gf, np.exp(-tf)))
    report.add_case({"what": "dirichlet lam=1 f=exp(-t) -> t exp(-t)"},
                    float(np.max(np.abs(uf.values[:, 0] - tf * np.exp(-tf)))),
                    0.0, tol_ode)
    um = opcalc.resolvent(opm, 1.0, GridFunction(gf, np.exp(-tf)))
    keep = tf <= 35.0
    report.add_case({"what": "minus lam=1 f=exp(-t) -> exp(-t)/2"},
                    float(np.max(np.abs(um.values[keep, 0] - np.exp(-tf[keep]) / 2))),
                    0.0, tol_ode)
    report.add_case({"what": "dirichlet boundary value exact"},
                    abs(complex(uf.values[0, 0])), 0.0, 0.0)
    # ODE residuals (lam + A)u - f on random inputs, with A the operator's own
    # 8th-order derivative
    gr = Grid(_HALF_WIDTH, 2 ** 16, HALF_LINE)
    fam = generate_test_family(gr, seed, 20, support=(0.05, 0.45))
    rng = np.random.default_rng(seed + 1)
    lams = [complex(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in fam]

    def residual(operator: opcalc.HalfLineOperator, f: GridFunction, lam: complex) -> float:
        u = opcalc.resolvent(operator, lam, f)
        return _rel_l2(operator.apply(u) + lam * u, f)

    for name, operator in (("dirichlet", op), ("minus", opm)):
        report.add_case({"what": f"{name} ODE residual (20 random)"},
                        _sup(residual(operator, f, lam) for f, lam in zip(fam, lams)),
                        0.0, tol_res)
    # sector probe supremum, stable across N
    angle = 3.0 * math.pi / 4.0 - 0.1
    radii = [4.0 ** k for k in range(-5, 6)]

    def probe(grid: Grid) -> list:
        """Supremum, largest upper bound, largest upper bound on the real axis,
        count of uncertified or outside-bracket entries."""
        result = opcalc.sectoriality_probe(op, grid, [angle], radii)[0]
        finite = [e for e in result.entries if e["certified"] is not None]
        return [_sup(e["norm_estimate"] for e in result.entries),
                _sup(e["bracket"][1] for e in finite),
                _sup(e["bracket"][1] for e in finite if e["im_lambda"] == 0.0),
                sum(not e["certified"] or e["power_lower"] > e["bracket"][1] for e in finite)]

    (sups, uppers, real_uppers, bads), _ = _ladder(HALF_LINE, lambda g: g, probe)
    # contraction on the positive axis: the upper bracket ends at phi = 0,
    # whose certificates the "entries certified" case counts
    top = _sup(real_uppers)
    report.add_case({"what": "real-lambda norm <= 1 (p=2, gamma=0)"},
                    top, 1.0, 1e-6, passed=top <= 1.0 + 1e-6,
                    measured={"values": real_uppers})
    report.add_refinement(_ALL_N, sups)
    _stable_case(report, {"angle": angle, "what": "sector-probe sup stable"}, sups, 0.05)
    report.add_case({"what": "sector-probe entries certified, power bound inside bracket"},
                    sum(bads), 0, 0)
    # at gamma = 0 the continuum map is convolution with lam e^{-lam t}; its
    # norm on every L^p is the kernel's L^1 norm |lam| / Re lam, reached by the
    # symbol at xi = -Im lam, so the sector supremum is sec(phi_max)
    secant = 1.0 / math.cos(math.pi - angle)
    top = _sup(uppers)
    report.add_case({"angle": angle, "what": "sector-probe sup <= sec(phi_max)"},
                    top, secant, 0.0, passed=top <= secant, measured={"values": uppers})
    _shrinking_case(report, {"angle": angle,
                             "what": "sector-probe gap to sec(phi_max) shrinks with N"},
                    [secant - v for v in sups])


#: (p, gamma, theta) of the domain-norm bands in ``fractional-domains``
_DOMAIN_PGT = ((2.0, 0.0, 0.5), (2.0, 0.5, 0.3), (2.0, 0.5, 0.7))


def _suite_fractional_domains(seed: int, report: SuiteReport) -> None:
    tol_rl = 1e-10
    stab = 0.10
    op0 = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    # domain-norm ratio bands: one family per N serves every (p, gamma, theta)
    ops = [opcalc.HalfLineOperator(opcalc.DIRICHLET, p, gamma) for p, gamma, _ in _DOMAIN_PGT]
    bands, fam_b = _ladder(
        HALF_LINE,
        lambda g: generate_test_family(g, seed + 5, 50, support=(0.1, 0.6)),
        lambda fam: [_band_constant([opcalc.domain_norm_ratio(op, theta, f) for f in fam])
                     for op, (_, _, theta) in zip(ops, _DOMAIN_PGT)])
    # the fractional power against the causal-derivative oracle, finest grid
    fam = generate_test_family(fam_b[0].grid, seed, 20, support=(0.1, 0.5))
    for theta in (0.25, 0.5, 0.75):
        report.add_case({"theta": theta,
                         "what": "fractional power vs causal-derivative oracle"},
                        _sup(_rel_l2(opcalc.fractional_power(op0, theta, f),
                                     opcalc.riemann_liouville(f, theta)) for f in fam),
                        0.0, tol_rl)
    for (p, gamma, theta), values in zip(_DOMAIN_PGT, bands):
        _stable_case(report, {"p": p, "gamma": gamma, "theta": theta,
                              "what": "domain-norm band constant stable"}, values, stab)
    report.add_refinement(_ALL_N, bands[0])
    # theta -> 1: the bands of A^theta approach the band of A itself
    def band(theta: float) -> float:
        return _band_constant([opcalc.domain_norm_ratio(op0, theta, f) for f in fam_b])

    thetas, limit = [0.9, 0.95, 0.99], band(1.0)
    gaps = [abs(band(theta) - limit) / limit for theta in thetas]
    _shrinking_case(report, {"thetas": thetas,
                             "what": "theta -> 1 band gap to the theta=1 band shrinks"}, gaps)
    report.add_case({"thetas": thetas, "what": "theta -> 1 band gap within 1e-2"},
                    gaps[-1], 0.0, 1e-2, measured={"theta1_band": limit})


def _suite_integration_by_parts(seed: int, report: SuiteReport) -> None:
    tol = 1e-8
    tol_rand = 1e-7
    grid = Grid(_HALF_WIDTH, 4096, HALF_LINE)
    t = grid.points
    u = GridFunction(grid, np.exp(-t))
    report.add_case({"what": "u=v=exp(-t)"},
                    opcalc.integration_by_parts_check(u, u), 0.0, tol)
    u0 = GridFunction(grid, t * np.exp(-t))
    report.add_case({"what": "u(0)=0 reduces to antisymmetry"},
                    opcalc.integration_by_parts_check(u0, u), 0.0, tol)
    fam_u = generate_test_family(grid, seed, 20)
    fam_v = generate_test_family(grid, seed + 1, 20)
    w0 = PowerWeight(0.0)
    worst = _sup(opcalc.integration_by_parts_check(fu, fv)
                 / (fourier.wkp_norm(fu, 1, 2.0, w0) * fourier.wkp_norm(fv, 1, 2.0, w0))
                 for fu, fv in zip(fam_u, fam_v))
    report.add_case({"what": "random windowed pairs, residual / (W1 norms)"},
                    worst, 0.0, tol_rand)
    (residuals,), _ = _ladder(HALF_LINE, lambda g: GridFunction(g, np.exp(-g.points)),
                              lambda ug: [opcalc.integration_by_parts_check(ug, ug)])
    report.add_refinement(_ALL_N, residuals)


# name -> suite; each suite reads its parameter table from the constant next to it
SUITES = {
    "frac-laplacian-xcheck": _suite_frac_laplacian,
    "c-sigma": _suite_c_sigma,
    "bessel-kernel": _suite_bessel_kernel,
    "schur-constants": _suite_schur,
    "reflection-extension": _suite_reflection,
    "traces": _suite_traces,
    "pointwise-multiplier": _suite_pointwise_multiplier,
    "hardy-gn": _suite_hardy_gn,
    "resolvent-sectoriality": _suite_resolvent,
    "fractional-domains": _suite_fractional_domains,
    "integration-by-parts": _suite_integration_by_parts,
}


def check_run(suite: str, seed) -> int:
    """The seed of a run of ``suite``, as an int; ConfigError unless the suite
    is known and the seed is an integer >= 0."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; see 'fracspace list'")
    try:
        return _integer("seed", seed, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_suite(suite: str, seed: int = 42, out_dir=None) -> SuiteReport:
    """Execute one named suite and return its report, writing its files to
    ``out_dir`` if one is given.  ``config_hash`` hashes the suite and the
    seed, the whole input of the computation.

    RuntimeWarnings are not printed; the report counts every one by message.
    Warnings of other categories are passed on unchanged.
    """
    seed = check_run(suite, seed)
    canon = json.dumps({"seed": seed, "suite": suite}, sort_keys=True)
    report = SuiteReport(suite, hashlib.sha256(canon.encode()).hexdigest()[:16])
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        SUITES[suite](seed, report)
    report.runtime_s = time.perf_counter() - start
    suppressed = Counter(str(w.message) for w in caught
                         if issubclass(w.category, RuntimeWarning))
    report.warnings = dict(sorted(suppressed.items()))
    for w in caught:
        if not issubclass(w.category, RuntimeWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if out_dir:
        report.write(out_dir)
    return report
