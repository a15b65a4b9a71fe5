"""Named verification suites over the whole package, with refinement studies
and machine-readable reports.

Each suite exercises one package-level guarantee (operator identities,
inequality constants, convergence under grid refinement) and emits a
:class:`SuiteReport` holding per-case pass/fail records, a refinement table
with at least three resolution levels, and wall-clock time.  A report is
deterministic given (config, seed, floating-point environment).  Refinement
studies measure over one ladder of grid sizes (``_ladder``) and judge each sweep
entry's values with one of two verdicts: ``_stable_case`` (they agree within
rtol) or ``_shrinking_case`` (they decrease strictly).  This module is the only
code that turns measurements into pass flags: the operator modules return
numbers (``kernels.kernel_bound_check`` its envelope sups, which
``_stable_case`` judges), and every family maximum is ``_sup``, which keeps a
NaN that ``max`` would drop.

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
from dataclasses import dataclass, field, fields, asdict, replace
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
    """Raised for malformed suite configurations (CLI exit code 2)."""


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
            peak = np.max(np.abs(profile))
            vals[:, c] = profile / peak if peak > 0 else profile
        f = GridFunction(grid, vals)
        if kind == "zero-trace-k":
            f = halfline.project_H0(f, trace_order)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# configuration and reports


_ALL_N = (1024, 2048, 4096)


@dataclass
class SuiteConfig:
    """Grid sizes, seed, and the sweeps and tolerances of one verification
    suite; ``sweeps`` and ``tolerances`` override the suite's defaults in
    ``SUITES`` key by key."""

    suite: str
    half_width: float = 40.0
    n_list: tuple = _ALL_N
    seed: int = 42
    out_dir: str | None = None
    sweeps: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, suite: str, path) -> "SuiteConfig":
        with open(path) as fh:
            raw = json.load(fh)
        bad = set(raw) - {f.name for f in fields(cls)}
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        raw.pop("suite", None)
        return cls(suite=suite, **raw)

    def validate(self) -> None:
        """Raise ConfigError unless the configuration can run; the seed and
        the grid sizes are stored as ints."""
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; see 'fracspace list'")
        try:
            self.seed = _integer("seed", self.seed, 0)
            self.n_list = tuple(_integer("grid size", n, 0) for n in self.n_list)
            for n in self.n_list:  # Grid holds the half-width and grid-size rules
                Grid(self.half_width, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(self.n_list) < 3:
            raise ConfigError("need at least three grid sizes for refinement")
        if any(fine <= coarse for coarse, fine in zip(self.n_list, self.n_list[1:])):
            # the suites read the last size as the finest grid
            raise ConfigError(f"grid sizes must be strictly ascending, got {list(self.n_list)}")
        _, sweeps, tolerances = SUITES[self.suite]
        for kind, given, read in (("sweep", self.sweeps, sweeps),
                                  ("tolerance", self.tolerances, tolerances)):
            unread = sorted(set(given) - set(read))
            if unread:
                raise ConfigError(f"suite {self.suite} reads no {kind} keys {unread}; "
                                  f"it reads {sorted(read)}")
        for key, values in self.sweeps.items():
            # the entries of a sweep have the shape of its default's entries
            want = _shape(sweeps[key][0])
            if not (isinstance(values, (list, tuple)) and values
                    and all(_shape(v) == want for v in values)):
                entries = "numbers" if want == 0 else f"lists of {want} numbers"
                raise ConfigError(f"sweep {key} must be a non-empty list of {entries}, "
                                  f"got {values!r}")
        for key, tol in self.tolerances.items():
            if _shape(tol) != 0 or not (math.isfinite(tol) and tol >= 0):
                raise ConfigError(f"tolerance {key} must be a finite number >= 0, got {tol!r}")
        for key, check in _ENTRY_CHECKS.items():
            for entry in self.sweeps.get(key, ()):
                try:
                    check(entry)
                except ValueError as exc:
                    raise ConfigError(f"sweep {key} entry {entry!r}: {exc}") from None

    def shared(self) -> "SuiteConfig":
        """This configuration as one of several suites that share it (``run all``).

        Drops the sweep and tolerance keys that only other suites read; keys
        that no suite reads stay, so ``validate`` still rejects them.
        """
        def narrow(given: dict, column: int) -> dict:
            read_here = SUITES[self.suite][column]
            read_anywhere = {k for entry in SUITES.values() for k in entry[column]}
            return {k: v for k, v in given.items()
                    if k in read_here or k not in read_anywhere}

        return replace(self, sweeps=narrow(self.sweeps, 1),
                       tolerances=narrow(self.tolerances, 2))

    def hash(self) -> str:
        """Hash of the computation the config asks for; where the report is
        written (``out_dir``) does not enter."""
        record = asdict(self)
        del record["out_dir"]
        canon = json.dumps(record, sort_keys=True, default=list)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_triple(p, gamma, s) -> None:
    PowerWeight(gamma).check_admissible(p)
    if halfline.critical_line_distance(s, p, gamma) < 0.05 and s > 0:
        raise ConfigError(
            f"s={s} is within 0.05 of a critical trace line for "
            f"(p, gamma)=({p}, {gamma})")


def _check_pgt(p, gamma, theta) -> None:
    # theta is an operator order, not a smoothness on the trace lines
    PowerWeight(gamma).check_admissible(p)
    opcalc.check_domain_theta(theta)


# sweep key -> the range check of one of its entries (a ValueError rejects it);
# sigma, p_beta and pgt's theta use the checks of the operators the suites call
_ENTRY_CHECKS = {
    "sigma": singular.check_sigma,
    "p_beta": lambda entry: kernels.check_schur_exponents(*entry),
    "spg": lambda entry: _check_triple(entry[1], entry[2], entry[0]),
    "pgt": lambda entry: _check_pgt(*entry),
}


def _shape(entry) -> int | None:
    """0 for a number, k for a list of k numbers, None for anything else."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return 0
    if isinstance(entry, (list, tuple)) and entry and all(_shape(e) == 0 for e in entry):
        return len(entry)
    return None


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
    """``v`` as strict JSON: numbers as floats (the real part of a complex one),
    a non-finite float as "NaN", "Infinity" or "-Infinity", lists and dict
    values entry by entry."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, dict):
        return {key: _jsonable(u) for key, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    f = float(np.real(v)) if np.iscomplexobj(v) else float(v)
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


def _ladder(cfg: SuiteConfig, kind: str, inputs, measure):
    """Run ``measure(inputs(grid))`` on the grid of each size in ``cfg.n_list``,
    coarsest first (``validate`` holds the sizes ascending).  ``measure`` returns
    one value per sweep entry; the result is one list of values per entry and the
    finest grid's inputs.
    """
    rows = []
    for n in cfg.n_list:
        made = inputs(Grid(cfg.half_width, n, kind))
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


def _suite_frac_laplacian(cfg: SuiteConfig, report: SuiteReport) -> None:
    sigmas = cfg.sweeps["sigma"]
    tol = cfg.tolerances["rel_l2"]
    w0 = PowerWeight(0.0)

    def rel(f: GridFunction, sigma: float) -> float:
        spec = fourier.fractional_laplacian_spectral(f, sigma)
        sing = singular.fractional_laplacian_singular(f, sigma)
        return weighted_lp_norm(sing - spec, 2.0, w0) / weighted_lp_norm(spec, 2.0, w0)

    sups, _ = _ladder(cfg, FULL_LINE, lambda g: generate_test_family(g, cfg.seed, 20),
                      lambda fam: [_sup(rel(f, sigma) for f in fam) for sigma in sigmas])
    for sigma, values in zip(sigmas, sups):
        report.add_case({"sigma": sigma, "N": cfg.n_list[-1], "what": "max rel L2"},
                        values[-1], 0.0, tol)
    worst_by_n = [_sup(at_n) for at_n in zip(*sups)]
    report.add_refinement(cfg.n_list, worst_by_n)
    _shrinking_case(report, {"what": "discrepancy decreases with N"}, worst_by_n)


def _suite_c_sigma(cfg: SuiteConfig, report: SuiteReport) -> None:
    sigmas = cfg.sweeps["sigma"]
    tol_h = cfg.tolerances["homogeneity"]
    tol_o = cfg.tolerances["oracle"]
    for sigma in sigmas:
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
    # refinement: series/tail split points must agree
    report.add_refinement((0, 1, 2), [1.0 / singular.symbol_integral(1.0, 0.5, split=split)
                                      for split in (0.5, 1.0, 2.0)])


def _suite_bessel_kernel(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol = cfg.tolerances["kernel"]
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
        for regime, sups in kernels.kernel_bound_check(s).items():
            _stable_case(report, {"s": s, "regime": regime}, sups, 0.05)
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


def _suite_schur(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol = cfg.tolerances["closed_form"]
    for p, beta in cfg.sweeps["p_beta"]:
        val = kernels.schur_constant(p, beta)
        report.add_case({"p": p, "beta": beta, "what": "quadrature vs closed form"},
                        val, kernels.schur_closed_form(p, beta), tol)
    # operator-norm probe against the Schur bound
    rng = np.random.default_rng(cfg.seed)
    gammas = (-0.5, 0.0, 1.0)

    def bump_ratio(grid: Grid, gamma: float) -> float:
        c = rng.uniform(0.05, 0.6) * cfg.half_width
        wd = rng.uniform(0.01, 0.12) * cfg.half_width
        h = GridFunction(grid, np.exp(-((grid.points - c) / wd) ** 2))
        w = PowerWeight(gamma)
        return (weighted_lp_norm(kernels.hardy_hilbert_apply(h), 2.0, w)
                / weighted_lp_norm(h, 2.0, w))

    sups, _ = _ladder(cfg, HALF_LINE, lambda g: g, lambda g: [
        _sup(bump_ratio(g, gamma) for _ in range(50)) for gamma in gammas])
    for gamma, values in zip(gammas, sups):
        beta = gamma / 2.0
        admissible = -1.0 < beta - 0.5 < 0.0
        bound = kernels.schur_closed_form(2.0, beta) if admissible else math.inf
        report.add_case({"gamma": gamma, "what": "probe <= Schur bound"},
                        values[-1], bound, 0.0, passed=values[-1] <= bound)
    report.add_refinement(cfg.n_list, [_sup(at_n) for at_n in zip(*sups)])


def _suite_reflection(cfg: SuiteConfig, report: SuiteReport) -> None:
    c0 = halfline.solve_reflection_coefficients(0)
    report.add_case({"what": "m=0 coefficients"}, list(c0.bs), [3.0, -2.0], 0.0,
                    passed=c0.bs == (3.0, -2.0))
    tol_poly = cfg.tolerances["poly"]
    grid = Grid(cfg.half_width, 8192, HALF_LINE)
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
    f = generate_test_family(grid, cfg.seed, 1)[0]
    ext = halfline.reflect_extend(f, halfline.solve_reflection_coefficients(1))
    back = halfline.restrict_plus(ext)
    report.add_case({"what": "restriction identity exact"},
                    float(np.max(np.abs(back.values - f.values))), 0.0, 0.0)
    zero = GridFunction(grid, np.zeros(grid.n_points))
    ez = halfline.reflect_extend(zero, c0)
    report.add_case({"what": "extension of zero"},
                    float(np.max(np.abs(ez.values))), 0.0, 0.0)
    # duality, with refinement
    tol_dual = cfg.tolerances["duality"]
    c1 = halfline.solve_reflection_coefficients(1)

    def duality_gap(fh: GridFunction, gg: GridFunction) -> float:
        lhs = dual_pairing(halfline.reflect_extend(fh, c1), gg)
        rhs = dual_pairing(halfline.zero_extend(fh), halfline.reflect_extend_dual(gg, c1))
        return abs(lhs - rhs)

    (errs_by_n,), _ = _ladder(
        cfg, FULL_LINE,
        lambda g: (generate_test_family(g.companion(HALF_LINE), cfg.seed + 1, 20),
                   generate_test_family(g, cfg.seed + 2, 20)),
        lambda fams: [_sup(duality_gap(fh, gg) for fh, gg in zip(*fams))])
    report.add_refinement(cfg.n_list, errs_by_n)
    report.add_case({"what": "duality pairing identity (20 pairs)"},
                    errs_by_n[-1], 0.0, tol_dual)


def _suite_traces(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol = cfg.tolerances["trace"]
    grid = Grid(cfg.half_width, 4096, FULL_LINE)
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
    rng = np.random.default_rng(cfg.seed)
    for k, n in ((0, 4096), (1, 4096), (2, 2048), (3, 2048), (4, 1024)):
        g = Grid(cfg.half_width, n, FULL_LINE)
        tv = halfline.TraceVector(
            k, rng.standard_normal((k + 1, 1)) + 1j * rng.standard_normal((k + 1, 1)))
        back = halfline.trace(halfline.coextend(tv, g), k)
        report.add_case({"k": k, "N": n, "what": "trace(coextend) identity"},
                        float(np.max(np.abs(back.entries - tv.entries))), 0.0, tol)
    # vanishing near 0 gives exactly zero trace
    gh = Grid(cfg.half_width, 4096, HALF_LINE)
    th = gh.points
    fv = GridFunction(gh, np.where(th > 1.0, np.exp(-(th - 5.0) ** 2), 0.0))
    report.add_case({"what": "zero trace for f vanishing on (0, delta)"},
                    float(np.max(np.abs(halfline.trace(fv, 2).entries))), 0.0, 0.0)
    # projection: vanishing trace and idempotence
    fam = generate_test_family(grid, cfg.seed + 3, 20, "boundary-touching")
    projected = [halfline.project_H0(f, 2) for f in fam]
    report.add_case({"what": "projection kills the trace (20 inputs)"},
                    _sup(float(np.max(np.abs(halfline.trace(p1, 2).entries)))
                         for p1 in projected), 0.0, tol)
    report.add_case({"what": "projection idempotent"},
                    _sup(float(np.max(np.abs(halfline.project_H0(p1, 2).values - p1.values)))
                         for p1 in projected), 0.0, tol)
    # projection followed by one-sided mollification: the error shrinks with the scale
    gfine = Grid(cfg.half_width, 8192, FULL_LINE)
    f = generate_test_family(gfine, cfg.seed + 3, 1, "boundary-touching")[0]
    proj = halfline.project_H0(f, 2)
    conv = []
    for scale in (4, 8, 12):
        m = mollify(proj, scale, "left")
        conv.append(weighted_lp_norm(m - proj, 2.0, PowerWeight(0.0)))
    _shrinking_case(report, {"what": "one-sided mollify convergence (reported)"},
                    [float(c) for c in conv])
    sizes = (1024, 2048, 4096)
    tv = halfline.TraceVector(2, np.ones((3, 1)))
    backs = [halfline.trace(halfline.coextend(tv, Grid(cfg.half_width, n, FULL_LINE)), 2)
             for n in sizes]
    report.add_refinement(sizes, [float(np.max(np.abs(b.entries - tv.entries)))
                                  for b in backs])


def _suite_pointwise_multiplier(cfg: SuiteConfig, report: SuiteReport) -> None:
    stab = cfg.tolerances["stability"]
    tol_comm = cfg.tolerances["commutation"]
    spg = cfg.sweeps["spg"]
    sups, _ = _ladder(cfg, FULL_LINE,
                      lambda g: generate_test_family(g, cfg.seed, 50, "boundary-touching"),
                      lambda fam: [_sup(r) for r in zip(
                          *(halfline.multiplier_norm_ratios(f, spg) for f in fam))])
    for (s, p, gamma), values in zip(spg, sups):
        _stable_case(report, {"s": s, "p": p, "gamma": gamma,
                              "what": "indicator norm-ratio sup stable"}, values, stab)
    # zero-trace windows and the derivative-commutation identity
    w = PowerWeight(0.0)
    for k in (1, 2):
        (sups_k,), fam = _ladder(
            cfg, FULL_LINE,
            lambda g: generate_test_family(g, cfg.seed + k, 20, "zero-trace-k", trace_order=k),
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
    report.add_refinement(cfg.n_list, sups[0])


def _suite_hardy_gn(cfg: SuiteConfig, report: SuiteReport) -> None:
    stab = cfg.tolerances["stability"]
    tol_scale = cfg.tolerances["scale_invariance"]
    # Hardy embedding ratio

    def hardy_sup(fam) -> float:
        return _sup(halfline.hardy_embedding_check(f, 0.4, 2.0, 0.5) for f in fam)

    (sups,), fam = _ladder(cfg, FULL_LINE, lambda g: generate_test_family(g, cfg.seed, 50),
                           lambda fam: [hardy_sup(fam)])
    grid = fam[0].grid
    report.add_refinement(cfg.n_list, sups)
    _stable_case(report, {"s": 0.4, "p": 2, "gamma": 0.5, "what": "Hardy ratio sup stable"},
                 sups, stab)
    # rescaling study: dilating the whole family by lam (exact integer
    # gathers) against the homogeneous norm || |D|^0.4 f ||_{L^2(w_0.5)}, under
    # which both sides scale as lam^(s - (1+gamma)/p), so the sup is invariant.
    # On the grid the dilated samples are the family sampled lam times
    # coarser, so the sups move only by the refinement error over spacings
    # h .. 4h: the ladder's band ``stability``, at most 0.3

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
                 dilated_sups, min(stab, 0.3))
    # Gagliardo-Nirenberg, one family per N
    sups_gn, _ = _ladder(cfg, FULL_LINE, lambda g: generate_test_family(g, cfg.seed + 7, 50),
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


def _suite_resolvent(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol_ode = cfg.tolerances["ode"]
    tol_res = cfg.tolerances["residual"]
    w0 = PowerWeight(0.0)
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    opm = opcalc.HalfLineOperator(opcalc.MINUS, 2.0, 0.0)
    # closed-form examples; the recursion is exact for piecewise-linear data,
    # so the e^{-t} examples run on a fine grid where interpolation error
    # sits below the tolerance
    g = Grid(cfg.half_width, 4096, HALF_LINE)
    t = g.points
    f1 = GridFunction(g, plateau(t, 0.0, 20.0, 35.0))
    u = opcalc.resolvent(op, 1.0, f1)
    mask = t <= 18.0
    report.add_case({"what": "dirichlet lam=1 f=1 -> 1-exp(-t)"},
                    float(np.max(np.abs(u.values[mask, 0] - (1 - np.exp(-t[mask]))))),
                    0.0, tol_ode)
    gf = Grid(cfg.half_width, 2 ** 17, HALF_LINE)
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
    # residuals on random inputs (fine grid: the recursion output is only C^1,
    # which spectral differentiation resolves at this resolution); inputs end
    # at 0.45 L so the resolvents decay below the periodization guard by L
    gr = Grid(cfg.half_width, 2 ** 16, HALF_LINE)
    fam = generate_test_family(gr, cfg.seed, 20, support=(0.05, 0.45))
    rng = np.random.default_rng(cfg.seed + 1)
    lams = [complex(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in fam]
    coeffs = halfline.solve_reflection_coefficients(2)

    def residual_d(f: GridFunction, lam: complex) -> float:
        ud = opcalc.resolvent(op, lam, f)
        du = fourier.spectral_derivative(halfline.zero_extend(ud))
        res = halfline.restrict_plus(du) + lam * ud - f
        return weighted_lp_norm(res, 2.0, w0) / weighted_lp_norm(f, 2.0, w0)

    def residual_m(f: GridFunction, lam: complex) -> float:
        uq = opcalc.resolvent(opm, lam, f)
        dq = fourier.spectral_derivative(halfline.reflect_extend(uq, coeffs))
        res = -1.0 * halfline.restrict_plus(dq) + lam * uq - f
        return weighted_lp_norm(res, 2.0, w0) / weighted_lp_norm(f, 2.0, w0)

    for variant, residual in (("dirichlet", residual_d), ("minus", residual_m)):
        report.add_case({"what": f"{variant} ODE residual (20 random)"},
                        _sup(residual(f, lam) for f, lam in zip(fam, lams)), 0.0, tol_res)
    # sector probe supremum, stable across N
    angle = 3.0 * math.pi / 4.0 - 0.1
    radii = [4.0 ** k for k in range(-5, 6)]

    def probe(grid: Grid) -> list:
        """Supremum, largest upper bound, largest upper bound on the real axis,
        count of uncertified or outside-bracket entries."""
        result = opcalc.sectoriality_probe(op, grid, [angle], radii)[0]
        finite = [e for e in result.entries if e["certified"] is not None]
        return [result.supremum, _sup(e["bracket"][1] for e in finite),
                _sup(e["bracket"][1] for e in finite if e["im_lambda"] == 0.0),
                sum(not e["certified"] or e["power_lower"] > e["bracket"][1] for e in finite)]

    (sups, uppers, real_uppers, bads), _ = _ladder(cfg, HALF_LINE, lambda g: g, probe)
    # contraction on the positive axis: the upper bracket ends at phi = 0,
    # whose certificates the "entries certified" case counts
    top = _sup(real_uppers)
    report.add_case({"what": "real-lambda norm <= 1 (p=2, gamma=0)"},
                    top, 1.0, 1e-6, passed=top <= 1.0 + 1e-6,
                    measured={"values": real_uppers})
    report.add_refinement(cfg.n_list, sups)
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


def _suite_fractional_domains(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol_rl = cfg.tolerances["rl_match"]
    stab = cfg.tolerances["stability"]
    w0 = PowerWeight(0.0)
    op0 = opcalc.HalfLineOperator(opcalc.DIRICHLET, 2.0, 0.0)
    # domain-norm ratio bands: one family per N serves every (p, gamma, theta)
    pgt = cfg.sweeps["pgt"]
    ops = [opcalc.HalfLineOperator(opcalc.DIRICHLET, p, gamma) for p, gamma, _ in pgt]
    bands, fam_b = _ladder(
        cfg, HALF_LINE,
        lambda g: generate_test_family(g, cfg.seed + 5, 50, support=(0.1, 0.6)),
        lambda fam: [_band_constant([opcalc.domain_norm_ratio(op, theta, f) for f in fam])
                     for op, (_, _, theta) in zip(ops, pgt)])
    # the fractional power against the causal-derivative oracle, finest grid
    fam = generate_test_family(fam_b[0].grid, cfg.seed, 20, support=(0.1, 0.5))

    def oracle_gap(f: GridFunction, theta: float) -> float:
        b = opcalc.riemann_liouville(f, theta)
        return (weighted_lp_norm(opcalc.fractional_power(op0, theta, f) - b, 2.0, w0)
                / weighted_lp_norm(b, 2.0, w0))

    for theta in (0.25, 0.5, 0.75):
        report.add_case({"theta": theta,
                         "what": "fractional power vs causal-derivative oracle"},
                        _sup(oracle_gap(f, theta) for f in fam), 0.0, tol_rl)
    for (p, gamma, theta), values in zip(pgt, bands):
        _stable_case(report, {"p": p, "gamma": gamma, "theta": theta,
                              "what": "domain-norm band constant stable"}, values, stab)
    report.add_refinement(cfg.n_list, bands[0])
    # theta -> 1: the bands of A^theta approach the band of A itself
    def band(theta: float) -> float:
        return _band_constant([opcalc.domain_norm_ratio(op0, theta, f) for f in fam_b])

    thetas, limit = [0.9, 0.95, 0.99], band(1.0)
    gaps = [abs(band(theta) - limit) / limit for theta in thetas]
    _shrinking_case(report, {"thetas": thetas,
                             "what": "theta -> 1 band gap to the theta=1 band shrinks"}, gaps)
    report.add_case({"thetas": thetas, "what": "theta -> 1 band gap within 1e-2"},
                    gaps[-1], 0.0, 1e-2, measured={"theta1_band": limit})


def _suite_integration_by_parts(cfg: SuiteConfig, report: SuiteReport) -> None:
    tol = cfg.tolerances["closed_form"]
    tol_rand = cfg.tolerances["random"]
    grid = Grid(cfg.half_width, 4096, HALF_LINE)
    t = grid.points
    u = GridFunction(grid, np.exp(-t))
    report.add_case({"what": "u=v=exp(-t)"},
                    opcalc.integration_by_parts_check(u, u), 0.0, tol)
    u0 = GridFunction(grid, t * np.exp(-t))
    report.add_case({"what": "u(0)=0 reduces to antisymmetry"},
                    opcalc.integration_by_parts_check(u0, u), 0.0, tol)
    fam_u = generate_test_family(grid, cfg.seed, 20)
    fam_v = generate_test_family(grid, cfg.seed + 1, 20)
    w0 = PowerWeight(0.0)
    worst = _sup(opcalc.integration_by_parts_check(fu, fv)
                 / (fourier.wkp_norm(fu, 1, 2.0, w0) * fourier.wkp_norm(fv, 1, 2.0, w0))
                 for fu, fv in zip(fam_u, fam_v))
    report.add_case({"what": "random windowed pairs, residual / (W1 norms)"},
                    worst, 0.0, tol_rand)
    (residuals,), _ = _ladder(cfg, HALF_LINE, lambda g: GridFunction(g, np.exp(-g.points)),
                              lambda ug: [opcalc.integration_by_parts_check(ug, ug)])
    report.add_refinement(cfg.n_list, residuals)


#: (p, gamma) of the Gagliardo-Nirenberg study in ``hardy-gn``: the admissible
#: pairs of gamma in {-0.5, 0, 1} and p in {1.5, 2, 3}
_GN_PAIRS = tuple((p, gamma) for gamma in (-0.5, 0.0, 1.0) for p in (1.5, 2.0, 3.0)
                  if -1.0 < gamma < p - 1.0)


def _multiplier_triples() -> tuple:
    """Default (s, p, gamma) of ``pointwise-multiplier``: per (p, gamma), the
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


# name -> (suite, default sweeps, default tolerances); a config may set only
# these keys, and run_suite hands the suite the defaults updated by them
SUITES = {
    "frac-laplacian-xcheck": (_suite_frac_laplacian, {"sigma": (0.3, 0.5, 0.7)},
                              {"rel_l2": 1e-3}),
    "c-sigma": (_suite_c_sigma, {"sigma": tuple(round(0.1 * k, 1) for k in range(1, 10))},
                {"homogeneity": 1e-6, "oracle": 1e-8}),
    "bessel-kernel": (_suite_bessel_kernel, {}, {"kernel": 1e-6}),
    "schur-constants": (_suite_schur, {"p_beta": (
        (2.0, -0.3), (2.0, -0.1), (2.0, 0.0), (2.0, 0.2), (2.0, 0.45),
        (1.5, -0.2), (1.5, 0.2), (2.5, 0.1), (3.0, -0.25), (4.0, 0.1))},
                        {"closed_form": 1e-8}),
    "reflection-extension": (_suite_reflection, {}, {"poly": 1e-9, "duality": 1e-8}),
    "traces": (_suite_traces, {}, {"trace": 1e-8}),
    "pointwise-multiplier": (_suite_pointwise_multiplier, {"spg": _multiplier_triples()},
                             {"stability": 0.10, "commutation": 1e-6}),
    "hardy-gn": (_suite_hardy_gn, {}, {"stability": 0.10, "scale_invariance": 1e-6}),
    "resolvent-sectoriality": (_suite_resolvent, {}, {"ode": 1e-8, "residual": 1e-6}),
    "fractional-domains": (_suite_fractional_domains,
                           {"pgt": ((2.0, 0.0, 0.5), (2.0, 0.5, 0.3), (2.0, 0.5, 0.7))},
                           {"rl_match": 1e-10, "stability": 0.10}),
    "integration-by-parts": (_suite_integration_by_parts, {},
                             {"closed_form": 1e-8, "random": 1e-7}),
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute one named suite and return its report (writing files if asked).

    RuntimeWarnings are not printed; the report counts every one by message.
    Warnings of other categories are passed on unchanged.
    """
    config.validate()
    report = SuiteReport(config.suite, config.hash())
    suite, sweeps, tolerances = SUITES[config.suite]
    merged = replace(config, sweeps={**sweeps, **config.sweeps},
                     tolerances={**tolerances, **config.tolerances})
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        suite(merged, report)
    report.runtime_s = time.perf_counter() - start
    suppressed = Counter(str(w.message) for w in caught
                         if issubclass(w.category, RuntimeWarning))
    report.warnings = dict(sorted(suppressed.items()))
    for w in caught:
        if not issubclass(w.category, RuntimeWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if config.out_dir:
        report.write(config.out_dir)
    return report
