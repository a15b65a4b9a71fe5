"""Command-line interface.

    fracspace list
    fracspace run <suite>|all [--config path.json] [--out dir]
                  [--n 1024,2048,4096] [--seed 42] [--half-width 40]
    fracspace apply <op> --in f.csv --out g.csv [--params '{...}']

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 bad input (usage,
configuration, operator parameters, or a missing or malformed input file),
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .grid import Grid, GridFunction, PowerWeight, mollify
from . import fourier, halfline, kernels, opcalc, singular
from .harness import ConfigError, SUITES, SuiteConfig, run_suite


def _op_bessel(f, params):
    return fourier.bessel_potential(f, float(params["s"]))


def _op_frac_spectral(f, params):
    return fourier.fractional_laplacian_spectral(f, float(params["sigma"]))


def _op_frac_singular(f, params):
    return singular.fractional_laplacian_singular(f, float(params["sigma"]))


def _op_mollify(f, params):
    return mollify(f, int(params["scale"]), params.get("profile", "bump"))


def _op_multiplier_derivative(f, params):
    return fourier.spectral_derivative(f, int(params.get("order", 1)))


def _op_reflect_extend(f, params):
    coeffs = halfline.solve_reflection_coefficients(int(params.get("m", 1)))
    return halfline.reflect_extend(f, coeffs)


def _op_reflect_extend_dual(f, params):
    coeffs = halfline.solve_reflection_coefficients(int(params.get("m", 1)))
    return halfline.reflect_extend_dual(f, coeffs)


def _op_support_projection(f, params):
    coeffs = halfline.solve_reflection_coefficients(int(params.get("m", 1)))
    return halfline.support_projection(f, coeffs)


def _op_project_h0(f, params):
    return halfline.project_H0(f, int(params.get("k", 0)))


def _op_hardy_hilbert(f, params):
    return kernels.hardy_hilbert_apply(f, float(params.get("p", 2.0)),
                                       PowerWeight(float(params.get("gamma", 0.0))))


def _op_resolvent(f, params):
    op = opcalc.HalfLineOperator(params.get("variant", opcalc.DIRICHLET),
                                 float(params.get("p", 2.0)),
                                 float(params.get("gamma", 0.0)))
    lam = complex(float(params.get("re_lambda", 1.0)),
                  float(params.get("im_lambda", 0.0)))
    return opcalc.resolvent(op, lam, f)


def _op_fractional_power(f, params):
    op = opcalc.HalfLineOperator(params.get("variant", opcalc.DIRICHLET),
                                 float(params.get("p", 2.0)),
                                 float(params.get("gamma", 0.0)))
    return opcalc.fractional_power(op, float(params["theta"]), f)


def _op_riemann_liouville(f, params):
    return opcalc.riemann_liouville(f, float(params["theta"]))


# operator -> (function, the --params keys it reads)
APPLY_OPS = {
    "bessel-potential": (_op_bessel, ("s",)),
    "frac-laplacian-spectral": (_op_frac_spectral, ("sigma",)),
    "frac-laplacian-singular": (_op_frac_singular, ("sigma",)),
    "mollify": (_op_mollify, ("scale", "profile")),
    "derivative": (_op_multiplier_derivative, ("order",)),
    "zero-extend": (lambda f, p: halfline.zero_extend(f), ()),
    "restrict-plus": (lambda f, p: halfline.restrict_plus(f), ()),
    "restrict-minus": (lambda f, p: halfline.restrict_minus(f), ()),
    "indicator-multiply": (lambda f, p: halfline.indicator_multiply(f), ()),
    "reflect-extend": (_op_reflect_extend, ("m",)),
    "reflect-extend-dual": (_op_reflect_extend_dual, ("m",)),
    "support-projection": (_op_support_projection, ("m",)),
    "project-h0": (_op_project_h0, ("k",)),
    "hardy-hilbert": (_op_hardy_hilbert, ("p", "gamma")),
    "resolvent": (_op_resolvent, ("variant", "p", "gamma", "re_lambda", "im_lambda")),
    "fractional-power": (_op_fractional_power, ("variant", "p", "gamma", "theta")),
    "riemann-liouville": (_op_riemann_liouville, ("theta",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracspace",
                                     description="verification CLI")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="enumerate verification suites")
    runp = sub.add_parser("run", help="run one suite (or 'all')")
    runp.add_argument("suite")
    runp.add_argument("--config", help="JSON file with suite configuration")
    runp.add_argument("--out", help="report output directory")
    runp.add_argument("--n", help="comma-separated grid sizes, e.g. 1024,2048,4096")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--half-width", type=float, default=None)
    appp = sub.add_parser("apply", help="apply one operator to a CSV grid function")
    appp.add_argument("op", choices=sorted(APPLY_OPS))
    appp.add_argument("--in", dest="inp", required=True)
    appp.add_argument("--out", dest="outp", required=True)
    appp.add_argument("--params", default="{}")
    return parser


def _make_config(name: str, args) -> SuiteConfig:
    if args.config:
        cfg = SuiteConfig.from_json(name, args.config)
    else:
        cfg = SuiteConfig(suite=name)
    if args.n:
        try:
            cfg.n_list = tuple(int(s) for s in args.n.split(","))
        except ValueError:
            raise ConfigError(f"--n needs comma-separated integers, got {args.n!r}") from None
    if args.seed is not None:
        cfg.seed = args.seed
    if args.half_width is not None:
        cfg.half_width = args.half_width
    if args.out:
        cfg.out_dir = args.out
    if args.suite == "all":
        cfg = cfg.shared()
    cfg.validate()
    return cfg


def _run(configs) -> int:
    any_fail = False
    for cfg in configs:
        report = run_suite(cfg)
        n_pass = sum(c["pass"] for c in report.cases)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {cfg.suite}: {n_pass}/{len(report.cases)} cases, "
              f"{report.runtime_s:.1f}s")
        any_fail |= not report.passed
    return 1 if any_fail else 0


def _apply(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad --params JSON: {exc}") from None
    func, keys = APPLY_OPS[args.op]
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {args.params!r}")
    unread = sorted(set(params) - set(keys))
    if unread:
        raise ValueError(f"{args.op} reads no parameters {unread}; it reads {sorted(keys)}")
    f = GridFunction.from_csv(args.inp)
    func(f, params).to_csv(args.outp)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in SUITES:
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    # the one error boundary for bad input: unreadable files, malformed JSON
    # or CSV, invalid configurations and operator parameters exit 2 with one
    # line; suites run outside it, so a failure inside one keeps its traceback
    try:
        if args.command == "apply":
            return _apply(args)
        names = list(SUITES) if args.suite == "all" else [args.suite]
        configs = [_make_config(name, args) for name in names]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing parameter {exc}" if isinstance(exc, KeyError) else exc
        print(f"fracspace {args.command}: {detail}", file=sys.stderr)
        return 2
    return _run(configs)


if __name__ == "__main__":
    sys.exit(main())
