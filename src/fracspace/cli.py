"""Command-line interface.

    fracspace list
    fracspace run <suite>|all [--out dir] [--n 1024,2048,4096] [--seed 42]
    fracspace apply <op> --in f.csv --out g.csv [--params '{...}']

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 bad input (usage,
grid sizes or seed, operator parameters, or a missing or malformed input
file), reported as one line on stderr.  Every suite runs at half width 40.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .grid import GridFunction, mollify
from . import fourier, halfline, kernels, opcalc, singular
from .harness import ConfigError, SUITES, SuiteConfig, run_suite


def _op_reflect_extend(f, m=1):
    return halfline.reflect_extend(f, halfline.solve_reflection_coefficients(m))


def _op_reflect_extend_dual(f, m=1):
    return halfline.reflect_extend_dual(f, halfline.solve_reflection_coefficients(m))


def _op_support_projection(f, m=1):
    return halfline.support_projection(f, halfline.solve_reflection_coefficients(m))


def _op_project_h0(f, k=0):
    return halfline.project_H0(f, k)


def _op_hardy_hilbert(f):
    # its node subset (nodes=) is a test reference, not a --params key
    return kernels.hardy_hilbert_apply(f)


# the resolvent and the fractional power do not read the weight of the
# operator, so p and gamma are not --params keys
def _op_resolvent(f, variant=opcalc.DIRICHLET, re_lambda=1.0, im_lambda=0.0):
    return opcalc.resolvent(opcalc.HalfLineOperator(variant),
                            complex(re_lambda, im_lambda), f)


def _op_fractional_power(f, theta, variant=opcalc.DIRICHLET):
    return opcalc.fractional_power(opcalc.HalfLineOperator(variant), theta, f)


# operator -> function of the input; its keyword parameters are the
# operator's --params keys, with their defaults
APPLY_OPS = {
    "bessel-potential": fourier.bessel_potential,
    "frac-laplacian-spectral": fourier.fractional_laplacian_spectral,
    "frac-laplacian-singular": singular.fractional_laplacian_singular,
    "mollify": mollify,
    "derivative": fourier.spectral_derivative,
    "zero-extend": halfline.zero_extend,
    "restrict-plus": halfline.restrict_plus,
    "restrict-minus": halfline.restrict_minus,
    "indicator-multiply": halfline.indicator_multiply,
    "reflect-extend": _op_reflect_extend,
    "reflect-extend-dual": _op_reflect_extend_dual,
    "support-projection": _op_support_projection,
    "project-h0": _op_project_h0,
    "hardy-hilbert": _op_hardy_hilbert,
    "resolvent": _op_resolvent,
    "fractional-power": _op_fractional_power,
    "riemann-liouville": opcalc.riemann_liouville,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise into ``main``'s error boundary (argparse would print
    a usage block and exit); the sub-parsers take this class too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracspace", description="verification CLI")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="enumerate verification suites")
    runp = sub.add_parser("run", help="run one suite (or 'all')")
    runp.add_argument("suite")
    runp.add_argument("--out", help="report output directory")
    runp.add_argument("--n", help="comma-separated grid sizes, e.g. 1024,2048,4096")
    runp.add_argument("--seed", type=int, default=SuiteConfig.seed)
    appp = sub.add_parser("apply", help="apply one operator to a CSV grid function")
    appp.add_argument("op", choices=sorted(APPLY_OPS))
    appp.add_argument("--in", dest="inp", required=True)
    appp.add_argument("--out", dest="outp", required=True)
    appp.add_argument("--params", default="{}")
    return parser


def _make_config(name: str, args) -> SuiteConfig:
    cfg = SuiteConfig(name, seed=args.seed, out_dir=args.out)
    if args.n:
        try:
            cfg.n_list = tuple(int(s) for s in args.n.split(","))
        except ValueError:
            raise ConfigError(f"--n needs comma-separated integers, got {args.n!r}") from None
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
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {args.params!r}")
    func = APPLY_OPS[args.op]
    signature = inspect.signature(func)
    try:
        signature.bind(None, **params)
    except TypeError:
        keys = ", ".join(str(k.replace(annotation=k.empty))
                         for k in list(signature.parameters.values())[1:])
        raise ValueError(f"{args.op} takes --params ({keys}), "
                         f"got {sorted(params)}") from None
    f = GridFunction.from_csv(args.inp)
    func(f, **params).to_csv(args.outp)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # the one error boundary for bad input: usage errors, unreadable files,
    # malformed JSON or CSV, invalid configurations and operator parameters
    # exit 2 with one line; suites run outside it, so a failure inside one
    # keeps its traceback
    try:
        args = parser.parse_args(argv)
        if args.command == "apply":
            return _apply(args)
        if args.command == "run":
            names = list(SUITES) if args.suite == "all" else [args.suite]
            configs = [_make_config(name, args) for name in names]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # only a non-empty argv can fail; its first word names the command
        print(f"fracspace {argv[0]}: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        for name in SUITES:
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    return _run(configs)


if __name__ == "__main__":
    sys.exit(main())
