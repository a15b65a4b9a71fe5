import argparse
import csv
import hashlib
import json
import math
import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from fracspace.grid import (
    FULL_LINE, Grid, GridFunction, HALF_LINE, PowerWeight, plateau, weighted_lp_norm)
from fracspace import cli, fourier, halfline, kernels, opcalc, singular
from fracspace.halfline import trace
from fracspace.harness import (
    ConfigError,
    SUITES,
    SuiteReport,
    _ALL_N,
    _C_SIGMAS,
    _DOMAIN_PGT,
    _HALF_WIDTH,
    _MULTIPLIER_TRIPLES,
    _SCHUR_P_BETA,
    _XCHECK_SIGMAS,
    _band_constant,
    _shrinking_case,
    _stable,
    _sup,
    generate_test_family,
    run_suite,
)


def _strict_json(path):
    """The JSON file at ``path``, read by a parser that rejects NaN and Infinity."""
    def reject(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestTestFamilies:
    def test_deterministic(self):
        g = Grid(40.0, 1024, FULL_LINE)
        a = generate_test_family(g, 7, 5)
        b = generate_test_family(g, 7, 5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_different_seeds_differ(self):
        g = Grid(40.0, 1024, FULL_LINE)
        a = generate_test_family(g, 7, 1)[0]
        b = generate_test_family(g, 8, 1)[0]
        assert not np.array_equal(a.values, b.values)

    def test_smooth_compact_support_control(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for f in generate_test_family(g, 9, 10):
            mags = f.fiber_norms()
            n = g.n_points
            assert np.max(mags[: int(0.05 * n)]) < 1e-12
            assert np.max(mags[int(0.95 * n):]) < 1e-12

    def test_zero_trace_family(self):
        g = Grid(40.0, 4096, FULL_LINE)
        for f in generate_test_family(g, 10, 5, "zero-trace-k", trace_order=2):
            assert np.max(np.abs(trace(f, 2).entries)) < 1e-8

    def test_boundary_touching_has_origin_mass(self):
        g = Grid(40.0, 1024, FULL_LINE)
        fam = generate_test_family(g, 11, 5, "boundary-touching")
        assert any(abs(f.values[g.zero_index, 0]) > 1e-3 for f in fam)

    def test_fiber_dimension(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = generate_test_family(g, 12, 1, fiber_dim=3)[0]
        assert f.fiber_dim == 3

    def test_unknown_kind_rejected(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(ValueError, match="'typo'") as info:
            generate_test_family(g, 1, 2, kind="typo")
        assert all(kind in str(info.value)
                   for kind in ("smooth-compact", "zero-trace-k", "boundary-touching"))

    def test_count_validated(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(ValueError):
            generate_test_family(g, 1, 0)

    @pytest.mark.parametrize("grid, kind, options", [
        (Grid(40.0, 512, FULL_LINE), "smooth-compact", {"fiber_dim": 2}),
        (Grid(40.0, 512, HALF_LINE), "smooth-compact", {"support": (0.2, 0.7)}),
        (Grid(40.0, 512, FULL_LINE), "boundary-touching", {}),
        (Grid(40.0, 1024, FULL_LINE), "zero-trace-k", {"trace_order": 1}),
    ])
    def test_members_match_the_per_member_construction(self, grid, kind, options):
        # the windows depend on grid, kind and support only; building them
        # once per family gives the bits of building them for every member
        family = generate_test_family(grid, 5, 3, kind, **options)
        for f, ref in zip(family, _per_member_family(grid, 5, 3, kind, **options)):
            assert np.array_equal(f.values, ref)

    @pytest.mark.parametrize("fiber_dim", [1, 3])
    @pytest.mark.parametrize("grid_kind", [FULL_LINE, HALF_LINE])
    @pytest.mark.parametrize("kind", ["smooth-compact", "zero-trace-k", "boundary-touching"])
    def test_window_values_equal_the_full_grid_formula(self, kind, grid_kind, fiber_dim):
        # the bumps are evaluated where the master window is non-zero only;
        # the full-grid formula wrote -0.0 outside it where the generator
        # writes +0.0, and every value is equal
        grid = Grid(40.0, 1024, grid_kind)
        options = {"trace_order": 1, "fiber_dim": fiber_dim}
        family = generate_test_family(grid, 21, 4, kind, **options)
        reference = _per_member_family(grid, 21, 4, kind, **options)
        for f, ref in zip(family, reference):
            assert np.array_equal(f.values, ref)
        assert any(np.any(ref == 0.0) for ref in reference)


def _per_member_family(grid, seed, count, kind, support=None, trace_order=0, fiber_dim=1):
    """The family values, with the plateau window and the zero-trace damping
    rebuilt for every member and fiber as the generator first did."""
    rng = np.random.default_rng(seed)
    x = grid.points
    lo_dom = -grid.half_width if grid.kind == FULL_LINE else 0.0
    lo_frac, hi_frac = support or (0.1, 0.9)
    lo = lo_dom + lo_frac * (grid.half_width - lo_dom)
    hi = lo_dom + hi_frac * (grid.half_width - lo_dom)
    mid, half_len = 0.5 * (lo + hi), 0.5 * (hi - lo)
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
                damp = (x / (1.0 + x ** 2 / half_len ** 2) ** 0.5) ** (trace_order + 6)
                profile = profile * damp
            master = plateau(x, mid, 0.8 * half_len, half_len)
            if kind == "boundary-touching":
                master = plateau(x, 0.0, 0.3 * grid.half_width, 0.6 * grid.half_width)
            profile *= master
            peak = np.max(np.abs(profile))
            vals[:, c] = profile / peak if peak > 0 else profile
        f = GridFunction(grid, vals)
        if kind == "zero-trace-k":
            f = halfline.project_H0(f, trace_order)
        out.append(f.values)
    return out


def _config_hash(suite, seed):
    canon = json.dumps({"seed": seed, "suite": suite}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class TestConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite("nope")

    def test_boolean_seed_rejected(self):
        # a Python caller can still pass a boolean, which is not taken as 1
        with pytest.raises(ConfigError, match="seed"):
            run_suite("c-sigma", seed=True)

    @pytest.mark.parametrize("seed", [-1, 1.5, "42", None])
    def test_bad_seed_rejected_before_the_suite_runs(self, seed, monkeypatch):
        # check_run is the one place a run's inputs are checked
        def must_not_run(seed, report):
            raise AssertionError("the suite ran on a bad seed")

        monkeypatch.setitem(SUITES, "c-sigma", must_not_run)
        with pytest.raises(ConfigError, match="seed"):
            run_suite("c-sigma", seed)

    def test_multiplier_triples_run(self):
        # the ladder is pinned; the cases are keyed by the pinned triples
        report = run_suite("pointwise-multiplier")
        assert [row["N"] for row in report.refinement] == list(_ALL_N)
        assert report.cases[0]["params"]["s"] == _MULTIPLIER_TRIPLES[0][0]

    def test_hash_deterministic(self, tmp_path):
        a = run_suite("c-sigma").config_hash
        assert a == run_suite("c-sigma").config_hash == _config_hash("c-sigma", 42)
        assert run_suite("c-sigma", 1).config_hash == _config_hash("c-sigma", 1) != a
        # the report's location is not part of the computation
        assert (run_suite("c-sigma", out_dir=str(tmp_path / "a")).config_hash
                == run_suite("c-sigma", out_dir=str(tmp_path / "b")).config_hash == a)


class TestReports:
    def test_run_writes_reports(self, tmp_path):
        report = run_suite("c-sigma", out_dir=str(tmp_path))
        assert report.passed
        rec = json.loads((tmp_path / "c-sigma.json").read_text())
        assert set(rec) == {"suite", "config_hash", "cases", "refinement",
                            "runtime_s", "warnings"}
        for case in rec["cases"]:
            assert set(case) == {"params", "value", "reference", "tol", "pass", "measured"}
        lines = (tmp_path / "c-sigma_refinement.csv").read_text().strip().splitlines()
        assert lines[0] == "N,value,stability_ratio"
        assert len(lines) >= 4  # header + three refinement levels
        assert (tmp_path / "c-sigma.csv").exists()

    def test_csv_rows_parse_back(self, tmp_path):
        report = SuiteReport("demo", "0" * 16)
        params = {"what": "a, \"quoted\" case", "p": 2.0}
        report.add_case(params, 1.0, 1.0, 1e-3, measured={"values": [1.0, 2.5]})
        report.add_case({"theta": 0.5}, 2.0, 1.0, 1e-3)
        report.add_refinement((1024, 2048, 4096), (1.0, 0.5, 0.25))
        report.write(tmp_path)
        with open(tmp_path / "demo.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["params", "value", "reference", "tol", "pass", "measured"]
        assert [len(r) for r in rows] == [6, 6, 6]
        assert json.loads(rows[1][0]) == params
        assert json.loads(rows[1][5]) == {"values": [1.0, 2.5]}
        assert json.loads(rows[2][5]) == {}
        assert rows[1][4] == "True" and rows[2][4] == "False"
        with open(tmp_path / "demo_refinement.csv", newline="") as fh:
            ref_rows = list(csv.reader(fh))
        assert ref_rows[0] == ["N", "value", "stability_ratio"]
        assert [len(r) for r in ref_rows] == [3, 3, 3, 3]
        assert float(ref_rows[-1][2]) == 0.5

    def test_runtime_warnings_counted_not_printed(self, tmp_path, monkeypatch):
        def warning_suite(seed, report):
            for _ in range(3):
                warnings.warn("demo periodization", RuntimeWarning)
            with np.errstate(divide="warn"):
                np.log(np.zeros(2))
            warnings.warn("demo user warning", UserWarning)
            report.add_case({"what": "ran"}, 0.0, 0.0, 0.0)

        monkeypatch.setitem(SUITES, "warning-demo", warning_suite)
        with warnings.catch_warnings(record=True) as outer:
            warnings.simplefilter("always")
            report = run_suite("warning-demo", out_dir=str(tmp_path))
        expected = {"demo periodization": 3, "divide by zero encountered in log": 1}
        assert report.warnings == expected
        assert json.loads((tmp_path / "warning-demo.json").read_text())["warnings"] == expected
        assert [str(w.message) for w in outer] == ["demo user warning"]
        header = (tmp_path / "warning-demo.csv").read_text().splitlines()[0]
        assert header == "params,value,reference,tol,pass,measured"

    def test_non_finite_floats_written_as_strings(self, tmp_path):
        # RFC 8259 has no NaN or Infinity token; the report holds the strings
        # in memory too, so the file reads back as the same report
        report = SuiteReport("demo", "0" * 16)
        report.add_case({"what": "nan"}, math.nan, math.inf, math.inf,
                        measured={"values": [1.0, -math.inf], "ratio": math.nan})
        report.add_refinement((1, 2, 3), (1.0, 2.0, math.inf))
        # only a ladder's first row has no ratio; one after an exact zero is
        # infinite, or NaN for 0 / 0
        report.add_refinement((1, 2, 3), (0.0, 1.0, math.inf))
        report.add_refinement((1, 2, 3), (0.0, 0.0, 1.0))
        report.write(tmp_path)
        case = report.cases[0]
        assert (case["value"], case["reference"], case["tol"]) == ("NaN", "Infinity", "Infinity")
        assert case["measured"] == {"values": [1.0, "-Infinity"], "ratio": "NaN"}
        assert [row["value"] for row in report.refinement] == [
            1.0, 2.0, "Infinity", 0.0, 1.0, "Infinity", 0.0, 0.0, 1.0]
        assert [row["stability_ratio"] for row in report.refinement] == [
            None, 2.0, "Infinity", None, "Infinity", "Infinity", None, "NaN", "Infinity"]
        assert _strict_json(tmp_path / "demo.json") == asdict(report)

    @pytest.mark.parametrize("value", [complex(math.nan, 1.0), np.complex128(1.0)])
    def test_complex_value_rejected(self, value):
        # a report holds real numbers; dropping an imaginary part would hide it
        report = SuiteReport("demo", "0" * 16)
        with pytest.raises(TypeError, match="complex value"):
            report.add_case({"what": "complex"}, 0.0, 0.0, 0.0, measured={"ratio": value})
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            report.add_case({"what": "complex"}, value, 0.0, 0.0)

    def test_a_float_past_jsonable_raises_instead_of_writing_a_bad_token(self, tmp_path):
        report = SuiteReport("demo", "0" * 16, runtime_s=math.nan)
        with pytest.raises(ValueError, match="JSON compliant"):
            report.write(tmp_path)

    def test_every_registered_suite_exists(self):
        assert len(SUITES) == 11


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c-sigma" in out and "fractional-domains" in out

    def test_unknown_suite_exit_code(self, capsys):
        assert cli.main(["run", "definitely-not-a-suite"]) == 2

    def test_run_single_suite(self, capsys):
        assert cli.main(["run", "c-sigma"]) == 0
        assert "[PASS] c-sigma" in capsys.readouterr().out

    def test_flags_set_every_run_input(self, tmp_path, capsys):
        rc = cli.main(["run", "pointwise-multiplier", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "pointwise-multiplier.json").read_text())
        assert rec["config_hash"] == _config_hash("pointwise-multiplier", 7)
        assert [row["N"] for row in rec["refinement"]] == list(_ALL_N)

    def test_run_flags_are_the_run_inputs(self):
        # no flag sets a tolerance, a sweep, the domain or the grid sizes:
        # each suite pins them
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {opt for action in sub.choices["run"]._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "--seed", "--out"}

    def test_apply_round_trip(self, tmp_path):
        g = Grid(20.0, 256, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        src = tmp_path / "f.csv"
        dst = tmp_path / "g.csv"
        f.to_csv(src)
        rc = cli.main(["apply", "bessel-potential", "--in", str(src),
                       "--out", str(dst), "--params", json.dumps({"s": -1.0})])
        assert rc == 0
        out = GridFunction.from_csv(dst)
        assert out.grid == g
        # smoothing shrinks the L^inf peak
        assert np.max(np.abs(out.values)) < np.max(np.abs(f.values))

    def test_apply_bad_key_names_the_keys_the_operator_reads(self, tmp_path, capsys):
        src = tmp_path / "h.csv"
        g = Grid(20.0, 256, HALF_LINE)
        GridFunction(g, g.points * np.exp(-g.points)).to_csv(src)
        rc = cli.main(["apply", "fractional-power", "--in", str(src),
                       "--out", str(tmp_path / "o.csv"), "--params", '{"thta": 0.5}'])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fractional-power" in err and "thta" in err
        assert "takes --params (theta, variant='dirichlet-derivative')" in err

    @pytest.mark.parametrize("order", [2, 2.0])
    def test_apply_integral_order(self, tmp_path, order):
        src = _full_line_csv(tmp_path)
        dst = tmp_path / "o.csv"
        rc = cli.main(["apply", "derivative", "--in", src, "--out", str(dst),
                       "--params", json.dumps({"order": order})])
        assert rc == 0
        f = GridFunction.from_csv(src)
        expected = fourier.spectral_derivative(f, 2).values
        assert np.array_equal(GridFunction.from_csv(dst).values, expected)

    def test_apply_bad_params_exit_code(self, tmp_path, capsys):
        g = Grid(20.0, 256, FULL_LINE)
        src = tmp_path / "f.csv"
        GridFunction(g, np.exp(-g.points ** 2)).to_csv(src)
        rc = cli.main(["apply", "riemann-liouville", "--in", str(src),
                       "--out", str(tmp_path / "o.csv"), "--params", "{"])
        assert rc == 2
        rc = cli.main(["apply", "riemann-liouville", "--in", str(src),
                       "--out", str(tmp_path / "o.csv"),
                       "--params", json.dumps({"theta": 0.5})])
        assert rc == 2  # full-line input is invalid for this operator


def _csv_rows(tmp_path, nodes):
    path = tmp_path / "f.csv"
    rows = ["x,re_0,im_0"] + [f"{float(x)!r},1.0,0.0" for x in nodes]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _half_line_csv(tmp_path):
    path = tmp_path / "h.csv"
    g = Grid(20.0, 256, HALF_LINE)
    GridFunction(g, g.points * np.exp(-g.points)).to_csv(path)
    return str(path)


def _text_file(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    return str(path)


def _full_line_csv(tmp_path):
    path = tmp_path / "g.csv"
    g = Grid(20.0, 256, FULL_LINE)
    GridFunction(g, np.exp(-g.points ** 2)).to_csv(path)
    return str(path)


BAD_INPUTS = {
    "in-missing": lambda tmp: ["apply", "bessel-potential", "--in", str(tmp / "none.csv"),
                               "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
    "csv-one-row": lambda tmp: ["apply", "bessel-potential", "--in", _csv_rows(tmp, [0.0]),
                                "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
    "csv-not-power-of-two": lambda tmp: ["apply", "bessel-potential",
                                         "--in", _csv_rows(tmp, 0.04 * np.arange(1000)),
                                         "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
    # uniform nodes that are not those of any grid: -1 .. 14 is not
    # Grid(1.0, 16).points (spacing 0.125), and a half line starts at 0
    "csv-nodes-not-symmetric": lambda tmp: [
        "apply", "bessel-potential", "--in", _csv_rows(tmp, np.arange(-1.0, 15.0)),
        "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
    "csv-nodes-not-from-zero": lambda tmp: [
        "apply", "hardy-hilbert", "--in", _csv_rows(tmp, np.arange(5.0, 21.0)),
        "--out", str(tmp / "o.csv")],
    "param-null": lambda tmp: ["apply", "riemann-liouville", "--in", _half_line_csv(tmp),
                               "--out", str(tmp / "o.csv"), "--params", '{"theta": null}'],
    "param-unknown": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                  "--out", str(tmp / "o.csv"), "--params", '{"mm": 3}'],
    "params-not-object": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                      "--out", str(tmp / "o.csv"), "--params", '"m"'],
    "csv-empty": lambda tmp: ["apply", "zero-extend", "--in", _text_file(tmp, ""),
                              "--out", str(tmp / "o.csv")],
    "csv-header-only": lambda tmp: ["apply", "zero-extend",
                                    "--in", _text_file(tmp, "x,re_0,im_0\r\n"),
                                    "--out", str(tmp / "o.csv")],
    "csv-ragged": lambda tmp: ["apply", "zero-extend",
                               "--in", _text_file(tmp, "x,re_0,im_0\n0,1,0\n1,1\n2,1,0\n"),
                               "--out", str(tmp / "o.csv")],
    "param-missing": lambda tmp: ["apply", "bessel-potential", "--in", _full_line_csv(tmp),
                                  "--out", str(tmp / "o.csv"), "--params", "{}"],
    "param-is-the-input": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                       "--out", str(tmp / "o.csv"), "--params", '{"f": 1}'],
    # the operator 1/(x + y) does not depend on a weight
    "param-hardy-weight": lambda tmp: ["apply", "hardy-hilbert", "--in", _half_line_csv(tmp),
                                       "--out", str(tmp / "o.csv"),
                                       "--params", '{"p": 2.0, "gamma": 0.5}'],
    # nor do the resolvent and the fractional power of d/dt
    "param-resolvent-weight": lambda tmp: ["apply", "resolvent", "--in", _half_line_csv(tmp),
                                           "--out", str(tmp / "o.csv"),
                                           "--params", '{"p": 3, "gamma": 1.5}'],
    "param-fractional-power-weight": lambda tmp: [
        "apply", "fractional-power", "--in", _half_line_csv(tmp), "--out", str(tmp / "o.csv"),
        "--params", '{"theta": 0.5, "p": 3, "gamma": 1.5}'],
    # integer parameters: no truncation of a fraction, no boolean as 0 or 1
    "param-order-fractional": lambda tmp: ["apply", "derivative", "--in", _full_line_csv(tmp),
                                           "--out", str(tmp / "o.csv"),
                                           "--params", '{"order": 1.5}'],
    "param-order-boolean": lambda tmp: ["apply", "derivative", "--in", _full_line_csv(tmp),
                                        "--out", str(tmp / "o.csv"),
                                        "--params", '{"order": true}'],
    "param-order-string": lambda tmp: ["apply", "derivative", "--in", _full_line_csv(tmp),
                                       "--out", str(tmp / "o.csv"),
                                       "--params", '{"order": "2"}'],
    "param-theta-string": lambda tmp: ["apply", "fractional-power", "--in", _half_line_csv(tmp),
                                       "--out", str(tmp / "o.csv"),
                                       "--params", '{"theta": "0.5"}'],
    "param-m-fractional": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                       "--out", str(tmp / "o.csv"), "--params", '{"m": 1.5}'],
    "param-k-boolean": lambda tmp: ["apply", "project-h0", "--in", _half_line_csv(tmp),
                                    "--out", str(tmp / "o.csv"), "--params", '{"k": true}'],
    "param-scale-fractional": lambda tmp: ["apply", "mollify", "--in", _full_line_csv(tmp),
                                           "--out", str(tmp / "o.csv"),
                                           "--params", '{"scale": 1.5}'],
    "seed-negative": lambda tmp: ["run", "traces", "--seed", "-1"],
    # no suite of "all" runs before the seed is checked (stdout stays empty)
    "seed-negative-all": lambda tmp: ["run", "all", "--seed", "-1"],
    "seed-not-integer": lambda tmp: ["run", "c-sigma", "--seed", "abc"],
    "seed-fractional": lambda tmp: ["run", "c-sigma", "--seed", "1.5"],
    # every suite's domain and grid sizes are pinned, and flags are the one
    # input path
    "half-width-removed": lambda tmp: ["run", "c-sigma", "--half-width", "40"],
    "n-removed": lambda tmp: ["run", "c-sigma", "--n", "1024,2048,4096"],
    "config-removed": lambda tmp: ["run", "c-sigma", "--config", "c.json"],
}


@pytest.mark.parametrize("make_argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_line(make_argv, tmp_path, capsys):
    # exit 1 means "a tolerance failed", so no bad input may end there
    assert cli.main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fracspace ")
    assert not (tmp_path / "o.csv").exists()


def test_no_command_exits_2_with_one_line(capsys):
    # a missing sub-command is a usage error like the others, not a help page
    assert cli.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fracspace")


class TestPinnedTables:
    """Each suite's parameter table lies inside the ranges the paper fixes;
    one test per entry, so a failure names the entry."""

    @pytest.mark.parametrize("s, p, gamma", _MULTIPLIER_TRIPLES)
    def test_multiplier_triple(self, s, p, gamma):
        # (1 + gamma)/p - 1 < s < (1 + gamma)/p, and a positive s away from
        # every trace-critical value k + (1 + gamma)/p
        PowerWeight(gamma).check_admissible(p)
        base = (1.0 + gamma) / p
        assert base - 1.0 < s < base
        if s > 0:
            assert min(abs(s - (k + base)) for k in range(math.ceil(s) + 2)) >= 0.05

    @pytest.mark.parametrize("p, beta", _SCHUR_P_BETA)
    def test_schur_exponents(self, p, beta):
        kernels.check_schur_exponents(p, beta)

    @pytest.mark.parametrize("p, gamma, theta", _DOMAIN_PGT)
    def test_domain_triple(self, p, gamma, theta):
        # theta is an operator order: no trace-line rule applies to it
        PowerWeight(gamma).check_admissible(p)
        opcalc.check_domain_theta(theta)

    @pytest.mark.parametrize("sigma", _XCHECK_SIGMAS)
    def test_xcheck_sigma(self, sigma):
        singular.check_sigma(sigma)

    @pytest.mark.parametrize("sigma", _C_SIGMAS)
    def test_c_sigma(self, sigma):
        singular.check_sigma(sigma)


class TestStabilityHelpers:
    def test_stable_rejects_nan(self):
        # max and min skip a NaN in the middle, so the spread alone looked fine
        assert not _stable([1.0, math.nan, 1.05], 0.1)
        assert not _stable([math.nan, 1.0, 1.05], 0.1)
        assert not _stable([1.0, math.inf], 0.1)
        assert _stable([1.0, 1.05], 0.1)

    def test_sup_propagates_nan(self):
        # max(0.0, nan) is 0.0 and max(nan, 1.0) is nan: the position decided
        assert math.isnan(_sup([1.0, math.nan, 0.5]))
        assert math.isnan(_sup([math.nan, 1.0]))
        assert _sup([0.5, 2.0, 1.0]) == 2.0

    def test_band_constant_infinite_on_non_finite_ratio(self):
        assert _band_constant([1.0, math.nan, 4.0]) == math.inf
        assert _band_constant([1.0, math.inf]) == math.inf
        assert _band_constant([1.0, 4.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("values, passed", [
        ([3.0, 2.0, 1.0], True),
        ([3.0, 2.0, 2.0], False),  # equal is not smaller
        ([3.0, 1.0, 2.0], False),
        ([3.0, math.nan, 1.0], False),
        ([math.inf, 2.0, 1.0], False),
    ])
    def test_shrinking_case(self, values, passed):
        report = SuiteReport("demo", "0" * 16)
        _shrinking_case(report, {"what": "demo"}, values)
        case = report.cases[0]
        assert case["pass"] is passed
        assert (case["value"], case["reference"], case["tol"]) == (
            values[-1], "Infinity" if values[0] == math.inf else values[0], 0.0)
        assert case["params"] == {"what": "demo"}


class TestRefinementLadders:
    def test_nan_family_member_fails_the_hardy_case(self, monkeypatch):
        # one member after the first gives NaN; a sup folded with max() from
        # 0.0 dropped it and the case passed
        calls = []
        original = halfline.hardy_embedding_check

        def nan_for_second_member(f, s, p, gamma):
            calls.append(None)
            return math.nan if len(calls) % 50 == 2 else original(f, s, p, gamma)

        monkeypatch.setattr(halfline, "hardy_embedding_check", nan_for_second_member)
        report = run_suite("hardy-gn")
        case = next(c for c in report.cases
                    if c["params"]["what"] == "Hardy ratio sup stable")
        assert case["measured"]["values"] == ["NaN"] * 3
        assert not case["pass"]

    def test_one_multiplier_case_per_pinned_triple(self):
        report = run_suite("pointwise-multiplier")
        cases = [c for c in report.cases
                 if c["params"]["what"] == "indicator norm-ratio sup stable"]
        assert [(c["params"]["s"], c["params"]["p"], c["params"]["gamma"])
                for c in cases] == list(_MULTIPLIER_TRIPLES)
        assert all(len(c["measured"]["values"]) == 3 for c in cases)
        # the refinement rows are the first triple's sups
        assert [row["N"] for row in report.refinement] == list(_ALL_N)
        assert [row["value"] for row in report.refinement] == cases[0]["measured"]["values"]

    def test_theta_limit_gaps_shrink_toward_the_theta_one_band(self):
        report = run_suite("fractional-domains")
        shrinks, within = [c for c in report.cases
                           if c["params"]["what"].startswith("theta -> 1")]
        gaps = shrinks["measured"]["values"]
        assert shrinks["params"] == {"thetas": [0.9, 0.95, 0.99],
                                     "what": "theta -> 1 band gap to the theta=1 band shrinks"}
        # three distinct bands against the theta = 1 band, not one number twice
        assert 0.0 < gaps[2] < gaps[1] < gaps[0] and shrinks["value"] == gaps[2]
        assert shrinks["reference"] == gaps[0] and shrinks["pass"]
        assert within["params"]["what"] == "theta -> 1 band gap within 1e-2"
        assert (within["value"], within["reference"], within["tol"]) == (gaps[2], 0.0, 1e-2)
        assert within["measured"]["theta1_band"] > 1.0 and within["pass"]

    def test_domain_refinement_rows_come_from_the_first_entry(self):
        report = run_suite("fractional-domains")
        case = next(c for c in report.cases
                    if c["params"]["what"] == "domain-norm band constant stable")
        assert [row["N"] for row in report.refinement] == list(_ALL_N)
        assert [row["value"] for row in report.refinement] == case["measured"]["values"]

    def test_c_sigma_refines_over_split_points_it_takes_as_given(self):
        # symbol_integral clamps a split above 1/xi to 1/xi, so at xi = 1 a
        # split of 2.0 repeated the row of 1.0; each row's level is its split
        report = run_suite("c-sigma")
        assert [row["N"] for row in report.refinement] == [0.25, 0.5, 1.0]
        assert [row["value"] for row in report.refinement] == [
            1.0 / singular.symbol_integral(1.0, 0.5, split=split) for split in (0.25, 0.5, 1.0)]

    @pytest.mark.parametrize("seed", [5, 10])
    def test_hardy_dilation_sups_invariant_against_the_homogeneous_norm(self, seed):
        # against the Bessel norm the sups at dilations 1, 2, 4 rose by 46%
        # (seed 5: 0.800, 0.995, 1.172) and the case failed; against
        # || |D|^0.4 f || they agree within the ladder's stability band
        report = run_suite("hardy-gn", seed)
        case = next(c for c in report.cases
                    if c["params"]["what"] == "Hardy sup bounded under dilation")
        values = case["measured"]["values"]
        assert len(values) == 3 and case["pass"]
        assert case["tol"] == 0.10


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Every suite at seeds 1 and 2: seed -> (reports, report dir)."""
    runs = {}
    for seed in (1, 2):
        out = tmp_path_factory.mktemp(f"reports-seed{seed}")
        runs[seed] = ([run_suite(name, seed, str(out)) for name in SUITES], out)
    return runs


def test_case_params_do_not_depend_on_the_seed(small_runs):
    # params hold only inputs, so they key a case across seeds and revisions;
    # every measured number is in "measured"
    (one, _), (two, _) = small_runs[1], small_runs[2]
    assert ([[c["params"] for c in report.cases] for report in one]
            == [[c["params"] for c in report.cases] for report in two])


# the refinement studies that are not grid-size ladders, with their levels
_OTHER_LEVELS = {"c-sigma": [0.25, 0.5, 1.0], "bessel-kernel": [100, 200, 400]}


def test_every_grid_size_ladder_walks_the_pinned_sizes(small_runs):
    # the gates are set for _ALL_N, and no run input rescales a ladder
    reports, _ = small_runs[1]
    for report in reports:
        levels = [row["N"] for row in report.refinement]
        assert levels == _OTHER_LEVELS.get(report.suite, list(_ALL_N)), report.suite


def test_written_reports_are_strict_json_and_match_the_report(small_runs):
    # schur-constants holds an infinite reference (the gamma = 1 Schur bound)
    for reports, out in small_runs.values():
        for report in reports:
            assert _strict_json(out / f"{report.suite}.json") == asdict(report)


def test_contraction_case_reads_the_real_axis_of_the_probe_ladder(small_runs):
    # one phi = 0 upper bracket end per grid of the sector-probe ladder; the
    # case's value is the largest of them
    reports, _ = small_runs[1]
    report = next(r for r in reports if r.suite == "resolvent-sectoriality")
    case = next(c for c in report.cases
                if c["params"]["what"] == "real-lambda norm <= 1 (p=2, gamma=0)")
    op = opcalc.HalfLineOperator(opcalc.DIRICHLET)
    angle = 3.0 * math.pi / 4.0 - 0.1
    radii = [4.0 ** k for k in range(-5, 6)]
    ends = []
    for n in _ALL_N:
        probe = opcalc.sectoriality_probe(op, Grid(40.0, n, HALF_LINE), [angle], radii)[0]
        real = [e for e in probe.entries if e["im_lambda"] == 0.0]
        assert len(real) == len(radii) and all(e["certified"] for e in real)
        ends.append(max(e["bracket"][1] for e in real))
    assert case["measured"]["values"] == ends
    assert case["value"] == max(ends) and case["pass"]


_RESIDUALS = ("dirichlet ODE residual (20 random)", "minus ODE residual (20 random)")


def test_a_scaled_resolvent_fails_the_ode_residuals_and_no_probe_case(monkeypatch):
    # the sector pencil is built from the taps, not from opcalc.resolvent
    original = opcalc.resolvent

    def scaled(op, lam, f):
        u = original(op, lam, f)
        return GridFunction(u.grid, (1 + 1e-3) * u.values)

    monkeypatch.setattr(opcalc, "resolvent", scaled)
    report = run_suite("resolvent-sectoriality")
    verdicts = {c["params"]["what"]: c["pass"] for c in report.cases}
    assert [verdicts[what] for what in _RESIDUALS] == [False, False]
    probes = [passed for what, passed in verdicts.items() if "sector-probe" in what]
    assert len(probes) == 4 and all(probes)


def test_ode_residuals_match_the_spectral_derivative_instrument():
    # an independent instrument: extend u to the full line (zero extension
    # for the Dirichlet variant, the order-2 reflection for the minus one,
    # whose A is -d/dt), differentiate spectrally on 2^17 nodes, restrict
    seed = 42
    values = {c["params"]["what"]: c["value"]
              for c in run_suite("resolvent-sectoriality", seed).cases}
    fam = generate_test_family(Grid(_HALF_WIDTH, 2 ** 16, HALF_LINE), seed, 20,
                               support=(0.05, 0.45))
    rng = np.random.default_rng(seed + 1)
    lams = [complex(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in fam]
    coeffs = halfline.solve_reflection_coefficients(2)
    w0 = PowerWeight(0.0)
    instruments = ((opcalc.DIRICHLET, halfline.zero_extend, 1.0),
                   (opcalc.MINUS, lambda u: halfline.reflect_extend(u, coeffs), -1.0))
    for what, (variant, extend, sign) in zip(_RESIDUALS, instruments):
        op = opcalc.HalfLineOperator(variant)
        residuals = []
        for f, lam in zip(fam, lams):
            u = opcalc.resolvent(op, lam, f)
            du = halfline.restrict_plus(fourier.spectral_derivative(extend(u)))
            residuals.append(weighted_lp_norm(sign * du + lam * u - f, 2.0, w0)
                             / weighted_lp_norm(f, 2.0, w0))
        assert values[what] == pytest.approx(max(residuals), rel=1e-6)
