import csv
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from fracspace.grid import FULL_LINE, Grid, GridFunction, HALF_LINE, plateau
from fracspace import cli, fourier, halfline, kernels, opcalc
from fracspace.halfline import trace
from fracspace.harness import (
    ConfigError,
    SUITES,
    SuiteConfig,
    SuiteReport,
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


class TestConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            SuiteConfig(suite="nope").validate()

    def test_bad_grid_sizes_rejected(self):
        cfg = SuiteConfig(suite="c-sigma", n_list=(1000, 2000, 4000))
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = SuiteConfig(suite="c-sigma", n_list=(1024,))
        with pytest.raises(ConfigError):
            cfg.validate()
        # the suites read the last size as the finest grid
        for sizes in ((1024, 512, 256), (256, 1024, 512), (256, 512, 512, 1024)):
            with pytest.raises(ConfigError, match="ascending"):
                SuiteConfig(suite="c-sigma", n_list=sizes).validate()

    def test_inadmissible_sweep_rejected(self):
        cfg = SuiteConfig(suite="pointwise-multiplier",
                          sweeps={"spg": [(0.3, 2.0, 3.5)]})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_critical_line_guard(self):
        cfg = SuiteConfig(suite="pointwise-multiplier",
                          sweeps={"spg": [(0.5, 2.0, 0.0)]})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_pgt_default_theta_on_a_trace_line_runs(self, tmp_path, capsys):
        # theta = 0.5 at (p, gamma) = (2, 0) is the suite's own default entry;
        # theta is an operator order, so the trace-line guard does not apply
        path = _config(tmp_path, {"sweeps": {"pgt": [[2.0, 0.0, 0.5]]},
                                  "n_list": [256, 512, 1024]})
        assert cli.main(["run", "fractional-domains", "--config", path,
                         "--out", str(tmp_path)]) == 0
        assert "[PASS] fractional-domains" in capsys.readouterr().out
        with pytest.raises(ConfigError):
            SuiteConfig(suite="fractional-domains", sweeps={"pgt": [(2.0, 1.5, 0.5)]}).validate()

    def test_unread_sweep_and_tolerance_keys_rejected(self):
        for sweeps, tolerances in (({}, {"oracel": 1e-6}), ({"p": (2.0,)}, {}),
                                   ({"spg": [(0.3, 2.0, 0.0)]}, {})):
            cfg = SuiteConfig(suite="c-sigma", sweeps=sweeps, tolerances=tolerances)
            with pytest.raises(ConfigError, match="reads no"):
                cfg.validate()
        SuiteConfig(suite="c-sigma", sweeps={"sigma": (0.5,)},
                    tolerances={"oracle": 1e-6}).validate()

    def test_shared_config_keeps_the_keys_each_suite_reads(self):
        cfg = SuiteConfig(suite="traces", tolerances={"stability": 0.2, "trace": 1e-7,
                                                      "oracel": 1.0})
        assert cfg.shared().tolerances == {"trace": 1e-7, "oracel": 1.0}
        assert SuiteConfig(suite="hardy-gn", tolerances={"stability": 0.2}).shared() \
            .tolerances == {"stability": 0.2}

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"half_width": 20.0, "seed": 7,
                                    "n_list": [1024, 2048, 4096]}))
        cfg = SuiteConfig.from_json("c-sigma", path)
        assert cfg.half_width == 20.0 and cfg.seed == 7
        cfg.validate()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            SuiteConfig.from_json("c-sigma", path)

    def test_json_multiplier_triples_run(self, tmp_path):
        # JSON gives the triples as lists; the suite keys its results by them
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_list": [256, 512, 1024],
                                    "sweeps": {"spg": [[0.3, 2.0, 0.0]]}}))
        report = run_suite(SuiteConfig.from_json("pointwise-multiplier", path))
        assert [row["N"] for row in report.refinement] == [256, 512, 1024]
        assert report.cases[0]["params"]["s"] == 0.3

    def test_hash_deterministic(self):
        a = SuiteConfig(suite="c-sigma").hash()
        b = SuiteConfig(suite="c-sigma").hash()
        assert a == b
        assert a != SuiteConfig(suite="c-sigma", seed=1).hash()
        # the report's location is not part of the computation
        assert (SuiteConfig(suite="c-sigma", out_dir="a").hash()
                == SuiteConfig(suite="c-sigma", out_dir="b").hash() == a)


class TestReports:
    def test_run_writes_reports(self, tmp_path):
        cfg = SuiteConfig(suite="c-sigma", out_dir=str(tmp_path),
                          sweeps={"sigma": (0.5,)})
        report = run_suite(cfg)
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
        def warning_suite(cfg, report):
            for _ in range(3):
                warnings.warn("demo periodization", RuntimeWarning)
            with np.errstate(divide="warn"):
                np.log(np.zeros(2))
            warnings.warn("demo user warning", UserWarning)
            report.add_case({"what": "ran"}, 0.0, 0.0, 0.0)

        monkeypatch.setitem(SUITES, "warning-demo", (warning_suite, {}, {}))
        cfg = SuiteConfig(suite="warning-demo", out_dir=str(tmp_path))
        with warnings.catch_warnings(record=True) as outer:
            warnings.simplefilter("always")
            report = run_suite(cfg)
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
                        measured={"values": [1.0, -math.inf], "ratio": complex(math.nan, 1.0)})
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

    def test_a_float_past_jsonable_raises_instead_of_writing_a_bad_token(self, tmp_path):
        report = SuiteReport("demo", "0" * 16, runtime_s=math.nan)
        with pytest.raises(ValueError, match="JSON compliant"):
            report.write(tmp_path)

    def test_tolerance_override_keeps_the_other_defaults(self):
        # 1e-7 differs from both defaults (oracle 1e-8, homogeneity 1e-6)
        cfg = SuiteConfig(suite="c-sigma", sweeps={"sigma": (0.5,)},
                          tolerances={"oracle": 1e-7})
        report = run_suite(cfg)
        tols = {(c["params"]["what"], c["tol"]) for c in report.cases}
        assert tols == {("c < 0", 0.0), ("vs closed form", 1e-7),
                        ("homogeneity", SUITES["c-sigma"][2]["homogeneity"])}
        assert cfg.tolerances == {"oracle": 1e-7}
        assert report.config_hash == cfg.hash()

    def test_every_registered_suite_exists(self):
        assert len(SUITES) == 11


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c-sigma" in out and "fractional-domains" in out

    def test_unknown_suite_exit_code(self, capsys):
        assert cli.main(["run", "definitely-not-a-suite"]) == 2

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_list": [7]}))
        assert cli.main(["run", "c-sigma", "--config", str(path)]) == 2

    def test_run_single_suite(self, capsys):
        assert cli.main(["run", "c-sigma"]) == 0
        assert "[PASS] c-sigma" in capsys.readouterr().out

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


def _empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return str(path)


def _full_line_csv(tmp_path):
    path = tmp_path / "g.csv"
    g = Grid(20.0, 256, FULL_LINE)
    GridFunction(g, np.exp(-g.points ** 2)).to_csv(path)
    return str(path)


def _config(tmp_path, record):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(record))
    return str(path)


BAD_INPUTS = {
    "n-not-integer": lambda tmp: ["run", "c-sigma", "--n", "1024,abc"],
    "config-missing": lambda tmp: ["run", "c-sigma", "--config", str(tmp / "none.json")],
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
    "config-unknown-tolerance": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"tolerances": {"oracel": 1e-6}})],
    "config-unknown-tolerance-all": lambda tmp: [
        "run", "all", "--config", _config(tmp, {"tolerances": {"oracel": 1e-6}})],
    "param-unknown": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                  "--out", str(tmp / "o.csv"), "--params", '{"mm": 3}'],
    "params-not-object": lambda tmp: ["apply", "reflect-extend", "--in", _half_line_csv(tmp),
                                      "--out", str(tmp / "o.csv"), "--params", '"m"'],
    "csv-empty": lambda tmp: ["apply", "zero-extend", "--in", _empty_file(tmp),
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
    "half-width-nan": lambda tmp: ["run", "traces", "--half-width", "nan"],
    "half-width-inf": lambda tmp: ["run", "bessel-kernel", "--half-width", "inf"],
    "n-repeated": lambda tmp: ["run", "c-sigma", "--n", "1024,1024,1024"],
    # config shapes: sweep entries shaped like the defaults, tolerances >= 0
    "config-sweep-scalar": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"sweeps": {"sigma": 0.5}})],
    "config-sweep-empty": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"sweeps": {"sigma": []}})],
    "config-sweep-entry-short": lambda tmp: [
        "run", "schur-constants", "--config", _config(tmp, {"sweeps": {"p_beta": [[2.0]]}})],
    "config-tolerance-string": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"tolerances": {"oracle": "tight"}})],
    "config-tolerance-negative": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"tolerances": {"oracle": -1}})],
    # sweep entries outside the range of the operator the suite calls
    "config-sweep-sigma-above-one": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"sweeps": {"sigma": [1.5]}})],
    "config-sweep-sigma-zero": lambda tmp: [
        "run", "frac-laplacian-xcheck", "--config", _config(tmp, {"sweeps": {"sigma": [0.0]}})],
    "config-sweep-p-beta-inadmissible": lambda tmp: [
        "run", "schur-constants", "--config",
        _config(tmp, {"sweeps": {"p_beta": [[2.0, 0.7]]}})],
    # config integers: no boolean seed, no truncation of a fractional grid size
    "config-seed-boolean": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"seed": True})],
    "config-n-fractional": lambda tmp: [
        "run", "c-sigma", "--config", _config(tmp, {"n_list": [1024.7, 2048, 4096]})],
    "config-n-descending": lambda tmp: [
        "run", "frac-laplacian-xcheck", "--config", _config(tmp, {"n_list": [1024, 512, 256]})],
    # theta outside the (0, 1] that domain_norm_ratio compares
    "config-pgt-theta": lambda tmp: [
        "run", "fractional-domains", "--config",
        _config(tmp, {"sweeps": {"pgt": [[2.0, 0.0, 1.2]]}, "n_list": [256, 512, 1024]})],
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


_SMALL_N = (256, 512, 1024)


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
        report = run_suite(SuiteConfig(suite="hardy-gn", n_list=_SMALL_N))
        case = next(c for c in report.cases
                    if c["params"]["what"] == "Hardy ratio sup stable")
        assert case["measured"]["values"] == ["NaN"] * 3
        assert not case["pass"]

    def test_repeated_multiplier_entry_gives_one_case_each(self):
        report = run_suite(SuiteConfig(suite="pointwise-multiplier", n_list=_SMALL_N,
                                       sweeps={"spg": [[0.3, 2, 0], [0.3, 2, 0]]}))
        cases = [c for c in report.cases
                 if c["params"]["what"] == "indicator norm-ratio sup stable"]
        assert len(cases) == 2
        assert [len(c["measured"]["values"]) for c in cases] == [3, 3]
        assert cases[0]["measured"]["values"] == cases[1]["measured"]["values"]
        assert [row["N"] for row in report.refinement] == list(_SMALL_N)

    def test_theta_limit_gaps_shrink_toward_the_theta_one_band(self):
        report = run_suite(SuiteConfig(suite="fractional-domains", n_list=_SMALL_N,
                                       sweeps={"pgt": [[2.0, 0.5, 0.3]]}))
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
        report = run_suite(SuiteConfig(suite="fractional-domains", n_list=_SMALL_N,
                                       sweeps={"pgt": [[2.0, 0.5, 0.3]]}))
        case = next(c for c in report.cases
                    if c["params"]["what"] == "domain-norm band constant stable")
        assert [row["N"] for row in report.refinement] == list(_SMALL_N)
        assert [row["value"] for row in report.refinement] == case["measured"]["values"]

    @pytest.mark.parametrize("seed", [5, 10])
    def test_hardy_dilation_sups_invariant_against_the_homogeneous_norm(self, seed):
        # against the Bessel norm the sups at dilations 1, 2, 4 rose by 46%
        # (seed 5: 0.800, 0.995, 1.172) and the case failed; against
        # || |D|^0.4 f || they agree within the ladder's stability band
        report = run_suite(SuiteConfig(suite="hardy-gn", seed=seed))
        case = next(c for c in report.cases
                    if c["params"]["what"] == "Hardy sup bounded under dilation")
        values = case["measured"]["values"]
        assert len(values) == 3 and case["pass"]
        assert case["tol"] == 0.10


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Every suite at N in {256, 512, 1024}, seeds 1 and 2: seed -> (reports, report dir)."""
    runs = {}
    for seed in (1, 2):
        out = tmp_path_factory.mktemp(f"reports-seed{seed}")
        runs[seed] = ([run_suite(SuiteConfig(suite=name, n_list=_SMALL_N, seed=seed,
                                             out_dir=str(out))) for name in SUITES], out)
    return runs


def test_case_params_do_not_depend_on_the_seed(small_runs):
    # params hold only inputs, so they key a case across seeds and revisions;
    # every measured number is in "measured"
    (one, _), (two, _) = small_runs[1], small_runs[2]
    assert ([[c["params"] for c in report.cases] for report in one]
            == [[c["params"] for c in report.cases] for report in two])


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
    for n in _SMALL_N:
        probe = opcalc.sectoriality_probe(op, Grid(40.0, n, HALF_LINE), [angle], radii)[0]
        real = [e for e in probe.entries if e["im_lambda"] == 0.0]
        assert len(real) == len(radii) and all(e["certified"] for e in real)
        ends.append(max(e["bracket"][1] for e in real))
    assert case["measured"]["values"] == ends
    assert case["value"] == max(ends) and case["pass"]


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_envelope_cases_hold_the_kernel_sups(small_runs, s):
    # one case per envelope regime, judged by _stable_case: the two mesh sups
    # are the measurement, the finer one the value
    reports, _ = small_runs[1]
    report = next(r for r in reports if r.suite == "bessel-kernel")
    sups = kernels.kernel_bound_check(s)
    cases = [c for c in report.cases
             if c["params"].get("s") == s and "regime" in c["params"]]
    assert [c["params"]["regime"] for c in cases] == list(sups)
    for case in cases:
        values = sups[case["params"]["regime"]]
        assert case["measured"] == {"values": values}
        assert (case["value"], case["reference"], case["tol"]) == (values[-1], values[0], 0.05)
        assert case["pass"]


def test_drifting_envelope_sups_fail_their_case(monkeypatch):
    # the 5% stability rule is the harness's: a pair of sups that moves by more,
    # or holds a NaN, fails its regime's case and no other
    def fake(s):
        return {"exponential-tail": [1.0, 1.06], "near-origin": [1.0, math.nan]}

    monkeypatch.setattr(kernels, "kernel_bound_check", fake)
    report = run_suite(SuiteConfig(suite="bessel-kernel", n_list=_SMALL_N))
    verdicts = {(c["params"]["s"], c["params"]["regime"]): c["pass"]
                for c in report.cases if "regime" in c["params"]}
    assert verdicts == {(s, regime): False for s in (0.5, 1.0, 2.0)
                        for regime in ("exponential-tail", "near-origin")}
    assert not report.passed
