import csv
import inspect
import json
import math
import re

import numpy as np
import pytest

from fracspace.grid import FULL_LINE, Grid, GridFunction, HALF_LINE
from fracspace import cli
from fracspace.halfline import trace
from fracspace.harness import (
    ConfigError,
    SUITE_KEYS,
    SUITES,
    SuiteConfig,
    SuiteReport,
    _band_constant,
    _stable,
    generate_test_family,
    run_suite,
)


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

    def test_count_validated(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(ValueError):
            generate_test_family(g, 1, 0)


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

    def test_unread_sweep_and_tolerance_keys_rejected(self):
        for sweeps, tolerances in (({}, {"oracel": 1e-6}), ({"p": (2.0,)}, {}),
                                   ({"spg": [(0.3, 2.0, 0.0)]}, {})):
            cfg = SuiteConfig(suite="c-sigma", sweeps=sweeps, tolerances=tolerances)
            with pytest.raises(ConfigError, match="reads no"):
                cfg.validate()
        SuiteConfig(suite="c-sigma", sweeps={"sigma": (0.5,)},
                    tolerances={"oracle": 1e-6}).validate()

    def test_suite_keys_are_the_keys_each_suite_reads(self):
        for name, suite in SUITES.items():
            source = inspect.getsource(suite)
            read = tuple(set(re.findall(rf'cfg\.{kind}\.get\("(\w+)"', source))
                         for kind in ("sweeps", "tolerances"))
            assert tuple(set(keys) for keys in SUITE_KEYS[name]) == read, name

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

    def test_hash_deterministic(self):
        a = SuiteConfig(suite="c-sigma").hash()
        b = SuiteConfig(suite="c-sigma").hash()
        assert a == b
        assert a != SuiteConfig(suite="c-sigma", seed=1).hash()


class TestReports:
    def test_run_writes_reports(self, tmp_path):
        cfg = SuiteConfig(suite="c-sigma", out_dir=str(tmp_path),
                          sweeps={"sigma": (0.5,)})
        report = run_suite(cfg)
        assert report.passed
        rec = json.loads((tmp_path / "c-sigma.json").read_text())
        assert set(rec) == {"suite", "config_hash", "cases", "refinement",
                            "runtime_s"}
        for case in rec["cases"]:
            assert set(case) == {"params", "value", "reference", "tol", "pass"}
        lines = (tmp_path / "c-sigma_refinement.csv").read_text().strip().splitlines()
        assert lines[0] == "N,value,stability_ratio"
        assert len(lines) >= 4  # header + three refinement levels
        assert (tmp_path / "c-sigma.csv").exists()

    def test_csv_rows_parse_back(self, tmp_path):
        report = SuiteReport("demo", "0" * 16)
        params = {"what": "a, \"quoted\" case", "values": [1.0, 2.5], "p": 2.0}
        report.add_case(params, 1.0, 1.0, 1e-3)
        report.add_case({"theta": 0.5}, 2.0, 1.0, 1e-3)
        for n, v in ((1024, 1.0), (2048, 0.5), (4096, 0.25)):
            report.add_refinement(n, v)
        report.write(tmp_path)
        with open(tmp_path / "demo.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["params", "value", "reference", "tol", "pass"]
        assert [len(r) for r in rows] == [5, 5, 5]
        assert json.loads(rows[1][0]) == params
        assert rows[1][4] == "True" and rows[2][4] == "False"
        with open(tmp_path / "demo_refinement.csv", newline="") as fh:
            ref_rows = list(csv.reader(fh))
        assert ref_rows[0] == ["N", "value", "stability_ratio"]
        assert [len(r) for r in ref_rows] == [3, 3, 3, 3]
        assert float(ref_rows[-1][2]) == 0.5

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

    def test_apply_keys_are_the_keys_each_operator_reads(self):
        for name, (func, keys) in cli.APPLY_OPS.items():
            read = re.findall(r'params(?:\.get\(|\[)"(\w+)"', inspect.getsource(func))
            assert set(read) == set(keys), name

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


def _csv_rows(tmp_path, n_rows):
    path = tmp_path / "f.csv"
    rows = ["x,re_0,im_0"] + [f"{0.04 * i!r},1.0,0.0" for i in range(n_rows)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _half_line_csv(tmp_path):
    path = tmp_path / "h.csv"
    g = Grid(20.0, 256, HALF_LINE)
    GridFunction(g, g.points * np.exp(-g.points)).to_csv(path)
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
    "csv-one-row": lambda tmp: ["apply", "bessel-potential", "--in", _csv_rows(tmp, 1),
                                "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
    "csv-not-power-of-two": lambda tmp: ["apply", "bessel-potential",
                                         "--in", _csv_rows(tmp, 1000),
                                         "--out", str(tmp / "o.csv"), "--params", '{"s": 1}'],
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

    def test_band_constant_infinite_on_non_finite_ratio(self):
        assert _band_constant([1.0, math.nan, 4.0]) == math.inf
        assert _band_constant([1.0, math.inf]) == math.inf
        assert _band_constant([1.0, 4.0]) == pytest.approx(2.0)
