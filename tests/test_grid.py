import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from fracspace.grid import (
    AdmissibilityError,
    FULL_LINE,
    Grid,
    GridFunction,
    GridMismatchError,
    HALF_LINE,
    PowerWeight,
    ResolutionError,
    ap_constant,
    dual_pairing,
    mollify,
    weighted_lp_norm,
)

from helpers import fiber_dims, grid_sizes, half_widths, plateau, random_function, seeds


class TestGrid:
    def test_nodes_and_spacing(self):
        g = Grid(40.0, 4096, FULL_LINE)
        assert g.h * g.n_points == pytest.approx(2 * g.half_width, abs=1e-12)
        assert g.points[g.zero_index] == 0.0
        gh = Grid(40.0, 4096, HALF_LINE)
        assert gh.points[0] == 0.0
        assert gh.h * gh.n_points == pytest.approx(40.0, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 1024)
        with pytest.raises(ValueError):
            Grid(10.0, 1000)  # not a power of two
        with pytest.raises(ValueError):
            Grid(10.0, 8)  # too small

    def test_rejects_non_finite_values(self):
        g = Grid(10.0, 64)
        vals = np.ones(64)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(g, vals)


class TestWeightedNorm:
    def test_indicator_unit_mass(self):
        # h divides 1 exactly for L = 32, N = 4096
        g = Grid(32.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.where((x >= 0) & (x < 1), 1.0, 0.0))
        assert weighted_lp_norm(f, 2.0, PowerWeight(0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_indicator_first_moment(self):
        g = Grid(4.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.where((x >= 0) & (x <= 1), 1.0, 0.0))
        v = weighted_lp_norm(f, 2.0, PowerWeight(1.0))
        assert v == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_gaussian_against_quadrature_oracle(self):
        g = Grid(20.0, 8192, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        oracle = integrate.quad(lambda t: 2 * np.exp(-2 * t ** 2) * t ** 0.5,
                                0, 20)[0] ** 0.5
        v = weighted_lp_norm(f, 2.0, PowerWeight(0.5))
        assert v == pytest.approx(oracle, abs=1e-6)

    def test_absolute_homogeneity(self):
        g = Grid(20.0, 1024, FULL_LINE)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = GridFunction(g, rng.standard_normal(1024)
                             + 1j * rng.standard_normal(1024))
            c = complex(rng.standard_normal(), rng.standard_normal())
            lhs = weighted_lp_norm(c * f, 2.5, PowerWeight(0.3))
            rhs = abs(c) * weighted_lp_norm(f, 2.5, PowerWeight(0.3))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_rejects_non_integrable_weight(self):
        g = Grid(10.0, 64)
        f = GridFunction(g, np.ones(64))
        with pytest.raises(AdmissibilityError):
            weighted_lp_norm(f, 2.0, PowerWeight(-1.5))
        with pytest.raises(AdmissibilityError):
            weighted_lp_norm(f, 0.5, PowerWeight(0.0))


class TestDualPairing:
    def test_indicator_pairing(self):
        g = Grid(32.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.where((x >= 0) & (x < 1), 1.0, 0.0))
        assert dual_pairing(f, f) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        g = Grid(np.pi, 512, FULL_LINE)
        s = GridFunction(g, np.sin(g.points))
        c = GridFunction(g, np.cos(g.points))
        assert abs(dual_pairing(s, c)) < 1e-10

    def test_hoelder_inequality(self):
        g = Grid(20.0, 2048, FULL_LINE)
        rng = np.random.default_rng(1)
        for p, gamma in ((2.0, 0.5), (3.0, -0.4), (1.5, 0.2)):
            w = PowerWeight(gamma)
            wd = w.dual(p)
            pd = p / (p - 1.0)
            for _ in range(10):
                f = GridFunction(g, rng.standard_normal(2048))
                h = GridFunction(g, rng.standard_normal(2048))
                lhs = abs(dual_pairing(f, h))
                rhs = weighted_lp_norm(f, p, w) * weighted_lp_norm(h, pd, wd)
                assert lhs <= (1 + 1e-9) * rhs

    def test_grid_mismatch(self):
        f = GridFunction(Grid(10.0, 64), np.ones(64))
        h = GridFunction(Grid(10.0, 128), np.ones(128))
        with pytest.raises(GridMismatchError):
            dual_pairing(f, h)


class TestApConstant:
    def test_unweighted_is_one(self):
        assert ap_constant(2.0, PowerWeight(0.0)) == 1.0

    def test_against_brute_force_oracle(self):
        p, gamma = 3.0, 1.0
        est = ap_constant(p, PowerWeight(gamma), search_depth=10)
        # oracle: 10^4 random intervals with geometric-mesh endpoints
        rng = np.random.default_rng(2)
        mesh = np.concatenate([-np.logspace(-3, 3, 400)[::-1], [0.0],
                               np.logspace(-3, 3, 400)])
        gd = -gamma / (p - 1.0)

        def avg(a, b, e):
            g1 = e + 1.0
            anti = lambda t: np.sign(t) * np.abs(t) ** g1 / g1
            return (anti(b) - anti(a)) / (b - a)

        best = 0.0
        for _ in range(10_000):
            a, b = sorted(rng.choice(mesh, 2, replace=False))
            if b <= a:
                continue
            best = max(best, avg(a, b, gamma) * avg(a, b, gd) ** (p - 1.0))
        assert est == pytest.approx(best, rel=5e-3)

    def test_divergence_toward_endpoint(self):
        p = 2.0
        values = [ap_constant(p, PowerWeight(p - 1.0 - 2.0 ** -j)) for j in range(1, 30, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e6

    def test_inadmissible_reports_divergence(self):
        assert ap_constant(2.0, PowerWeight(1.5)) == math.inf
        assert ap_constant(2.0, PowerWeight(-1.2)) == math.inf


class TestMollify:
    def test_reproduces_constants(self):
        g = Grid(10.0, 4096, FULL_LINE)
        f = GridFunction(g, np.ones(4096))
        out = mollify(f, 8)
        assert np.max(np.abs(out.values[1024:3072, 0] - 1.0)) < 1e-12

    def test_convergence_on_smooth_input(self):
        g = Grid(10.0, 8192, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        w = PowerWeight(0.3)
        errs = [weighted_lp_norm(mollify(f, n) - f, 2.0, w) for n in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_one_sided_profile_respects_support(self):
        # profile on (-2,-1) never looks at (0, 2/n), so functions supported
        # in [delta, inf) with n > 2/delta mollify to zero at the origin
        g = Grid(10.0, 2048, FULL_LINE)
        x = g.points
        delta = 0.5
        f = GridFunction(g, np.where(x >= delta, np.exp(-(x - 2.0) ** 2), 0.0))
        out = mollify(f, 8, "left")
        assert abs(out.values[g.zero_index, 0]) < 1e-14

    def test_mass_preservation(self):
        g = Grid(10.0, 4096, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2) * np.cos(g.points))
        out = mollify(f, 8)
        assert abs(np.sum(out.values) - np.sum(f.values)) * g.h < 1e-10

    def test_under_resolved_scale_rejected(self):
        g = Grid(40.0, 1024, FULL_LINE)  # h = 0.078
        f = GridFunction(g, np.ones(1024))
        with pytest.raises(ResolutionError):
            mollify(f, 64)


class TestCsvRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds)
    def test_full_line_round_trip(self, tmp_path_factory, half_width, n, fiber_dim, seed):
        f = random_function(Grid(half_width, n, FULL_LINE), fiber_dim, seed)
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        f.to_csv(path)
        back = GridFunction.from_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    @settings(max_examples=25, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds)
    def test_half_line_round_trip(self, tmp_path_factory, half_width, n, fiber_dim, seed):
        f = random_function(Grid(half_width, n, HALF_LINE), fiber_dim, seed)
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        f.to_csv(path)
        back = GridFunction.from_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)
