import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fracspace import fourier, halfline, kernels, opcalc, singular
from fracspace import grid as grid_module
from fracspace.grid import (
    AdmissibilityError,
    FULL_LINE,
    Grid,
    GridFunction,
    GridMismatchError,
    HALF_LINE,
    PowerWeight,
    ResolutionError,
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


class TestSampleDtype:
    @pytest.mark.parametrize("values, dtype", [
        (np.arange(64), np.float64),
        (np.arange(64) > 3, np.float64),
        (np.ones(64, dtype=np.float32), np.float64),
        (np.ones(64), np.float64),
        (np.ones(64, dtype=np.complex64), np.complex128),
        (np.ones(64) + 0j, np.complex128),
    ], ids=["int", "bool", "float32", "float64", "complex64", "complex128"])
    def test_real_input_stays_real(self, values, dtype):
        f = GridFunction(Grid(10.0, 64), values)
        assert f.values.dtype == dtype and f.values.shape == (64, 1)
        assert np.array_equal(f.values[:, 0], values)

    def test_arithmetic_with_complex_promotes(self):
        g = Grid(10.0, 64)
        f = GridFunction(g, np.arange(64.0))
        z = GridFunction(g, 1j * np.arange(64.0))
        assert (2.0 * f).values.dtype == (f - f).values.dtype == np.float64
        assert (f * 1j).values.dtype == (1j * f).values.dtype == np.complex128
        assert (f + z).values.dtype == np.complex128
        assert np.array_equal((f * (1 + 2j)).values, f.values * (1 + 2j))


class TestCachedTables:
    """cell_weights come from a bounded cache of read-only arrays; the
    frequencies are built per call (``fourier`` keeps the symbol tables)."""

    @pytest.mark.parametrize("kind", [FULL_LINE, HALF_LINE])
    @pytest.mark.parametrize("gamma", [0.0, -0.5, 0.3, 1.0, 2.5])
    def test_cell_weights_equal_fresh_computation(self, kind, gamma):
        g = Grid(40.0, 1024, kind)
        x, h = g.points, g.h
        if gamma == 0.0:
            fresh = np.full_like(x, h)
        else:
            g1 = gamma + 1.0
            anti = lambda t: np.sign(t) * np.abs(t) ** g1 / g1
            fresh = anti(x + 0.5 * h) - anti(x - 0.5 * h)
        cw = g.cell_weights(gamma)
        assert np.array_equal(cw, fresh)
        assert not cw.flags.writeable
        with pytest.raises(ValueError):
            cw[0] = 1.0
        hits = grid_module._cell_weights.cache_info().hits
        again = Grid(40.0, 1024, kind).cell_weights(np.float64(gamma))
        assert again is cw
        assert grid_module._cell_weights.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_frequencies_equal_fresh_computation(self, n):
        g = Grid(40.0, n, FULL_LINE)
        fresh = 2.0 * np.pi * np.fft.fftfreq(n, d=g.h)
        assert np.array_equal(g.frequencies(), fresh)

    def test_rejections_still_raise(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(AdmissibilityError):
            g.cell_weights(-1.0)
        with pytest.raises(ValueError):
            Grid(40.0, 1024, HALF_LINE).frequencies()


class TestPlateau:
    @pytest.mark.parametrize("edge", [1.0, 2.0], ids=["inner", "outer"])
    def test_edge_differences_decay_faster_than_c1(self, edge):
        # a smooth window has 4th differences O(h^4), falling 16x per halving
        # of h; the ramp exp(1 - 1/(1 - z^2)), whose second derivative jumps
        # by -2/(outer - inner)^2 at the inner edge, gives O(h^2), i.e. 4x
        peaks = []
        for n in (64, 128, 256):
            x = edge + np.arange(-8, 9) / n  # 17 nodes straddling the edge
            peaks.append(np.max(np.abs(np.diff(plateau(x, 0.0, 1.0, 2.0), 4))))
        assert peaks[0] > 0.0
        assert all(b < a / 16.0 for a, b in zip(peaks, peaks[1:]))

    def test_values(self):
        x = np.linspace(-3.0, 3.0, 601)
        w = plateau(x, 0.0, 1.0, 2.0)
        assert np.all(w[np.abs(x) <= 1.0] == 1.0) and np.all(w[np.abs(x) >= 2.0] == 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0)) and np.all(np.isfinite(w))
        assert plateau(np.array([1.5]), 0.0, 1.0, 2.0)[0] == pytest.approx(0.5, abs=1e-15)
        ramp = (x > 1.0) & (x < 2.0)
        assert np.all(np.diff(w[ramp]) <= 0.0)


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


def _sum_of_squares(values):
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1))


class TestFiberNorms:
    @settings(max_examples=50, deadline=None)
    @given(n=grid_sizes, stack=st.sampled_from([None, 1, 3]), is_complex=st.booleans(),
           seed=seeds)
    def test_one_column_is_the_sum_of_squares_form(self, n, stack, is_complex, seed):
        # magnitudes in [1e-150, 1e150], where every |v|^2 is a normal float
        rng = np.random.default_rng(seed)
        shape = (n, 1) if stack is None else (stack, n, 1)

        def part():
            signs = rng.choice([-1.0, 1.0], shape)
            return signs * 10.0 ** rng.uniform(-150.0, 150.0, shape)

        values = part() + 1j * part() if is_complex else part()
        out = grid_module._fiber_norms(values)
        assert out.shape == shape[:-1]
        assert np.array_equal(out, _sum_of_squares(values))

    def test_one_column_below_the_squares_range_is_exact(self):
        for values in (np.array([[1e-200], [-1e-200]]), np.array([[1e-200j], [-1e-200]])):
            assert np.array_equal(grid_module._fiber_norms(values), [1e-200, 1e-200])
            assert np.all(_sum_of_squares(values) == 0.0)

    @pytest.mark.parametrize("shape", [(64, 2), (64, 3), (2, 64, 3)])
    def test_several_columns_are_the_sum_of_squares_form(self, shape):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(grid_module._fiber_norms(values), _sum_of_squares(values))


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


def _csv_input(grid: Grid, fiber_dim: int, seed: int, complex_data: bool) -> GridFunction:
    f = random_function(grid, fiber_dim, seed)
    return f if complex_data else GridFunction(grid, f.values.real)


class TestCsvRoundTrip:
    # real samples come back real (every imaginary column is zero), complex
    # ones complex, bit for bit
    @settings(max_examples=25, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           complex_data=st.booleans())
    def test_full_line_round_trip(self, tmp_path_factory, half_width, n, fiber_dim, seed,
                                  complex_data):
        f = _csv_input(Grid(half_width, n, FULL_LINE), fiber_dim, seed, complex_data)
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        f.to_csv(path)
        back = GridFunction.from_csv(path)
        assert back.grid == f.grid
        assert type(back.grid.half_width) is float
        assert back.values.dtype == f.values.dtype
        assert np.array_equal(back.values, f.values)

    @settings(max_examples=25, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           complex_data=st.booleans())
    def test_half_line_round_trip(self, tmp_path_factory, half_width, n, fiber_dim, seed,
                                  complex_data):
        f = _csv_input(Grid(half_width, n, HALF_LINE), fiber_dim, seed, complex_data)
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        f.to_csv(path)
        back = GridFunction.from_csv(path)
        assert back.grid == f.grid
        assert type(back.grid.half_width) is float
        assert back.values.dtype == f.values.dtype
        assert np.array_equal(back.values, f.values)


def test_csv_bytes(tmp_path):
    # header, CRLF line ends and %.17g fields, imaginary columns of real data 0
    g = Grid(16.0, 16, HALF_LINE)
    values = g.points / 4
    values[1], values[2] = 0.1, -1e-300
    path = tmp_path / "h.csv"
    GridFunction(g, values).to_csv(path)
    rows = ["x,re_0,im_0", "0,0,0", "1,0.10000000000000001,0", "2,-1e-300,0", "3,0.75,0",
            "4,1,0", "5,1.25,0", "6,1.5,0", "7,1.75,0", "8,2,0", "9,2.25,0", "10,2.5,0",
            "11,2.75,0", "12,3,0", "13,3.25,0", "14,3.5,0", "15,3.75,0"]
    assert path.read_bytes() == "".join(row + "\r\n" for row in rows).encode()


_X = Grid(10.0, 64, FULL_LINE).points
_T = Grid(10.0, 64, HALF_LINE).points
_FULL = GridFunction(Grid(10.0, 64, FULL_LINE), np.exp(-_X ** 2))
_HALF = GridFunction(Grid(10.0, 64, HALF_LINE), _T * np.exp(-_T))
_C1 = halfline.solve_reflection_coefficients(1)
_OP = opcalc.HalfLineOperator(opcalc.DIRICHLET)

# each operator called from Python with an input it cannot honour, and the
# one-line message it raises; integer parameters go through grid._integer,
# grid kinds through grid._require_kind
OPERATOR_INPUT_RULES = {
    "derivative-order-fractional": (lambda: fourier.spectral_derivative(_FULL, 1.5),
                                    "order must be an integer >= 0, got 1.5"),
    "derivative-order-boolean": (lambda: fourier.spectral_derivative(_FULL, True),
                                 "order must be an integer >= 0, got True"),
    "derivative-order-negative": (lambda: fourier.spectral_derivative(_FULL, -1),
                                  "order must be an integer >= 0, got -1"),
    "derivative-order-string": (lambda: fourier.spectral_derivative(_FULL, "2"),
                                "order must be an integer >= 0, got '2'"),
    "mollify-scale-fractional": (lambda: mollify(_FULL, 2.5),
                                 "scale must be an integer >= 1, got 2.5"),
    "mollify-scale-boolean": (lambda: mollify(_FULL, True),
                              "scale must be an integer >= 1, got True"),
    "mollify-scale-zero": (lambda: mollify(_FULL, 0), "scale must be an integer >= 1, got 0"),
    "trace-k-boolean": (lambda: halfline.trace(_HALF, True), "k must be an integer >= 0, got True"),
    "trace-k-fractional": (lambda: halfline.trace(_HALF, 0.5),
                           "k must be an integer >= 0, got 0.5"),
    "trace-k-negative": (lambda: halfline.trace(_HALF, -1), "k must be an integer >= 0, got -1"),
    "project-h0-k-fractional": (lambda: halfline.project_H0(_HALF, 1.5),
                                "k must be an integer >= 0, got 1.5"),
    "reflection-m-fractional": (lambda: halfline.solve_reflection_coefficients(1.5),
                                "m must be an integer >= 0, got 1.5"),
    "reflection-m-boolean": (lambda: halfline.solve_reflection_coefficients(True),
                             "m must be an integer >= 0, got True"),
    "reflection-m-negative": (lambda: halfline.solve_reflection_coefficients(-1),
                              "m must be an integer >= 0, got -1"),
    "wkp-k-fractional": (lambda: fourier.wkp_norm(_FULL, 1.5, 2.0, PowerWeight(0.0)),
                         "k must be an integer >= 0, got 1.5"),
    "zero_extend": (lambda: halfline.zero_extend(_FULL), "zero_extend needs a half-line input"),
    "restrict_plus": (lambda: halfline.restrict_plus(_HALF),
                      "restrict_plus needs a full-line input"),
    "restrict_minus": (lambda: halfline.restrict_minus(_HALF),
                       "restrict_minus needs a full-line input"),
    "reflect_extend": (lambda: halfline.reflect_extend(_FULL, _C1),
                       "reflect_extend needs a half-line input"),
    "reflect_extend_dual": (lambda: halfline.reflect_extend_dual(_HALF, _C1),
                            "reflect_extend_dual needs a full-line input"),
    "indicator_multiply": (lambda: halfline.indicator_multiply(_HALF),
                           "indicator_multiply needs a full-line input"),
    "support_projection": (lambda: halfline.support_projection(_HALF, _C1),
                           "support_projection needs a full-line input"),
    "factor_norm_upper": (lambda: halfline.factor_norm_upper(_FULL, 0.5, 2.0, 0.0),
                          "factor_norm_upper needs a half-line input"),
    "resolvent": (lambda: opcalc.resolvent(_OP, 1.0, _FULL), "resolvent needs a half-line input"),
    "fractional_power": (lambda: opcalc.fractional_power(_OP, 0.5, _FULL),
                         "fractional_power needs a half-line input"),
    "riemann_liouville": (lambda: opcalc.riemann_liouville(_FULL, 0.5),
                          "riemann_liouville needs a half-line input"),
    "apply_multiplier": (lambda: fourier.apply_multiplier(fourier.bessel_symbol(1.0), _HALF),
                         "apply_multiplier needs a full-line input"),
    "transform_values": (lambda: fourier.transform_values(_HALF),
                         "transform_values needs a full-line input"),
    "hardy_hilbert_apply": (lambda: kernels.hardy_hilbert_apply(_FULL),
                            "hardy_hilbert_apply needs a half-line input"),
    "fractional_laplacian_singular": (lambda: singular.fractional_laplacian_singular(_HALF, 0.5),
                                      "fractional_laplacian_singular needs a full-line input"),
}


@pytest.mark.parametrize("call, message", OPERATOR_INPUT_RULES.values(),
                         ids=OPERATOR_INPUT_RULES.keys())
def test_operator_rejects_input_it_cannot_honour(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


_FULL_GRID = Grid(40.0, 1024, FULL_LINE)
_HALF_GRID = _FULL_GRID.companion(HALF_LINE)
_XF, _TH = _FULL_GRID.points, _HALF_GRID.points
# decayed inputs; the half-line ones vanish at t = 0 (the Dirichlet domain)
_REAL_FULL = np.stack([np.exp(-_XF ** 2), _XF * np.exp(-(_XF - 1.0) ** 2)], axis=1)
_REAL_HALF = np.stack([_TH ** 2 * np.exp(-_TH), np.sin(_TH) * _TH * np.exp(-_TH)], axis=1)
_OP_MINUS = opcalc.HalfLineOperator(opcalc.MINUS)

# every operator that builds samples from its input, on a full-line (True)
# or half-line (False) input
SAMPLE_OPERATORS = {
    "zero_extend": (False, halfline.zero_extend),
    "restrict_plus": (True, halfline.restrict_plus),
    "restrict_minus": (True, halfline.restrict_minus),
    "reflect_extend": (False, lambda f: halfline.reflect_extend(f, _C1)),
    "reflect_extend_dual": (True, lambda f: halfline.reflect_extend_dual(f, _C1)),
    "indicator_multiply": (True, halfline.indicator_multiply),
    "support_projection": (True, lambda f: halfline.support_projection(f, _C1)),
    "project_H0": (False, lambda f: halfline.project_H0(f, 2)),
    "mollify": (True, lambda f: mollify(f, 2)),
    "bessel_potential": (True, lambda f: fourier.bessel_potential(f, 0.5)),
    "spectral_derivative": (True, lambda f: fourier.spectral_derivative(f, 3)),
    "fractional_laplacian_singular": (
        True, lambda f: singular.fractional_laplacian_singular(f, 0.5)),
    "hardy_hilbert_apply": (False, kernels.hardy_hilbert_apply),
    "apply": (False, _OP.apply),
    "fractional_power-dirichlet": (False, lambda f: opcalc.fractional_power(_OP, 0.5, f)),
    "fractional_power-minus": (False, lambda f: opcalc.fractional_power(_OP_MINUS, 0.5, f)),
    "riemann_liouville": (False, lambda f: opcalc.riemann_liouville(f, 0.5)),
}


# the largest |symbol| of an operator that amplifies high frequencies: the
# rounding of its transforms reaches the output multiplied by it
_GAINS = {"spectral_derivative": np.max(np.abs(_FULL_GRID.frequencies())) ** 3}


@pytest.mark.parametrize("name", SAMPLE_OPERATORS)
def test_operators_keep_real_data_real(name):
    # real in, float64 out; complex in, complex128 out, equal to the
    # operator applied to the real and the imaginary part up to rounding
    full, operator = SAMPLE_OPERATORS[name]
    grid, real = (_FULL_GRID, _REAL_FULL) if full else (_HALF_GRID, _REAL_HALF)
    imag = real[::-1] if full else np.roll(real, 1, axis=1)
    out_re = operator(GridFunction(grid, real)).values
    out_im = operator(GridFunction(grid, imag)).values
    out = operator(GridFunction(grid, real + 1j * imag)).values
    assert out_re.dtype == out_im.dtype == np.float64
    assert out.dtype == np.complex128
    scale = max(np.max(np.abs(out_re)), np.max(np.abs(out_im)))
    gain = _GAINS.get(name, 0.0)
    bound = 1e-13 * scale + 4 * np.finfo(float).eps * gain * np.max(np.abs(real))
    assert np.max(np.abs(out - (out_re + 1j * out_im))) <= bound


def test_only_a_complex_number_makes_real_data_complex():
    f = GridFunction(_HALF_GRID, _REAL_HALF)
    assert opcalc.resolvent(_OP, 1.0 + 0.5j, f).values.dtype == np.complex128
    assert fourier.transform_values(GridFunction(_FULL_GRID, _REAL_FULL))[1].dtype \
        == np.complex128
    trace = halfline.trace(f, 2)
    assert trace.entries.dtype == np.float64
    assert halfline.coextend(trace, _HALF_GRID).values.dtype == np.float64
