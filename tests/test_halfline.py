import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracspace.grid import (
    DegenerateInputError,
    FULL_LINE,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    ResolutionError,
    dual_pairing,
    weighted_lp_norm,
)
from fracspace import _fd, fourier, halfline
from fracspace.halfline import (
    ReflectionCoefficients,
    TraceVector,
    coextend,
    factor_norm_upper,
    gn_check,
    gn_ratios,
    hardy_embedding_check,
    indicator_multiply,
    multiplier_norm_ratio,
    multiplier_norm_ratios,
    project_H0,
    reflect_extend,
    reflect_extend_dual,
    restrict_minus,
    restrict_plus,
    solve_reflection_coefficients,
    support_projection,
    trace,
    zero_extend,
)
from fracspace.harness import (
    _GN_PAIRS,
    _MULTIPLIER_TRIPLES,
    generate_test_family,
    run_suite,
)

from helpers import (
    fiber_dims,
    gammas,
    grid_sizes,
    half_widths,
    plateau,
    random_function,
    seeds,
)

W0 = PowerWeight(0.0)


class TestReflectionCoefficients:
    def test_order_zero_closed_form(self):
        c = solve_reflection_coefficients(0)
        assert c.lambdas == (1.0, 2.0)
        assert c.bs == (3.0, -2.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_row_zero_identity(self, m):
        c = solve_reflection_coefficients(m)
        assert sum(c.bs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 8])
    def test_matching_residual(self, m):
        assert solve_reflection_coefficients(m).matching_residual() <= 1e-10

    def test_order_guard(self):
        with pytest.raises(ResolutionError):
            solve_reflection_coefficients(9)

    def test_rejects_inconsistent_data(self):
        with pytest.raises(ValueError):
            ReflectionCoefficients(0, (1.0, 2.0), (1.0, 1.0))

    def test_rejects_non_integer_factors(self):
        # (7/3, -4/3) solves the matching system for lambdas (1, 2.5), so only
        # the integer requirement rejects these data
        with pytest.raises(ValueError, match="integer"):
            ReflectionCoefficients(0, (1.0, 2.5), (7.0 / 3.0, -4.0 / 3.0))


class TestReflectExtend:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_polynomial_reproduction(self, m):
        grid = Grid(40.0, 8192, HALF_LINE)
        t = grid.points
        c = solve_reflection_coefficients(m)
        top = 2 * m + 3.0
        win = plateau(t, 0.0, top, 3 * top)
        for deg in range(2 * m + 2):
            f = GridFunction(grid, t ** deg * win)
            ext = reflect_extend(f, c)
            x = ext.grid.points
            mask = (x < 0) & (x >= -1.0)
            assert np.max(np.abs(ext.values[mask, 0] - x[mask] ** deg)) < 1e-9

    def test_linear_function_extends_to_identity(self):
        grid = Grid(40.0, 4096, HALF_LINE)
        t = grid.points
        f = GridFunction(grid, t * plateau(t, 0.0, 3.0, 9.0))
        ext = reflect_extend(f, solve_reflection_coefficients(0))
        x = ext.grid.points
        mask = np.abs(x) <= 1.0
        assert np.max(np.abs(ext.values[mask, 0] - x[mask])) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           m=st.integers(0, 3))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # undecayed random data
    def test_restriction_identity_exact(self, half_width, n, fiber_dim, seed, m):
        f = random_function(Grid(half_width, n, HALF_LINE), fiber_dim, seed)
        ext = reflect_extend(f, solve_reflection_coefficients(m))
        assert np.array_equal(restrict_plus(ext).values, f.values)

    def test_zero_extends_to_zero(self):
        grid = Grid(40.0, 1024, HALF_LINE)
        ext = reflect_extend(GridFunction(grid, np.zeros(1024)),
                             solve_reflection_coefficients(0))
        assert np.all(ext.values == 0.0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_sided_derivative_jumps(self, m):
        # slowly varying input: the reflected side amplifies high derivatives
        # by sum |b_j| lambda_j^q, which otherwise drowns the check in
        # difference-stencil truncation error
        grid = Grid(40.0, 4096, HALF_LINE)
        t = grid.points
        f = GridFunction(grid, np.exp(-((t - 14.0) / 12.0) ** 2))
        coeffs = solve_reflection_coefficients(m)
        ext = reflect_extend(f, coeffs)
        zero = ext.grid.zero_index
        h = ext.grid.h
        # direct stencil comparison where float differencing can resolve it
        # (the left-sided derivative of order n is (-1)^n times the
        # right-sided one of the reversed samples)
        for order in range(min(2 * m + 2, 3)):
            right = _fd.derivative_at(ext.values, h, zero, order, 6, "right")
            left = (-1) ** order * _fd.derivative_at(
                ext.values[::-1], h, ext.grid.n_points - 1 - zero, order, 6, "right")
            scale = max(1.0, abs(complex(right[0])))
            assert abs(complex(right[0] - left[0])) <= 1e-8 * scale
        # all matched orders: the left side's derivative is exactly
        # sum_j b_j (-lambda_j)^n f^(n)(0+), so the jump is the matching
        # residual times the one-sided derivative
        for order in range(2 * m + 2):
            d_right = complex(_fd.derivative_at(f.values, h, 0, order, 6, "right")[0])
            factor = sum(b * (-lam) ** order
                         for b, lam in zip(coeffs.bs, coeffs.lambdas))
            scale = max(1.0, abs(d_right) * sum(
                abs(b) * lam ** order for b, lam in zip(coeffs.bs, coeffs.lambdas)))
            assert abs((factor - 1.0) * d_right) <= 1e-8 * scale


def _masked_gather(values, coeffs, m_index):
    """sum_j b_j f(lambda_j t_m) by index arrays and masks, values zero past the end."""
    out = np.zeros((len(m_index), values.shape[1]), dtype=np.complex128)
    for lam, b in zip(coeffs.lambdas, coeffs.bs):
        src = m_index * int(lam)
        valid = src < values.shape[0]
        out[valid] += b * values[src[valid]]
    return out


class TestSlicedGathers:
    """The strided-slice reflections equal index-array gathers bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           m=st.integers(0, 4))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # undecayed random data
    def test_reflect_extend(self, half_width, n, fiber_dim, seed, m):
        f = random_function(Grid(half_width, n, HALF_LINE), fiber_dim, seed)
        coeffs = solve_reflection_coefficients(m)
        zero = n  # the full-line companion has 2n nodes
        ref = np.zeros((2 * n, fiber_dim), dtype=np.complex128)
        ref[zero:] = f.values
        ref[zero - 1::-1] = _masked_gather(f.values, coeffs, np.arange(1, zero + 1))
        assert np.array_equal(reflect_extend(f, coeffs).values, ref)

    @settings(max_examples=50, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           m=st.integers(0, 4))
    def test_support_projection(self, half_width, n, fiber_dim, seed, m):
        F = random_function(Grid(half_width, 2 * n, FULL_LINE), fiber_dim, seed)
        coeffs = solve_reflection_coefficients(m)
        zero = n
        ref = F.values.copy()
        ref[:zero] = 0.0
        ref[zero + 1:] -= _masked_gather(restrict_minus(F).values, coeffs,
                                         np.arange(1, zero))
        assert np.array_equal(support_projection(F, coeffs).values, ref)

    @settings(max_examples=30, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           m=st.integers(0, 2))
    def test_dual_takes_one_forward_transform(self, half_width, n, fiber_dim, seed, m):
        # reference: a fresh FFT of the real and imaginary parts of g for
        # every lambda_j >= 2, gathered by index
        g = random_function(Grid(half_width, n, FULL_LINE), fiber_dim, seed)
        coeffs = solve_reflection_coefficients(m)
        zero = g.grid.zero_index
        acc = g.values[zero:].copy()
        for lam, b in zip(coeffs.lambdas, coeffs.bs):
            j = int(lam)
            up = g.values
            if j > 1:
                parts = [halfline._upsampled_values(np.fft.rfft(part, axis=0), j)
                         for part in (g.values.real, g.values.imag)]
                up = parts[0] + 1j * parts[1]
            acc += (b / lam) * up[j * zero - np.arange(n - zero)]
        ref = np.zeros_like(g.values)
        ref[zero:] = acc
        assert np.array_equal(reflect_extend_dual(g, coeffs).values, ref)

    def test_complex_columns_are_a_view_when_contiguous(self):
        data = np.ones((16, 2), dtype=np.complex128)[::-1]
        assert np.shares_memory(halfline._real_columns(data), data)
        assert halfline._real_columns(data).shape == (16, 4)
        transposed = np.ones((2, 16), dtype=np.complex128).T
        assert not np.shares_memory(halfline._real_columns(transposed), transposed)


class TestReflectExtendDual:
    def test_duality_pairing(self):
        gfull = Grid(40.0, 4096, FULL_LINE)
        ghalf = gfull.companion(HALF_LINE)
        c = solve_reflection_coefficients(1)
        fam_f = generate_test_family(ghalf, 32, 20)
        fam_g = generate_test_family(gfull, 33, 20)
        for f, g in zip(fam_f, fam_g):
            lhs = dual_pairing(reflect_extend(f, c), g)
            rhs = dual_pairing(zero_extend(f), reflect_extend_dual(g, c))
            assert abs(lhs - rhs) < 1e-8

    def test_zero_maps_to_zero(self):
        gfull = Grid(40.0, 1024, FULL_LINE)
        c = solve_reflection_coefficients(0)
        out = reflect_extend_dual(GridFunction(gfull, np.zeros(1024)), c)
        assert np.all(out.values == 0.0)

    def test_left_supported_input_pairs_with_constants(self):
        # <E f, g> = <f, E* g> specializes, for g supported in x < 0 and an
        # f that is constant where the reflections sample it, to the row-0
        # weighted mass sum_j b_j / lambda_j picked up by the dual operator
        gfull = Grid(40.0, 4096, FULL_LINE)
        x = gfull.points
        c = solve_reflection_coefficients(1)
        # g lives in (-7, -1); every reflection then samples the plateau of f
        g = GridFunction(gfull, np.where(x < 0, np.exp(-((x + 4.0)) ** 2), 0.0))
        out = reflect_extend_dual(g, c)
        ghalf = gfull.companion(HALF_LINE)
        ones = GridFunction(ghalf, plateau(ghalf.points, 0.0, 36.0, 39.5))
        lhs = dual_pairing(reflect_extend(ones, c), g)
        rhs = dual_pairing(zero_extend(ones), out)
        assert abs(lhs - rhs) < 1e-8
        # direct quadrature oracle: E(ones) is sum_j b_j = 1 on the support
        mass = np.sum(g.values[:, 0]).real * gfull.h
        weights = sum(b for b in c.bs)
        assert lhs.real == pytest.approx(mass * weights, rel=1e-9)


class TestExtensionRestriction:
    def test_round_trip_exact(self):
        grid = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(grid, np.exp(-grid.points))
        assert np.array_equal(restrict_plus(zero_extend(f)).values, f.values)

    def test_zero_extension_isometry_exact_example(self):
        grid = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(grid, np.exp(-grid.points) * np.cos(grid.points))
        for gamma in (0.0, 0.5, -0.4):
            w = PowerWeight(gamma)
            assert weighted_lp_norm(zero_extend(f), 2.0, w) == \
                weighted_lp_norm(f, 2.0, w)

    @settings(max_examples=50, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, gamma=gammas, fiber_dim=fiber_dims,
           seed=seeds)
    def test_zero_extension_is_isometry(self, half_width, n, gamma, fiber_dim, seed):
        # the full-line nodes -L + h k round differently from the half-line
        # nodes h k, so the cell weights agree to rounding, not bit for bit
        f = random_function(Grid(half_width, n, HALF_LINE), fiber_dim, seed)
        w = PowerWeight(gamma)
        assert weighted_lp_norm(zero_extend(f), 2.0, w) == pytest.approx(
            weighted_lp_norm(f, 2.0, w), rel=1e-12, abs=0.0)

    def test_minus_restriction_of_zero_extension_vanishes(self):
        grid = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(grid, np.exp(-grid.points))
        assert np.all(restrict_minus(zero_extend(f)).values == 0.0)

    def test_minus_restriction_mirrors(self):
        gfull = Grid(40.0, 1024, FULL_LINE)
        x = gfull.points
        F = GridFunction(gfull, np.exp(-(x + 5.0) ** 2))
        r = restrict_minus(F)
        t = r.grid.points
        assert np.max(np.abs(r.values[1:, 0] - np.exp(-(-t[1:] + 5.0) ** 2))) < 1e-15


class TestIndicator:
    def test_idempotent(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2 / 9))
        once = indicator_multiply(f)
        assert np.array_equal(indicator_multiply(once).values, once.values)

    def test_keeps_origin_node(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = GridFunction(g, np.ones(1024))
        out = indicator_multiply(f)
        assert out.values[g.zero_index, 0] == 1.0
        assert np.all(out.values[: g.zero_index, 0] == 0.0)

    def test_norm_ratio_finite_and_stable(self):
        s, p, gamma = 0.3, 2.0, 0.0
        sups = []
        for n in (1024, 2048, 4096):
            grid = Grid(40.0, n, FULL_LINE)
            fam = generate_test_family(grid, 34, 20, "boundary-touching")
            sups.append(max(multiplier_norm_ratio(f, s, p, gamma) for f in fam))
        assert all(math.isfinite(v) for v in sups)
        assert max(sups) - min(sups) <= 0.10 * min(sups)

    def test_derivative_identity_for_zero_trace(self):
        g = Grid(40.0, 4096, FULL_LINE)
        k = 2
        fam = generate_test_family(g, 35, 10, "zero-trace-k", trace_order=k)
        for f in fam:
            for j in range(1, k + 1):
                lhs = fourier.spectral_derivative(indicator_multiply(f), j)
                rhs = indicator_multiply(fourier.spectral_derivative(f, j))
                assert weighted_lp_norm(lhs - rhs, 2.0, W0) < 1e-6

    def test_derivative_identity_in_l1_window(self):
        # the grid form of the vanishing-trace derivative identity, j <= k+1,
        # measured in L^1 on the inner half of the domain
        g = Grid(40.0, 4096, FULL_LINE)
        k = 1
        fam = generate_test_family(g, 36, 5, "zero-trace-k", trace_order=k)
        inner = np.abs(g.points) <= g.half_width / 2
        for f in fam:
            for j in range(1, k + 2):
                lhs = fourier.spectral_derivative(indicator_multiply(f), j)
                rhs = indicator_multiply(fourier.spectral_derivative(f, j))
                diff = np.abs(lhs.values[inner, 0] - rhs.values[inner, 0])
                assert np.sum(diff) * g.h < 1e-6


class TestTrace:
    def test_polynomial(self):
        g = Grid(40.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, x ** 2 * plateau(x, 0.0, 3.0, 9.0))
        tr = trace(f, 2)
        assert np.max(np.abs(tr.entries[:, 0] - np.array([0.0, 0.0, 2.0]))) < 1e-8

    def test_exponential(self):
        g = Grid(40.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.exp(x) * plateau(x, 0.0, 2.0, 6.0))
        assert np.max(np.abs(trace(f, 1).entries[:, 0] - 1.0)) < 1e-8

    def test_one_sided_on_half_line(self):
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, np.exp(t) * plateau(t, 0.0, 2.0, 6.0))
        assert np.max(np.abs(trace(f, 1).entries[:, 0] - 1.0)) < 1e-8

    def test_vanishing_near_origin_gives_zero(self):
        g = Grid(40.0, 2048, HALF_LINE)
        t = g.points
        f = GridFunction(g, np.where(t > 1.0, np.exp(-(t - 5.0) ** 2), 0.0))
        assert np.all(trace(f, 3).entries == 0.0)

    def test_vector_valued(self):
        g = Grid(40.0, 2048, FULL_LINE)
        x = g.points
        win = plateau(x, 0.0, 2.0, 6.0)
        vals = np.stack([x * win, np.exp(x) * win], axis=1)
        tr = trace(GridFunction(g, vals), 1)
        np.testing.assert_allclose(tr.entries, [[0.0, 1.0], [1.0, 1.0]], atol=1e-8)

    def test_insufficient_resolution(self):
        g = Grid(40.0, 16, FULL_LINE)
        f = GridFunction(g, np.ones(16))
        with pytest.raises(ResolutionError):
            trace(f, 7)


# (order, accuracy) of every stencil that ``trace`` (k <= 6) and
# ``opcalc._endpoint_corrected_pairing`` ask ``derivative_at`` for
_CALLER_STENCILS = sorted({(j, k + 3) for k in range(7) for j in range(k + 1)}
                          | {(1, 8), (3, 8), (5, 6)})


def _derivative_at_per_call(values, h, index, order, accuracy, one_sided=None):
    """``_fd.derivative_at`` with its weights rebuilt on every call; the
    stencil must fit."""
    n_pts = order + accuracy
    n = values.shape[0]
    if one_sided == "right":
        lo = index
    else:
        lo = max(0, min(index - n_pts // 2, n - n_pts))
    offsets = np.arange(lo, lo + n_pts)
    w = _fd.fd_weights((offsets - index) * h, order)[order]
    return np.tensordot(w, values[offsets], axes=(0, 0))


def _derivative_array_per_call(values, h):
    """``_fd.derivative_array`` with its 9 stencils rebuilt on every call."""
    n_pts, half = 9, 4
    n = values.shape[0]
    out = np.empty_like(np.asarray(values, dtype=complex))
    w = _fd.fd_weights(np.arange(-half, half + 1) * h, 1)[1]
    interior = np.zeros((n - 2 * half, values.shape[1]), dtype=complex)
    for j, wj in enumerate(w):
        if wj != 0.0:
            interior += wj * values[j: j + n - 2 * half]
    out[half: n - half] = interior
    for i in range(half):
        wl = _fd.fd_weights((np.arange(n_pts) - i) * h, 1)[1]
        out[i] = np.tensordot(wl, values[:n_pts], axes=(0, 0))
        wr = _fd.fd_weights((np.arange(n - n_pts, n) - (n - 1 - i)) * h, 1)[1]
        out[n - 1 - i] = np.tensordot(wr, values[n - n_pts:], axes=(0, 0))
    return out


class TestDerivativeStencil:
    def test_input_shorter_than_stencil_rejected(self):
        # order 1 at accuracy 8 needs 9 nodes; 9 suffice, 5 raise ValueError
        # (not an IndexError from reading past the end)
        for one_sided, index in ((None, 4), ("right", 0)):
            d = _fd.derivative_at(np.arange(9.0), 0.1, index, 1, accuracy=8,
                                  one_sided=one_sided)
            assert d == pytest.approx(10.0, rel=1e-10)
        for one_sided in (None, "right"):
            with pytest.raises(ValueError, match="9 nodes"):
                _fd.derivative_at(np.ones(5), 0.1, 0, 1, accuracy=8, one_sided=one_sided)

    def test_one_sided_stencil_past_the_end_rejected(self):
        # not shifted into the array: a shifted stencil at node 15 of a
        # function that is 0 on nodes 15-19 would use nodes 11-19 and
        # return a nonzero derivative
        with pytest.raises(ValueError, match="does not fit"):
            _fd.derivative_at(np.arange(9.0), 0.1, 4, 1, accuracy=8, one_sided="right")
        x = 0.1 * np.arange(20)
        v = np.where(x < 1.5, (x - 1.5) ** 2, 0.0)
        with pytest.raises(ValueError, match="does not fit"):
            _fd.derivative_at(v, 0.1, 15, 1, accuracy=8, one_sided="right")

    @pytest.mark.parametrize("side", ["left", "both", "Right", True])
    def test_other_sides_rejected(self, side):
        # only None (centered) and "right" exist; a "left" once fell through
        # to the centered stencil (200.0 for x^2 sampled at 0.1 j, node 10)
        with pytest.raises(ValueError, match="one_sided"):
            _fd.derivative_at(np.arange(20.0) ** 2, 0.1, 10, 1, 8, side)

    @pytest.mark.parametrize("h", [40.0 / 1024, 0.1, 1.0 / 3.0])
    @pytest.mark.parametrize("n", [9, 16, 4096])
    def test_cached_stencils_equal_per_call_build(self, h, n):
        rng = np.random.default_rng(n)
        for shape in ((n,), (n, 1), (n, 2)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if len(shape) == 2:
                assert np.array_equal(_fd.derivative_array(v, h),
                                      _derivative_array_per_call(v, h))
            for (order, accuracy), one_sided, index in (
                    (oa, side, index) for oa in _CALLER_STENCILS
                    for side, indices in (("right", (0, 1)),
                                          (None, (0, 1, n // 2, n - 1)))
                    for index in indices):
                n_pts = order + accuracy
                lo = index if one_sided == "right" else 0
                if n_pts > n or lo + n_pts > n:
                    with pytest.raises(ValueError):
                        _fd.derivative_at(v, h, index, order, accuracy, one_sided)
                    continue
                got = _fd.derivative_at(v, h, index, order, accuracy, one_sided)
                ref = _derivative_at_per_call(v, h, index, order, accuracy, one_sided)
                assert np.array_equal(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(9, 300), fiber=st.sampled_from([None, 1, 3]),
           complex_values=st.booleans(), h=st.floats(1e-3, 2.0),
           stencil=st.sampled_from(_CALLER_STENCILS),
           side=st.sampled_from([None, "right"]), where=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stencil_products_equal_tensordot(self, n, fiber, complex_values, h, stencil,
                                              side, where, seed):
        # the products ``w @ values`` are bit-identical to the tensordot
        # contraction they replaced, for 1-D and (N, n) values
        rng = np.random.default_rng(seed)
        shape = (n,) if fiber is None else (n, fiber)
        v = rng.standard_normal(shape)
        if complex_values:
            v = v + 1j * rng.standard_normal(shape)
        order, accuracy = stencil
        n_pts = order + accuracy
        assume(n_pts <= n)
        hi_index = n - n_pts if side == "right" else n - 1
        index = round(where * hi_index)
        got = _fd.derivative_at(v, h, index, order, accuracy, side)
        assert np.array_equal(got, _derivative_at_per_call(v, h, index, order, accuracy, side))
        if fiber is not None:
            assert np.array_equal(_fd.derivative_array(v, h), _derivative_array_per_call(v, h))

    def test_cached_stencils_are_read_only(self):
        w = _fd._stencil(0.1, -4, 9, 1)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_derivative_array_builds_each_stencil_once(self, monkeypatch):
        # 1 interior + 8 end stencils, however often the same h comes back
        calls = []
        build = _fd.fd_weights
        monkeypatch.setattr(_fd, "fd_weights",
                            lambda nodes, max_order: calls.append(max_order)
                            or build(nodes, max_order))
        v = np.ones((64, 2), dtype=complex)
        _fd._stencil.cache_clear()
        try:
            for _ in range(100):
                _fd.derivative_array(v, 0.05)
        finally:
            _fd._stencil.cache_clear()
        assert len(calls) == 9


class TestCoextend:
    @pytest.mark.parametrize("k, n", [(0, 4096), (2, 2048), (4, 1024)])
    def test_trace_round_trip(self, k, n):
        rng = np.random.default_rng(37)
        g = Grid(40.0, n, FULL_LINE)
        t = TraceVector(k, rng.standard_normal((k + 1, 1))
                        + 1j * rng.standard_normal((k + 1, 1)))
        back = trace(coextend(t, g), k)
        assert np.max(np.abs(back.entries - t.entries)) < 1e-8

    def test_zero_vector(self):
        g = Grid(40.0, 1024, FULL_LINE)
        out = coextend(TraceVector(1, np.zeros((2, 1))), g)
        assert np.all(out.values == 0.0)

    def test_plateau_of_constant(self):
        g = Grid(40.0, 1024, FULL_LINE)
        out = coextend(TraceVector(0, np.ones((1, 1))), g)
        x = g.points
        near = np.abs(x) <= 1.0
        assert np.max(np.abs(out.values[near, 0] - 1.0)) < 1e-14
        assert np.all(out.values[np.abs(x) >= 2.0, 0] == 0.0)


class TestProjectH0:
    def test_kills_trace(self):
        g = Grid(40.0, 4096, FULL_LINE)
        fam = generate_test_family(g, 38, 20, "boundary-touching")
        for f in fam:
            p = project_H0(f, 2)
            assert np.max(np.abs(trace(p, 2).entries)) < 1e-8

    def test_idempotent(self):
        g = Grid(40.0, 4096, FULL_LINE)
        f = generate_test_family(g, 39, 1, "boundary-touching")[0]
        p1 = project_H0(f, 2)
        p2 = project_H0(p1, 2)
        assert np.max(np.abs(p2.values - p1.values)) < 1e-8

    def test_fixes_zero_trace_inputs(self):
        g = Grid(40.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.exp(-((x - 10.0) / 2) ** 2))  # vanishes near 0
        p = project_H0(f, 2)
        assert np.max(np.abs(p.values - f.values)) < 1e-8


class TestSupportProjection:
    def test_plus_supported_unchanged(self):
        g = Grid(40.0, 2048, FULL_LINE)
        x = g.points
        F = GridFunction(g, np.exp(-((x - 8) / 2) ** 2) * plateau(x, 8.0, 4.0, 7.0))
        out = support_projection(F, solve_reflection_coefficients(1))
        assert np.max(np.abs(out.values - F.values)) < 1e-10

    def test_output_vanishes_on_left(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = generate_test_family(g, 40, 1, "boundary-touching")[0]
        out = support_projection(f, solve_reflection_coefficients(1))
        zero = g.zero_index
        assert np.max(np.abs(out.values[:zero, 0])) <= 1e-8 * np.max(np.abs(f.values))

    @settings(max_examples=50, deadline=None)
    @given(half_width=half_widths, n=grid_sizes, fiber_dim=fiber_dims, seed=seeds,
           m=st.integers(0, 3))
    def test_idempotent(self, half_width, n, fiber_dim, seed, m):
        # n counts the nodes of the half-line restriction
        g = Grid(half_width, n, HALF_LINE).companion(FULL_LINE)
        c = solve_reflection_coefficients(m)
        once = support_projection(random_function(g, fiber_dim, seed), c)
        twice = support_projection(once, c)
        assert np.array_equal(twice.values, once.values)

    def test_retraction_identity(self):
        # inclusion followed by the projection is the identity on
        # plus-supported functions
        g = Grid(40.0, 2048, FULL_LINE)
        x = g.points
        c = solve_reflection_coefficients(2)
        F = GridFunction(g, np.exp(-((x - 10) / 3) ** 2) * plateau(x, 10.0, 5.0, 9.0))
        out = support_projection(F, c)
        assert np.max(np.abs(out.values - F.values)) < 1e-10


class TestFactorNorm:
    def test_zero_extension_attains_order_zero(self):
        g = Grid(40.0, 2048, HALF_LINE)
        f = generate_test_family(g, 42, 1)[0]
        upper = fourier.hsp_norm(zero_extend(f), 0.0, 2.0, PowerWeight(0.3))
        assert upper == pytest.approx(
            weighted_lp_norm(f, 2.0, PowerWeight(0.3)), rel=1e-10)

    def test_upper_bounds_lower(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for f in generate_test_family(g, 43, 5):
            up = factor_norm_upper(f, 0.0, 2.0, 0.2)
            lo = weighted_lp_norm(f, 2.0, PowerWeight(0.2))
            assert up >= lo - 1e-10

    def test_refinement_stability(self):
        vals = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, HALF_LINE)
            f = generate_test_family(g, 44, 1)[0]
            vals.append(factor_norm_upper(f, 0.7, 2.0, 0.0))
        assert max(vals) - min(vals) <= 0.05 * min(vals)

    def test_wh_equivalence_band_on_half_line(self):
        # first-order Sobolev norm against the reflected-extension bound
        bands = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, HALF_LINE)
            fam = generate_test_family(g, 45, 15)
            ratios = [fourier.wkp_norm(f, 1, 2.0, W0)
                      / factor_norm_upper(f, 1.0, 2.0, 0.0) for f in fam]
            bands.append((min(ratios), max(ratios)))
        lo_ref, hi_ref = bands[-1]
        for lo, hi in bands:
            assert 0.0 < lo and math.isfinite(hi)
            assert lo == pytest.approx(lo_ref, rel=0.05)
            assert hi == pytest.approx(hi_ref, rel=0.05)


class TestGagliardoNirenberg:
    def test_gaussian_closed_form(self):
        # ||u'|| / (||u||^{1/2} ||u''||^{1/2}) = 3^{-1/4} for a Gaussian
        g = Grid(40.0, 4096, FULL_LINE)
        u = GridFunction(g, np.exp(-g.points ** 2))
        assert gn_check(u, 1, 2, 2.0, 0.0) == pytest.approx(3 ** -0.25, abs=1e-6)

    def test_scale_invariance_unweighted(self):
        g = Grid(40.0, 4096, FULL_LINE)
        x = g.points
        vals = []
        for lam in (0.5, 1.0, 2.0, 4.0):
            u = GridFunction(g, np.exp(-(lam * x) ** 2)
                             * (1.0 + 0.3 * np.cos(2.0 * lam * x)))
            vals.append(gn_check(u, 1, 2, 2.0, 0.0))
        assert max(vals) - min(vals) < 1e-6

    def test_family_supremum_stable(self):
        for gamma, p in ((-0.5, 1.5), (0.0, 2.0), (1.0, 3.0)):
            sups = []
            for n in (1024, 2048, 4096):
                g = Grid(40.0, n, FULL_LINE)
                fam = generate_test_family(g, 46, 20)
                sups.append(max(gn_check(f, 1, 2, p, gamma) for f in fam))
            assert all(math.isfinite(v) for v in sups)
            assert max(sups) - min(sups) <= 0.10 * min(sups)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_input_flagged(self):
        g = Grid(40.0, 1024, FULL_LINE)
        u = GridFunction(g, np.ones(1024))
        with pytest.raises(DegenerateInputError):
            gn_check(u, 1, 2, 2.0, 0.0)


# sweep inputs: grids whose edge samples lie outside the family windows,
# fiber dimensions 1 and 2, exponents p > 1 and weights gamma > -1
sweep_sizes = st.sampled_from([2 ** k for k in range(6, 11)])
sweep_fibers = st.integers(1, 2)
sweep_ps = st.floats(1.1, 4.0)
sweep_gammas = st.floats(-0.9, 2.0)


class TestSweeps:
    @settings(max_examples=30, deadline=None)
    @given(n=sweep_sizes, fiber_dim=sweep_fibers, seed=seeds,
           spg=st.lists(st.tuples(st.floats(-1.5, 1.5), sweep_ps, sweep_gammas),
                        min_size=1, max_size=5))
    def test_multiplier_ratios_equal_the_scalar_path(self, n, fiber_dim, seed, spg):
        f = generate_test_family(Grid(40.0, n, FULL_LINE), seed, 1, "boundary-touching",
                                 fiber_dim=fiber_dim)[0]
        ratios = multiplier_norm_ratios(f, spg)
        assert len(ratios) == len(spg)
        for ratio, (s, p, gamma) in zip(ratios, spg):
            assert ratio == multiplier_norm_ratio(f, s, p, gamma)
            # the former formula: two Bessel-potential norms per triple
            w = PowerWeight(gamma)
            assert ratio == (fourier.hsp_norm(indicator_multiply(f), s, p, w)
                             / fourier.hsp_norm(f, s, p, w))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from([FULL_LINE, HALF_LINE]), n=sweep_sizes,
           fiber_dim=sweep_fibers, seed=seeds, jk=st.sampled_from([(1, 2), (1, 3), (2, 3)]),
           pg=st.lists(st.tuples(sweep_ps, sweep_gammas), min_size=1, max_size=5))
    def test_gn_ratios_equal_the_scalar_path(self, kind, n, fiber_dim, seed, jk, pg):
        j, k = jk
        u = generate_test_family(Grid(40.0, n, kind), seed, 1, fiber_dim=fiber_dim)[0]
        ratios = gn_ratios(u, j, k, pg)
        assert len(ratios) == len(pg)
        for ratio, (p, gamma) in zip(ratios, pg):
            assert ratio == gn_check(u, j, k, p, gamma)
            # the former formula: two seminorms and one norm per (p, gamma)
            w = PowerWeight(gamma)
            denom = (weighted_lp_norm(u, p, w) ** (1.0 - j / k)
                     * fourier.wkp_seminorm(u, k, p, w) ** (j / k))
            assert ratio == float(fourier.wkp_seminorm(u, j, p, w) / denom)

    def test_one_forward_transform_per_input(self, monkeypatch):
        # the pinned tables of pointwise-multiplier and hardy-gn: f and
        # 1_{x>=0} f once each for 9 triples, u once for 7 (p, gamma)
        g = Grid(40.0, 1024, FULL_LINE)
        f = generate_test_family(g, 3, 1, "boundary-touching")[0]
        u = generate_test_family(g, 4, 1)[0]
        triples = _MULTIPLIER_TRIPLES
        assert (len(triples), len(_GN_PAIRS)) == (9, 7)
        forward = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: forward.append(1) or rfft(*a, **kw))
        multiplier_norm_ratios(f, triples)
        assert len(forward) == 2
        forward.clear()
        gn_ratios(u, 1, 2, _GN_PAIRS)
        assert len(forward) == 1

    def test_each_symbol_evaluated_once(self, monkeypatch):
        # 9 pinned triples: one table each, shared by f and 1_{x>=0} f and
        # by later calls on the same grid, and one boundary-decay check per
        # input
        g = Grid(40.0, 1024, FULL_LINE)
        f = generate_test_family(g, 3, 1, "boundary-touching")[0]
        fourier._symbol_values.cache_clear()
        checks = []
        check = fourier.warn_if_boundary_heavy
        monkeypatch.setattr(fourier, "warn_if_boundary_heavy",
                            lambda *a: checks.append(1) or check(*a))
        first = multiplier_norm_ratios(f, _MULTIPLIER_TRIPLES)
        assert (fourier._symbol_values.cache_info().misses, len(checks)) == (9, 2)
        assert multiplier_norm_ratios(f, _MULTIPLIER_TRIPLES) == first
        assert (fourier._symbol_values.cache_info().misses, len(checks)) == (9, 4)

    @pytest.mark.parametrize("suite, tables", [("pointwise-multiplier", 35), ("hardy-gn", 10)])
    def test_suites_build_each_table_once(self, suite, tables):
        # pointwise-multiplier: 9 pinned triples and the orders 0.8, 1.8 of
        # the zero-trace windows on 3 grids, and the derivatives of the
        # commutation case; one build per (symbol, grid), where one per
        # family member took 1,470
        fourier._symbol_values.cache_clear()
        assert run_suite(suite, 42).passed
        assert fourier._symbol_values.cache_info().misses == tables


class TestHardyEmbedding:
    def test_family_supremum_stable(self):
        sups = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, FULL_LINE)
            fam = generate_test_family(g, 47, 20)
            sups.append(max(hardy_embedding_check(f, 0.4, 2.0, 0.5) for f in fam))
        assert max(sups) - min(sups) <= 0.10 * min(sups)

    def test_zero_input_flagged(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(DegenerateInputError):
            hardy_embedding_check(GridFunction(g, np.zeros(1024)), 0.4, 2.0, 0.5)

    def test_inadmissible_target_weight(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        with pytest.raises(Exception):
            hardy_embedding_check(f, 0.9, 2.0, 0.0)  # gamma - sp < -1
