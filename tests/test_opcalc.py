import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from fracspace.grid import (
    FULL_LINE,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    dual_pairing,
    weighted_lp_norm,
)
from fracspace import fourier, halfline
from fracspace.opcalc import (
    DIRICHLET,
    MINUS,
    HalfLineOperator,
    fractional_power,
    integration_by_parts_check,
    resolvent,
    riemann_liouville,
    domain_norm_ratio,
    sectoriality_probe,
    _balakrishnan_kernel,
    _op_norm_singular_value,
    _resolvent_map,
    _taps,
)
from fracspace.harness import generate_test_family

from helpers import plateau

W0 = PowerWeight(0.0)
OP_D = HalfLineOperator(DIRICHLET, 2.0, 0.0)
OP_M = HalfLineOperator(MINUS, 2.0, 0.0)


def _relative(a: GridFunction, b: GridFunction) -> float:
    return (weighted_lp_norm(a - b, 2.0, W0) / weighted_lp_norm(b, 2.0, W0))


class TestResolvent:
    def test_step_response(self):
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, plateau(t, 0.0, 20.0, 35.0))
        u = resolvent(OP_D, 1.0, f)
        mask = t <= 18.0
        assert np.max(np.abs(u.values[mask, 0] - (1 - np.exp(-t[mask])))) < 1e-8

    def test_exponential_forcing(self):
        # piecewise-linear exactness: the interpolation error sits at O(h^2),
        # so the 1e-8 comparison runs on a fine grid
        g = Grid(40.0, 2 ** 17, HALF_LINE)
        t = g.points
        u = resolvent(OP_D, 1.0, GridFunction(g, np.exp(-t)))
        assert np.max(np.abs(u.values[:, 0] - t * np.exp(-t))) < 1e-8

    def test_minus_variant_exponential(self):
        g = Grid(40.0, 2 ** 17, HALF_LINE)
        t = g.points
        u = resolvent(OP_M, 1.0, GridFunction(g, np.exp(-t)))
        keep = t <= 35.0
        assert np.max(np.abs(u.values[keep, 0] - np.exp(-t[keep]) / 2)) < 1e-8

    def test_dirichlet_boundary_exact(self):
        g = Grid(40.0, 2048, HALF_LINE)
        f = generate_test_family(g, 50, 1)[0]
        u = resolvent(OP_D, complex(2.0, 1.0), f)
        assert u.values[0, 0] == 0.0

    @pytest.mark.parametrize("lam", [1e-6, 0.3, complex(1.3, 0.7),
                                     complex(1e3, -40.0), 1e4])
    def test_dirichlet_initial_value_exactly_zero(self, lam):
        # complex data with f(0) != 0: the cancellation of beta f_0 in the
        # filter's first step is not exact in floating point on its own
        rng = np.random.default_rng(66)
        values = rng.standard_normal((1024, 2)) + 1j * rng.standard_normal((1024, 2))
        u = _resolvent_map(DIRICHLET, lam, values, 40.0 / 1024)
        assert np.all(u[0] == 0.0)

    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    @pytest.mark.parametrize("lam", [0.05, complex(1.3, 0.7), complex(40.0, -25.0)])
    def test_adjoint_dot_product(self, variant, lam):
        # <M x, y> = <x, M^H y> for the discrete maps, on unstructured vectors
        n, h = 2048, 40.0 / 2048
        rng = np.random.default_rng(67)
        x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        lhs = np.vdot(y, _resolvent_map(variant, lam, x, h))
        rhs = np.vdot(_resolvent_map(variant, lam, y, h, adjoint=True), x)
        scale = np.linalg.norm(_resolvent_map(variant, lam, x, h)) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_rejects_left_half_plane(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(g, np.exp(-g.points))
        with pytest.raises(ValueError):
            resolvent(OP_D, complex(-1.0, 0.5), f)

    def test_ode_residual(self):
        g = Grid(40.0, 2 ** 16, HALF_LINE)
        fam = generate_test_family(g, 51, 5, support=(0.2, 0.6))
        rng = np.random.default_rng(52)
        for f in fam:
            lam = complex(rng.uniform(1, 4), rng.uniform(-2, 2))
            u = resolvent(OP_D, lam, f)
            du = fourier.spectral_derivative(halfline.zero_extend(u))
            res = halfline.restrict_plus(du) + lam * u - f
            assert weighted_lp_norm(res, 2.0, W0) <= 1e-6 * weighted_lp_norm(f, 2.0, W0)

    def test_resolvent_identity_discretization_consistent(self):
        # the piecewise-linear re-sampling between compositions carries an
        # O(h^2) consistency error, so the identity is checked at that scale
        # together with its refinement rate
        lam, mu = complex(1.0, 0.5), complex(2.5, -0.3)
        worst = {}
        for n in (4096, 16384):
            g = Grid(40.0, n, HALF_LINE)
            fam = generate_test_family(g, 53, 5)
            w = 0.0
            for f in fam:
                lhs = resolvent(OP_D, lam, f) - resolvent(OP_D, mu, f)
                rhs = (mu - lam) * resolvent(OP_D, lam, resolvent(OP_D, mu, f))
                w = max(w, weighted_lp_norm(lhs - rhs, 2.0, W0)
                        / weighted_lp_norm(f, 2.0, W0))
            worst[n] = w
        assert worst[4096] < 5e-5
        assert worst[16384] < worst[4096] / 8.0  # second-order refinement

    def test_left_inverse_kernel_triviality(self):
        # (lam + A) has trivial kernel on the discretization: the resolvent
        # inverts it back to the input at the piecewise-linear consistency level
        worst = {}
        for n in (4096, 16384):
            g = Grid(40.0, n, HALF_LINE)
            fam = generate_test_family(g, 54, 5)
            lam = complex(1.5, 0.4)
            w = 0.0
            for u in fam:
                au = OP_D.apply(u)
                f = GridFunction(g, lam * u.values + au.values)
                back = resolvent(OP_D, lam, f)
                w = max(w, weighted_lp_norm(back - u, 2.0, W0)
                        / weighted_lp_norm(u, 2.0, W0))
            worst[n] = w
        assert worst[4096] < 2e-4
        assert worst[16384] < worst[4096] / 8.0

    def test_adjoint_relation(self):
        # <T(lam) f, g> = <f, S(conj lam) g> for the Dirichlet/minus pair
        g = Grid(40.0, 4096, HALF_LINE)
        fam_f = generate_test_family(g, 55, 6)
        fam_g = generate_test_family(g, 56, 6)
        lam = complex(1.3, 0.7)
        for f, v in zip(fam_f, fam_g):
            lhs = dual_pairing(resolvent(OP_D, lam, f), v)
            rhs = dual_pairing(f, resolvent(OP_M, np.conj(lam), v))
            scale = weighted_lp_norm(f, 2.0, W0) * weighted_lp_norm(v, 2.0, W0)
            assert abs(lhs - rhs) <= 1e-8 * scale


# independent references: the four recursions as scipy.signal.lfilter
# filters (tests may import scipy.signal; the package must not)
def _lfilter_dirichlet(lam, x, h):
    E, beta, alpha = _taps(DIRICHLET, lam, h)
    y, _ = signal.lfilter([beta, alpha], [1.0, -E], x, axis=0, zi=(-beta * x[0])[None, :])
    y[0] = 0.0
    return y


def _lfilter_dirichlet_adjoint(lam, x, h):
    E, beta, alpha = _taps(DIRICHLET, lam, h)
    E, alpha, beta = np.conj(E), np.conj(alpha), np.conj(beta)
    rev = x[::-1]
    y = signal.lfilter([beta, alpha], [1.0, -E], rev, axis=0)[::-1]
    y[0] -= beta * signal.lfilter([1.0], [1.0, -E], rev, axis=0)[-1]
    return y


def _lfilter_minus(lam, x, h):
    E, alpha_p, beta_p = _taps(MINUS, lam, h)
    return signal.lfilter([alpha_p, beta_p], [1.0, -E], x[::-1], axis=0)[::-1]


def _lfilter_minus_adjoint(lam, x, h):
    E, alpha_p, beta_p = _taps(MINUS, lam, h)
    return signal.lfilter([np.conj(alpha_p), np.conj(beta_p)], [1.0, -np.conj(E)], x, axis=0)


# the sector that resolvent-sectoriality probes: |arg lambda| <= pi - angle
_PROBED_ARG = math.pi / 4 + 0.1


class TestResolventRecursionOracle:
    """The banded-solve recursions against an independent ``lfilter`` form."""

    @settings(max_examples=60, deadline=None)
    @given(log_lam_h=st.floats(-5.0, 2.0), arg=st.floats(-_PROBED_ARG, _PROBED_ARG),
           n=st.sampled_from([64, 256, 1024]), fiber_dim=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_maps_match_lfilter(self, log_lam_h, arg, n, fiber_dim, seed):
        h = 40.0 / n
        lam = 10.0 ** log_lam_h / h * cmath.exp(1j * arg)
        rng = np.random.default_rng(seed)
        x, y = (rng.standard_normal((n, fiber_dim)) + 1j * rng.standard_normal((n, fiber_dim))
                for _ in range(2))
        for variant, ref_fwd, ref_adj in (
                (DIRICHLET, _lfilter_dirichlet, _lfilter_dirichlet_adjoint),
                (MINUS, _lfilter_minus, _lfilter_minus_adjoint)):
            mx = _resolvent_map(variant, lam, x, h)
            mhy = _resolvent_map(variant, lam, y, h, adjoint=True)
            for got, ref in ((mx, ref_fwd(lam, x, h)), (mhy, ref_adj(lam, y, h))):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            gap = abs(np.vdot(y, mx) - np.vdot(mhy, x))
            assert gap <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert np.all(_resolvent_map(DIRICHLET, lam, x, h)[0] == 0.0)


class TestSectorialityProbe:
    def test_real_axis_contraction(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for r in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            est = _op_norm_singular_value(OP_D, complex(r), g)[0]
            assert est <= 1.0 + 1e-6

    def test_dilation_covariance_unweighted(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for phi in (0.0, 0.6):
            a = _op_norm_singular_value(OP_D, 2.0 * cmath.exp(1j * phi), g)[0]
            b = _op_norm_singular_value(OP_D, 4.0 * cmath.exp(1j * phi), g)[0]
            assert abs(a - b) <= 0.05 * a

    def test_probe_structure_and_methods(self):
        g = Grid(40.0, 1024, HALF_LINE)
        probes = sectoriality_probe(OP_D, g, [3 * math.pi / 4], [0.5, 2.0])
        probe = probes[0]
        assert probe.supremum < math.inf
        assert all(e["method"] == "singular-value" for e in probe.entries)
        rec = json.loads(probe.to_json())
        assert set(rec) == {"variant", "p", "gamma", "angle", "entries"}
        # probing below the true type angle reaches outside the resolvent set
        wide = sectoriality_probe(OP_D, g, [math.pi / 4], [1.0])[0]
        assert wide.supremum == math.inf
        assert any(e["method"] == "outside-resolvent-set" for e in wide.entries)

    def test_entries_report_power_iteration_convergence(self):
        g = Grid(40.0, 1024, HALF_LINE)
        _, iterations, converged = _op_norm_singular_value(OP_D, 0.25, g)
        assert converged and 1 < iterations < 400
        assert _op_norm_singular_value(OP_D, 0.25, g, max_iter=3)[1:] == (3, False)
        # at |lambda| = 4 the relative-change stop does not fire within the cap
        probe = sectoriality_probe(OP_D, g, [3 * math.pi / 4], [0.25, 4.0])[0]
        assert {e["converged"] for e in probe.entries} == {True, False}
        for e in probe.entries:
            lam_e = complex(e["re_lambda"], e["im_lambda"])
            est, iterations, converged = _op_norm_singular_value(OP_D, lam_e, g)
            assert e["norm_estimate"] == pytest.approx(est, rel=1e-12)
            assert (e["iterations"], e["converged"]) == (iterations, converged)
            assert e["converged"] or e["iterations"] == 400
        wide = sectoriality_probe(OP_D, g, [math.pi / 4], [1.0])[0]
        outside = [e for e in wide.entries if e["method"] == "outside-resolvent-set"]
        assert outside and all(e["iterations"] is None and e["converged"] is None
                               for e in outside)
        assert json.loads(wide.to_json())["entries"][0]["converged"] in (True, False)

    def test_random_probe_label_for_general_p(self):
        g = Grid(40.0, 1024, HALF_LINE)
        op = HalfLineOperator(DIRICHLET, 3.0, 0.0)
        probe = sectoriality_probe(op, g, [3 * math.pi / 4], [1.0])[0]
        assert all(e["method"] == "random-probe" for e in probe.entries)
        assert 0.0 < probe.supremum < math.inf

    def test_weighted_probe_finite(self):
        g = Grid(40.0, 1024, HALF_LINE)
        op = HalfLineOperator(DIRICHLET, 2.0, 0.5)
        probe = sectoriality_probe(op, g, [3 * math.pi / 4 - 0.1], [0.25, 1.0, 4.0])[0]
        assert 0.0 < probe.supremum < math.inf


class TestFractionalPower:
    def test_matches_causal_derivative(self):
        g = Grid(40.0, 4096, HALF_LINE)
        fam = generate_test_family(g, 57, 5, support=(0.1, 0.5))
        for theta in (0.25, 0.5, 0.75):
            for f in fam:
                a = fractional_power(OP_D, theta, f)
                b = riemann_liouville(f, theta)
                assert _relative(a, b) < 1e-3

    def test_theta_to_one_limit(self):
        # the gap has the analytic floor (pi/2)(1-theta) set by the symbol's
        # logarithm, so the limit is checked through its rate constant
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, np.exp(-((t - 16.0) / 4.0) ** 2) * np.exp(1j * t)
                         * plateau(t, 16.0, 9.0, 14.0))
        af = OP_D.apply(f)
        gaps = []
        for theta in (0.99, 0.999):
            a = fractional_power(OP_D, theta, f)
            gaps.append(_relative(a, af))
        assert gaps[1] < 2e-3
        assert gaps[1] == pytest.approx(gaps[0] / 10.0, rel=0.05)
        assert gaps[1] / 0.001 == pytest.approx(math.pi / 2.0, rel=0.1)

    def test_halving_composition(self):
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, np.exp(-((t - 14.0) / 3.0) ** 2) * np.sin(t - 14.0)
                         * plateau(t, 14.0, 8.0, 12.0))
        h1 = fractional_power(OP_D, 0.5, f)
        h2 = fractional_power(OP_D, 0.5, h1)
        assert _relative(h2, OP_D.apply(f)) < 5e-3

    def test_domain_violation_rejected(self):
        g = Grid(40.0, 2048, HALF_LINE)
        f = GridFunction(g, np.exp(-g.points))  # f(0) = 1
        with pytest.raises(ValueError):
            fractional_power(OP_D, 0.5, f)
        with pytest.raises(ValueError):
            fractional_power(OP_D, 1.5, generate_test_family(g, 58, 1)[0])

    def test_minus_variant_finite_and_consistent(self):
        g = Grid(40.0, 4096, HALF_LINE)
        f = generate_test_family(g, 59, 1, support=(0.2, 0.6))[0]
        a = fractional_power(OP_M, 0.5, f)
        b = fractional_power(OP_M, 0.5, a)
        assert _relative(b, OP_M.apply(f)) < 5e-3


def _reference_fractional_power(op, theta, f):
    """The Balakrishnan trapezoid as a per-lambda sum of resolvent applies."""
    u_range, u_step = 30.0, 0.05
    af = op.apply(f)
    us = np.arange(-u_range, u_range + 1e-12, u_step)
    acc = np.zeros_like(f.values)
    for i, u in enumerate(us):
        lam = math.exp(u)
        wt = u_step if 0 < i < len(us) - 1 else 0.5 * u_step
        acc += wt * lam ** theta * _resolvent_map(op.variant, lam, af.values, f.grid.h)
    acc += (math.exp(-u_range) ** theta / theta) * f.values
    acc += (math.exp(u_range) ** (theta - 1.0) / (1.0 - theta)) * af.values
    return (math.sin(math.pi * theta) / math.pi) * acc


class TestFractionalPowerKernel:
    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("op", [OP_D, OP_M], ids=["dirichlet", "minus"])
    @pytest.mark.parametrize("theta", [0.25, 0.75])
    def test_matches_per_lambda_sum(self, n, op, theta):
        # f(0) = 0 with A f(0) != 0 exercises the Dirichlet column-0 term
        g = Grid(40.0, n, HALF_LINE)
        t = g.points
        slope = t * np.exp(-t ** 2 / 8.0)
        family = generate_test_family(g, 68, 1, support=(0.1, 0.5), fiber_dim=2)[0]
        f = GridFunction(g, family.values + np.stack([slope, (1 + 2j) * slope], axis=1))
        ref = _reference_fractional_power(op, theta, f)
        out = fractional_power(op, theta, f).values
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_grids_differing_in_h_do_not_share_a_kernel(self):
        _balakrishnan_kernel.cache_clear()
        for half_width in (40.0, 30.0):
            g = Grid(half_width, 1024, HALF_LINE)
            f = generate_test_family(g, 69, 1, support=(0.1, 0.5))[0]
            ref = _reference_fractional_power(OP_D, 0.5, f)
            out = fractional_power(OP_D, 0.5, f).values
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        info = _balakrishnan_kernel.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_repeated_calls_identical_and_cache_read_only(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = generate_test_family(g, 70, 1, support=(0.1, 0.5))[0]
        for op in (OP_D, OP_M):
            first = fractional_power(op, 0.5, f)
            kept = first.values.copy()
            first.values[:] = 1e6  # the caller's array, not the cache
            again = fractional_power(op, 0.5, f)
            assert np.array_equal(again.values, kept)
            kernel = _balakrishnan_kernel(op.variant, g.h, g.n_points, 0.5)
            assert not kernel.flags.writeable
            with pytest.raises(ValueError):
                kernel[0, 0] = 0.0


class TestRiemannLiouville:
    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_power_function(self, theta):
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, t * plateau(t, 0.0, 2.0, 6.0))
        out = riemann_liouville(f, theta)
        mask = (t >= g.h) & (t <= 0.5)
        ref = t[mask] ** (1 - theta) / math.gamma(2 - theta)
        assert np.max(np.abs(out.values[mask, 0] - ref) / ref) < 1e-4

    def test_theta_to_zero_limit(self):
        # rate-constant check against the analytic floor (pi/2) theta
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        f = GridFunction(g, np.exp(-((t - 16.0) / 4.0) ** 2) * np.exp(1j * t)
                         * plateau(t, 16.0, 9.0, 14.0))
        gaps = [_relative(riemann_liouville(f, th), f) for th in (0.1, 0.01)]
        assert gaps[1] < 2e-2
        assert gaps[1] == pytest.approx(gaps[0] / 10.0, rel=0.1)

    def test_linearity(self):
        g = Grid(40.0, 2048, HALF_LINE)
        fam = generate_test_family(g, 60, 2)
        a, b = 1.7, -0.4 + 0.2j
        lhs = riemann_liouville(GridFunction(
            g, a * fam[0].values + b * fam[1].values), 0.5)
        rhs = a * riemann_liouville(fam[0], 0.5) + b * riemann_liouville(fam[1], 0.5)
        scale = np.max(np.abs(lhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * scale

    def test_rejects_bad_order(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(g, np.zeros(1024))
        with pytest.raises(ValueError):
            riemann_liouville(f, 1.2)


class TestDomainNormRatio:
    def test_band_is_tight_for_dirichlet(self):
        g = Grid(40.0, 2048, HALF_LINE)
        fam = generate_test_family(g, 61, 20, support=(0.1, 0.6))
        ratios = [domain_norm_ratio(OP_D, 0.5, f) for f in fam]
        assert max(ratios) / min(ratios) < 3.0

    def test_theta_one_uses_first_order_data(self):
        g = Grid(40.0, 2048, HALF_LINE)
        f = generate_test_family(g, 62, 1, support=(0.1, 0.6))[0]
        r = domain_norm_ratio(OP_D, 1.0, f)
        numer = (weighted_lp_norm(f, 2.0, W0)
                 + weighted_lp_norm(OP_D.apply(f), 2.0, W0))
        denom = fourier.hsp_norm(halfline.zero_extend(f), 1.0, 2.0, W0)
        assert r == pytest.approx(numer / denom, rel=1e-12)

    def test_minus_variant_uses_reflection_bound(self):
        g = Grid(40.0, 2048, HALF_LINE)
        f = generate_test_family(g, 63, 1, support=(0.1, 0.6))[0]
        r = domain_norm_ratio(OP_M, 0.5, f)
        assert 0.0 < r < math.inf


class TestIntegrationByParts:
    def test_exponential_closed_form(self):
        g = Grid(40.0, 4096, HALF_LINE)
        u = GridFunction(g, np.exp(-g.points))
        assert integration_by_parts_check(u, u) < 1e-8

    def test_zero_boundary_reduces_to_antisymmetry(self):
        g = Grid(40.0, 4096, HALF_LINE)
        t = g.points
        u0 = GridFunction(g, t * np.exp(-t))
        u = GridFunction(g, np.exp(-t))
        assert integration_by_parts_check(u0, u) < 1e-8

    def test_random_windowed_pairs(self):
        g = Grid(40.0, 4096, HALF_LINE)
        fam_u = generate_test_family(g, 64, 20)
        fam_v = generate_test_family(g, 65, 20)
        for u, v in zip(fam_u, fam_v):
            scale = (fourier.wkp_norm(u, 1, 2.0, W0)
                     * fourier.wkp_norm(v, 1, 2.0, W0))
            assert integration_by_parts_check(u, v) <= 1e-7 * scale


class TestOperatorValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError):
            HalfLineOperator("sideways", 2.0, 0.0)

    def test_weight_admissibility_checked(self):
        with pytest.raises(Exception):
            HalfLineOperator(DIRICHLET, 2.0, 1.5)
