import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, signal
from scipy.linalg import eigh_tridiagonal

from fracspace.grid import (
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    dual_pairing,
    weighted_lp_norm,
)
from fracspace import _fd, fourier, halfline, opcalc
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
    _causal_weights,
    _grid_tables,
    _negative_definite,
    _op_norm_singular_value,
    _pencil_norm,
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
        u = _resolvent_map(DIRICHLET, _taps(lam, 40.0 / 1024), values)
        assert np.all(u[0] == 0.0)

    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    @pytest.mark.parametrize("lam", [0.05, complex(1.3, 0.7), complex(40.0, -25.0)])
    def test_adjoint_dot_product(self, variant, lam):
        # <M x, y> = <x, M^H y> for the discrete maps, on unstructured vectors
        n, h = 2048, 40.0 / 2048
        rng = np.random.default_rng(67)
        x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        taps = _taps(lam, h)
        lhs = np.vdot(y, _resolvent_map(variant, taps, x))
        rhs = np.vdot(_resolvent_map(variant, taps, y, adjoint=True), x)
        scale = np.linalg.norm(_resolvent_map(variant, taps, x)) * np.linalg.norm(y)
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
    E, beta, alpha = _taps(lam, h)
    y, _ = signal.lfilter([beta, alpha], [1.0, -E], x, axis=0, zi=(-beta * x[0])[None, :])
    y[0] = 0.0
    return y


def _lfilter_dirichlet_adjoint(lam, x, h):
    E, beta, alpha = _taps(lam, h)
    E, alpha, beta = np.conj(E), np.conj(alpha), np.conj(beta)
    rev = x[::-1]
    y = signal.lfilter([beta, alpha], [1.0, -E], rev, axis=0)[::-1]
    y[0] -= beta * signal.lfilter([1.0], [1.0, -E], rev, axis=0)[-1]
    return y


def _lfilter_minus(lam, x, h):
    E, alpha_p, beta_p = _taps(lam, h)
    return signal.lfilter([alpha_p, beta_p], [1.0, -E], x[::-1], axis=0)[::-1]


def _lfilter_minus_adjoint(lam, x, h):
    E, alpha_p, beta_p = _taps(lam, h)
    return signal.lfilter([np.conj(alpha_p), np.conj(beta_p)], [1.0, -np.conj(E)], x, axis=0)


# the sector that resolvent-sectoriality probes: |arg lambda| <= pi - angle
_PROBED_ARG = math.pi / 4 + 0.1


def _quad_complex(fn) -> complex:
    """integral_0^1 of a complex function, real and imaginary parts by ``quad``."""
    return complex(*(integrate.quad(lambda x: part(fn(x)), 0.0, 1.0, epsabs=0.0,
                                    epsrel=1e-13, limit=200)[0]
                     for part in (lambda v: v.real, lambda v: v.imag)))


class TestTaps:
    @pytest.mark.parametrize("lam_h", [1e-16, 1e-12, 1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 100.0,
                                       1e3, 1e4])
    @pytest.mark.parametrize("arg", [0.0, _PROBED_ARG, -_PROBED_ARG])
    def test_match_defining_integrals(self, lam_h, arg):
        # b0 = int_0^h e^{-lam tau} (1 - tau/h) dtau, b1 = int_0^h e^{-lam tau} tau/h dtau
        h = 0.04
        z = lam_h * cmath.exp(1j * arg)
        b0_ref = h * _quad_complex(lambda x: cmath.exp(-z * x) * (1.0 - x))
        b1_ref = h * _quad_complex(lambda x: cmath.exp(-z * x) * x)
        E, b0, b1 = _taps(z / h, h)
        assert abs(b0 - b0_ref) <= 1e-13 * abs(b0_ref)
        assert abs(b1 - b1_ref) <= 1e-13 * abs(b1_ref)
        assert abs(E - cmath.exp(-z)) <= 2.0 * np.finfo(float).eps

    def test_array_call_matches_scalar_calls(self):
        # not bit for bit: Python and numpy round complex arithmetic differently.
        # E = 1 + (E - 1) is accurate on the scale of 1, b0 and b1 each on its own
        h = 0.04
        eps = np.finfo(float).eps
        lams = np.array([r * cmath.exp(1j * a) / h for r in np.logspace(-16, 3, 44)
                         for a in (0.0, _PROBED_ARG, -_PROBED_ARG)])
        E_all, b0_all, b1_all = _taps(lams, h)
        for i, lam in enumerate(lams):
            E, b0, b1 = _taps(complex(lam), h)
            assert abs(E_all[i] - E) <= 4.0 * eps
            assert abs(b0_all[i] - b0) <= 4.0 * eps * abs(b0)
            assert abs(b1_all[i] - b1) <= 4.0 * eps * abs(b1)


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
            taps = _taps(lam, h)
            mx = _resolvent_map(variant, taps, x)
            mhy = _resolvent_map(variant, taps, y, adjoint=True)
            for got, ref in ((mx, ref_fwd(lam, x, h)), (mhy, ref_adj(lam, y, h))):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            gap = abs(np.vdot(y, mx) - np.vdot(mhy, x))
            assert gap <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert np.all(_resolvent_map(DIRICHLET, _taps(lam, h), x)[0] == 0.0)


def _probed_lambdas(radius_step=1):
    """The lambdas that ``sectoriality_probe`` visits at the suite's angle
    (every ``radius_step``-th of its radii), and their conjugates."""
    return [r * cmath.exp(1j * phi) for r in (4.0 ** k for k in range(-5, 6, radius_step))
            for phi in (0.0, 0.5 * _PROBED_ARG, -0.5 * _PROBED_ARG, _PROBED_ARG, -_PROBED_ARG)]


def _dense_norm(op, lam, g):
    """sigma_max of lam (lam+A)^{-1} on L^2(w) from the assembled matrix of the map."""
    sq = np.sqrt(g.cell_weights(op.gamma))[:, None]
    eye = np.eye(g.n_points, dtype=np.complex128)
    m = lam * sq * _resolvent_map(op.variant, _taps(lam, g.h), eye / sq)
    return np.linalg.svd(m, compute_uv=False)[0]


class TestPencilNorm:
    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_dense_svd(self, variant, gamma):
        g = Grid(40.0, 256, HALF_LINE)
        op = HalfLineOperator(variant, 2.0, gamma)
        for lam in _probed_lambdas(radius_step=2):
            value, (lo, hi), certified, _ = _pencil_norm(op, lam, g)
            exact = _dense_norm(op, lam, g)
            assert certified
            assert abs(math.sqrt(value) - exact) <= 1e-10 * exact
            assert math.sqrt(lo) <= exact <= math.sqrt(hi)

    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_search_bisects_to_adjacent_floats(self, variant, gamma, monkeypatch):
        # the search doubles (or halves) from 1 to the power of two above
        # (below) the root, then halves that one-binade bracket of 2^52
        # intervals 52 times, so its step count follows from the value's
        # exponent alone; two more factorizations certify the bracket
        calls = []

        def spy(d, e):
            calls.append(None)
            return _negative_definite(d, e)

        monkeypatch.setattr("fracspace.opcalc._negative_definite", spy)
        g = Grid(40.0, 1024, HALF_LINE)
        op = HalfLineOperator(variant, 2.0, gamma)
        for lam in _probed_lambdas():
            calls.clear()
            value, _, certified, steps = _pencil_norm(op, lam, g)
            e = math.frexp(value)[1] - 1  # floor(log2(value))
            assert certified and len(calls) == steps + 2
            assert steps == 52 + (e + 2 if e >= 0 else 1 - e)

    def test_certified_at_n_65536(self):
        # the entries of the gamma = 0.5 sector whose roots sit nearest the
        # rounding of b0: lam = 4^-5 on the real axis and at the edge, 4^-3
        g = Grid(40.0, 65536, HALF_LINE)
        op = HalfLineOperator(DIRICHLET, 2.0, 0.5)
        for lam in (4.0 ** -5, 4.0 ** -5 * cmath.exp(1j * _PROBED_ARG), 4.0 ** -3):
            assert _pencil_norm(op, complex(lam), g)[2]

    def test_unconverged_root_is_not_certified(self, monkeypatch):
        # three factorizations (at 1, 2 and 1.5) leave the root, about 1.47,
        # in [1, 1.5), and the value, the lower end 1, is far below it
        g = Grid(40.0, 1024, HALF_LINE)
        lam = 4.0 * cmath.exp(0.6j)
        assert _pencil_norm(OP_D, lam, g)[2]
        monkeypatch.setattr("fracspace.opcalc._PENCIL_STEPS", 3)
        _, _, certified, steps = _pencil_norm(OP_D, lam, g)
        assert steps == 3 and not certified


def _no_eigenvalue_above_zero(d, e):
    """The eigenvalue count the certificate used before: none in (0, inf)."""
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(0.0, np.inf)).size == 0


class TestNegativeDefinite:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 16, 256, 1024]), seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_eigenvalue_count_on_random_shifts(self, n, seed):
        # shifts spread from far off the top eigenvalue to within 1e-10 of it
        rng = np.random.default_rng(seed)
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        top = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                               select_range=(n - 1, n - 1))[0]
        scale = max(abs(top), 1.0)
        offsets = rng.choice([-1.0, 1.0], 12) * 10.0 ** rng.uniform(-10.0, 1.0, 12)
        for shift in top + scale * offsets:
            assert _negative_definite(d - shift, e) is _no_eigenvalue_above_zero(d - shift, e)

    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    def test_agrees_with_eigenvalue_count_at_the_bracket_ends(self, variant, monkeypatch):
        # the shifted pencils the certificate factors, at both ends of each
        # bracket: the last two factorizations of each call.  The search's
        # own shifts come within rounding of the root, where the LDL^T
        # pivots and the eigenvalue count may round differently
        seen, ends = [], []

        def spy(d, e):
            seen.append((d.copy(), e.copy()))
            return _negative_definite(d, e)

        monkeypatch.setattr("fracspace.opcalc._negative_definite", spy)
        g = Grid(40.0, 1024, HALF_LINE)
        for gamma in (-0.5, 0.5):
            op = HalfLineOperator(variant, 2.0, gamma)
            for lam in _probed_lambdas(radius_step=2):
                _pencil_norm(op, lam, g)
                ends += seen[-2:]
        assert len(ends) == 4 * len(_probed_lambdas(radius_step=2))
        for d, e in ends:
            assert _negative_definite(d, e) is _no_eigenvalue_above_zero(d, e)


class TestSectorialityProbe:
    def test_real_axis_contraction(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for r in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            _, (_, hi), certified, _ = _pencil_norm(OP_D, complex(r), g)
            assert certified and math.sqrt(hi) <= 1.0 + 1e-6
            assert _op_norm_singular_value(OP_D, complex(r), g) <= 1.0 + 1e-6

    def test_dilation_covariance_unweighted(self):
        g = Grid(40.0, 2048, HALF_LINE)
        for phi in (0.0, 0.6):
            a = math.sqrt(_pencil_norm(OP_D, 2.0 * cmath.exp(1j * phi), g)[0])
            b = math.sqrt(_pencil_norm(OP_D, 4.0 * cmath.exp(1j * phi), g)[0])
            assert abs(a - b) <= 0.05 * a

    @pytest.mark.parametrize("variant", [DIRICHLET, MINUS])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @settings(max_examples=20, deadline=None)
    @given(log_r=st.floats(-7.0, 7.0), arg=st.floats(0.0, _PROBED_ARG))
    # both ends of the root search: halving from 1 to a root of 3e-4 to
    # 1e-3, doubling to a root of 2.3 to 2.8 at the sector edge
    @example(log_r=-7.0, arg=0.0)
    @example(log_r=0.0, arg=_PROBED_ARG)
    def test_conjugate_lambda_has_identical_pencil(self, variant, gamma, log_r, arg):
        # why the probe skips arg lambda < 0: the map at conj(lambda) is the
        # conjugate of the map at lambda, and its pencil is bit-identical
        g = Grid(40.0, 256, HALF_LINE)
        op = HalfLineOperator(variant, 2.0, gamma)
        lam = math.exp(log_r) * cmath.exp(1j * arg)
        pencil = _pencil_norm(op, lam, g)
        assert _pencil_norm(op, lam.conjugate(), g) == pencil
        # and the assembled map, independent of the pencil, has the same
        # norm, inside the certified bracket
        dense = _dense_norm(op, lam, g)
        assert _dense_norm(op, lam.conjugate(), g) == pytest.approx(dense, rel=1e-12)
        _, (lo, hi), certified, _ = pencil
        assert certified and math.sqrt(lo) <= dense <= math.sqrt(hi)

    def test_probe_structure_and_methods(self):
        g = Grid(40.0, 1024, HALF_LINE)
        probes = sectoriality_probe(OP_D, g, [3 * math.pi / 4], [0.5, 2.0])
        probe = probes[0]
        assert all(e["norm_estimate"] < math.inf for e in probe.entries)
        assert all(e["method"] == "singular-value" for e in probe.entries)
        assert (probe.variant, probe.p, probe.gamma, probe.angle) == (
            DIRICHLET, 2.0, 0.0, 3 * math.pi / 4)
        # probing below the true type angle reaches outside the resolvent set
        wide = sectoriality_probe(OP_D, g, [math.pi / 4], [1.0])[0]
        assert any(e["norm_estimate"] == math.inf for e in wide.entries)
        assert any(e["method"] == "outside-resolvent-set" for e in wide.entries)

    @pytest.mark.parametrize("op", [OP_D, OP_M, HalfLineOperator(DIRICHLET, 2.0, 0.5),
                                    HalfLineOperator(MINUS, 2.0, 0.5)],
                             ids=["dirichlet-0", "minus-0", "dirichlet-0.5", "minus-0.5"])
    def test_entries_report_pencil_certificate(self, op):
        g = Grid(40.0, 1024, HALF_LINE)
        probe = sectoriality_probe(op, g, [3 * math.pi / 4 - 0.1], [0.25, 4.0, 64.0])[0]
        for e in probe.entries:
            lam_e = complex(e["re_lambda"], e["im_lambda"])
            value, (lo, hi), certified, steps = _pencil_norm(op, lam_e, g)
            # equal up to rounding: numpy's reductions depend on array alignment
            assert e["norm_estimate"] == pytest.approx(math.sqrt(value), rel=1e-12)
            assert e["bracket"] == pytest.approx([math.sqrt(lo), math.sqrt(hi)], rel=1e-12)
            assert e["steps"] == steps >= 1
            assert e["certified"] is certified is True
            assert e["bracket"][0] <= e["norm_estimate"] <= e["bracket"][1]
            assert e["power_lower"] == pytest.approx(_op_norm_singular_value(op, lam_e, g),
                                                     rel=1e-12)
            assert 0.0 < e["power_lower"] <= e["bracket"][1]
        wide = sectoriality_probe(op, g, [math.pi / 4], [1.0])[0]
        outside = [e for e in wide.entries if e["method"] == "outside-resolvent-set"]
        assert outside and all(
            e[k] is None for e in outside
            for k in ("bracket", "steps", "power_lower", "certified"))
        assert wide.entries[0]["certified"] is True

    def test_general_p_rejected(self):
        # no estimator bounds the L^p sector norm from both sides for p != 2
        g = Grid(40.0, 1024, HALF_LINE)
        for p in (1.5, 3.0):
            with pytest.raises(ValueError, match="p = 2"):
                sectoriality_probe(HalfLineOperator(DIRICHLET, p, 0.0), g,
                                   [3 * math.pi / 4], [1.0])

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_not_finite_and_positive_rejected(self, radius):
        # a NaN or infinite radius gave an entry of norm 0.0 by the
        # singular-value method, a negative one probed arguments never asked
        # for and reported them outside the resolvent set
        g = Grid(40.0, 256, HALF_LINE)
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            sectoriality_probe(OP_D, g, [3 * math.pi / 4], [1.0, radius])

    def test_weighted_probe_finite(self):
        g = Grid(40.0, 1024, HALF_LINE)
        op = HalfLineOperator(DIRICHLET, 2.0, 0.5)
        probe = sectoriality_probe(op, g, [3 * math.pi / 4 - 0.1], [0.25, 1.0, 4.0])[0]
        assert all(0.0 < e["norm_estimate"] < math.inf for e in probe.entries)


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
    """The Balakrishnan trapezoid as a per-lambda sum of resolvent applies, on
    the nodes of ``opcalc`` and with the same closed-form tails and end
    correction."""
    u_range, u_step = opcalc._U_RANGE, opcalc._U_STEP
    af = op.apply(f)
    us = np.arange(-u_range, u_range + 1e-12, u_step)
    acc = np.zeros_like(f.values, dtype=complex)
    for i, u in enumerate(us):
        lam = math.exp(u)
        wt = u_step if 0 < i < len(us) - 1 else 0.5 * u_step
        acc += wt * lam ** theta * _resolvent_map(op.variant, _taps(lam, f.grid.h), af.values)
    end = u_step ** 2 / 12.0
    acc += math.exp(-u_range * theta) * (1.0 / theta + end * theta) * f.values
    acc += (math.exp(u_range * (theta - 1.0))
            * (1.0 / (1.0 - theta) + end * (1.0 - theta)) * af.values)
    return (math.sin(math.pi * theta) / math.pi) * acc


_PER_LAMBDA_CASES = [
    *[pytest.param(theta, op, n, id=f"{theta}-{name}-{n}")
      for theta in (0.25, 0.75) for op, name in ((OP_D, "dirichlet"), (OP_M, "minus"))
      for n in (1024, 4096)],
    pytest.param(0.25, OP_D, 16384, id="0.25-dirichlet-16384"),
]


def _clear_fractional_power_caches():
    """Empty every cache that ``fractional_power`` and ``riemann_liouville`` read."""
    for cache in (_grid_tables, _balakrishnan_kernel, _causal_weights):
        cache.cache_clear()


# the calls of one benchmark fracpower-xcheck pass, in its order, one input
# per grid: (N, theta, also the causal oracle), over 3 grids and 11 keys
_XCHECK_ORDER = ([(4096, theta, True) for theta in (0.25, 0.5, 0.75)]
                 + [(n, theta, False) for theta in (0.5, 0.3, 0.7)
                    for n in (1024, 2048, 4096)])


class TestExponentialSums:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 17, 1024, 4097]), seed=st.integers(0, 2 ** 32 - 1),
           log_e=st.lists(st.one_of(
               # a decay that passes the cutoff at power d, inside or past the row
               st.floats(0.25, 8200.0).map(lambda d: -opcalc._DECAY_CUTOFF / d),
               st.floats(-50.0, 0.0), st.just(0.0), st.just(-math.inf)), max_size=30))
    @example(n=4097, seed=1, log_e=[0.0, -math.inf, -1e-3, -0.2, -3.0])
    @example(n=17, seed=2, log_e=[0.0, 0.0, -math.inf, -math.inf])
    def test_matches_direct_evaluation(self, n, seed, log_e):
        # one node that passes the cutoff halfway along the row is always there
        log_e = np.sort(np.array(log_e + [-opcalc._DECAY_CUTOFF / (0.5 * n + 0.25)]))[::-1]
        rng = np.random.default_rng(seed)
        first = rng.standard_normal((2, log_e.size))
        rate = 10.0 ** rng.uniform(-30.0, 30.0, (2, log_e.size))
        out = opcalc._exponential_sums(first, rate, opcalc._power_tables(log_e, n), n)
        assert out.shape == (2, n)
        assert np.allclose(out[:, 0], first.sum(axis=1), rtol=1e-14, atol=0.0)
        # sum_i rate_i E_i^k in extended precision, E^0 = 1 also where E = 0
        k = np.arange(n - 1, dtype=np.longdouble)
        with np.errstate(invalid="ignore"):
            powers = np.exp(log_e.astype(np.longdouble)[:, None] * k)
        powers[:, 0] = 1.0
        direct = rate.astype(np.longdouble) @ powers
        # terms below e^-cutoff are dropped and float64 underflows to subnormal
        # steps, so these bound the absolute error
        dropped = (np.exp(np.longdouble(-opcalc._DECAY_CUTOFF)) * direct[:, :1]
                   + np.finfo(float).smallest_subnormal * log_e.size)
        assert np.all(np.abs(out[:, 1:] - direct) <= 1e-13 * direct + dropped)


class TestFractionalPowerKernel:
    @pytest.mark.parametrize("theta, op, n", _PER_LAMBDA_CASES)
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

    @pytest.mark.parametrize("theta", [0.25, 0.9])
    def test_end_correction_matches_a_wider_range(self, theta, monkeypatch):
        # without the step^2/12 end terms range 80 is 1e-8 off range 120 at
        # theta = 0.9 (large end); with them the two agree to rounding
        g = Grid(40.0, 4096, HALF_LINE)
        f = generate_test_family(g, 72, 1, support=(0.1, 0.5))[0]
        _clear_fractional_power_caches()
        out = fractional_power(OP_D, theta, f)
        monkeypatch.setattr(opcalc, "_U_RANGE", 120.0)
        _clear_fractional_power_caches()
        wide = fractional_power(OP_D, theta, f)
        _clear_fractional_power_caches()  # no range-120 table or kernel outlives the test
        assert _relative(out, wide) < 1e-12

    def test_grids_differing_in_h_do_not_share_a_kernel(self):
        _clear_fractional_power_caches()
        for half_width in (40.0, 30.0):
            g = Grid(half_width, 1024, HALF_LINE)
            f = generate_test_family(g, 69, 1, support=(0.1, 0.5))[0]
            ref = _reference_fractional_power(OP_D, 0.5, f)
            out = fractional_power(OP_D, 0.5, f).values
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        for cache in (_grid_tables, _balakrishnan_kernel):
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (2, 2)

    def test_both_variants_share_one_kernel(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = generate_test_family(g, 71, 1, support=(0.1, 0.5))[0]
        _clear_fractional_power_caches()
        fractional_power(OP_D, 0.5, f)
        fractional_power(OP_M, 0.5, f)
        info = _balakrishnan_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_operands_equal_a_cold_build(self):
        # interleaved as in a benchmark pass: every call equals the same call
        # with every cache emptied first, and the three grids build their
        # tables once for the 11 (h, N, theta) keys
        inputs = {n: generate_test_family(Grid(40.0, n, HALF_LINE), 73, 1,
                                          support=(0.1, 0.5), fiber_dim=2)[0]
                  for n in (1024, 2048, 4096)}

        calls = []
        for n, theta, oracle in _XCHECK_ORDER:
            f = inputs[n]
            calls += [functools.partial(fractional_power, op, theta, f) for op in (OP_D, OP_M)]
            if oracle:
                calls.append(functools.partial(riemann_liouville, f, theta))
        cold = []
        for call in calls:
            _clear_fractional_power_caches()
            cold.append(call().values)
        _clear_fractional_power_caches()
        warm = [call().values for call in calls]
        assert len(warm) == 27
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
        assert _grid_tables.cache_info().misses == 3
        assert _balakrishnan_kernel.cache_info().misses == 11
        assert _causal_weights.cache_info().misses == 3

    def test_repeated_calls_identical_and_cache_read_only(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = generate_test_family(g, 70, 1, support=(0.1, 0.5))[0]
        for op in (OP_D, OP_M):
            first = fractional_power(op, 0.5, f)
            kept = first.values.copy()
            first.values[:] = 1e6  # the caller's array, not the cache
            again = fractional_power(op, 0.5, f)
            assert np.array_equal(again.values, kept)
        oracle = riemann_liouville(f, 0.5)
        kept = oracle.values.copy()
        oracle.values[:] = 1e6
        assert np.array_equal(riemann_liouville(f, 0.5).values, kept)
        lam, taps, (table, starts) = _grid_tables(g.h, g.n_points)
        spectrum, row1 = _balakrishnan_kernel(g.h, g.n_points, 0.5)
        weights, shift, _ = _causal_weights(g.h, g.n_points, 0.5)
        cached = [lam, *taps, table, *starts, spectrum, row1, weights, shift]
        assert len(starts) == 32  # blocks of 32 powers over 1023
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0


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

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_equals_cell_by_cell_product_integration(self, theta):
        # the convolution form against the cell sum it stands for: on
        # [t_j, t_j+1] the linear interpolant of f' against (t_i - s)^-theta,
        # in closed form; f'(0) = 1 exercises the zero-start term
        g = Grid(4.0, 64, HALF_LINE)
        t, h = g.points, g.h
        f = GridFunction(g, t * np.exp(-t) * (1.0 + 0.5j * np.sin(3.0 * t)))
        df = _fd.derivative_array(f.values, h)[:, 0]
        one, two = 1.0 - theta, 2.0 - theta
        ref = np.zeros(g.n_points, dtype=complex)
        for i in range(1, g.n_points):
            for j in range(i):
                a, b = t[i] - t[j + 1], t[i] - t[j]
                p1, p2 = (b ** one - a ** one) / one, (b ** two - a ** two) / two
                ref[i] += (df[j] * (p2 - a * p1) + df[j + 1] * (b * p1 - p2)) / h
        ref /= math.gamma(one)
        out = riemann_liouville(f, theta).values[:, 0]
        assert np.max(np.abs(out - ref)) < 1e-13 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.2, math.nan])
    def test_theta_outside_zero_one_closed_rejected(self, theta):
        g = Grid(40.0, 256, HALF_LINE)
        f = generate_test_family(g, 64, 1, support=(0.1, 0.6))[0]
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            domain_norm_ratio(OP_D, theta, f)


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
