import json
import math

import numpy as np
import pytest
from scipy import integrate

from fracspace.grid import (
    AdmissibilityError,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    weighted_lp_norm,
)
from fracspace.kernels import (
    bessel_kernel,
    hardy_hilbert_apply,
    kernel_bound_check,
    kernel_weighted_tail_integrals,
    schur_closed_form,
    schur_companion_constant,
    schur_constant,
)


class TestBesselKernel:
    def test_order_two_closed_form(self):
        xs = np.linspace(0.1, 10.0, 200)
        vals = bessel_kernel(2.0, 1, xs)
        assert np.max(np.abs(vals - np.exp(-xs) / 2.0)) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_unit_mass(self, s):
        head = integrate.quad(lambda t: bessel_kernel(s, 1, t), 0, 2, limit=200)[0]
        tail = integrate.quad(lambda t: bessel_kernel(s, 1, t), 2, np.inf, limit=200)[0]
        assert 2 * (head + tail) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_positivity(self, s):
        xs = np.logspace(-6, 1.6, 400)
        assert np.all(bessel_kernel(s, 1, xs) > 0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_matches_numeric_inverse_transform(self, s):
        # oscillatory (Fourier-weighted) quadrature of the symbol
        for x in (0.1, 1.0, 5.0, 10.0):
            val = integrate.quad(lambda xi: (1 + xi ** 2) ** (-s / 2), 0, np.inf,
                                 weight="cos", wvar=x, limit=400)[0] / math.pi
            assert bessel_kernel(s, 1, x) == pytest.approx(val, abs=1e-5)

    def test_origin_value(self):
        # finite at 0 only above the dimension
        assert bessel_kernel(3.0, 1, 0.0) == pytest.approx(
            (4 * math.pi) ** -0.5 * math.gamma(1.0) / math.gamma(1.5), rel=1e-12)
        with pytest.raises(ValueError):
            bessel_kernel(0.5, 1, 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bessel_kernel(-1.0, 1, 1.0)


class TestKernelBounds:
    @pytest.mark.parametrize("s, regime_frag", [
        (0.5, "|x|^(s-d)"),     # below the dimension: algebraic blow-up
        (1.0, "log"),           # at the dimension: logarithmic envelope
        (2.0, "constant"),      # above: bounded kernel
    ])
    def test_near_origin_regimes(self, s, regime_frag):
        reports = kernel_bound_check(s)
        near = [r for r in reports if "near" in r.regime][0]
        assert regime_frag in near.regime
        assert near.pass_flag and math.isfinite(near.sup_ratio)

    def test_exponential_tail(self):
        for s in (0.5, 1.0, 2.0):
            tail = [r for r in kernel_bound_check(s) if "tail" in r.regime][0]
            assert tail.pass_flag and math.isfinite(tail.sup_ratio)

    def test_report_serialization(self):
        rep = kernel_bound_check(0.5)[0]
        rec = json.loads(rep.to_json())
        assert set(rec) == {"s", "d", "regime", "sup_ratio", "mesh_points", "pass"}

    @pytest.mark.parametrize("p, gamma", [(2.0, 0.0), (2.0, 0.5), (3.0, 1.0)])
    def test_weighted_integrability_threshold(self, p, gamma):
        crit = (1.0 + gamma) / p
        above = kernel_weighted_tail_integrals(min(crit + 0.2, 0.97), p, gamma)
        below = kernel_weighted_tail_integrals(crit - 0.2, p, gamma)
        assert above[-1] / above[-2] < 0.95      # shells shrink: convergent
        assert below[-1] / below[-2] > 1.05      # shells grow: divergent


class TestSchurConstants:
    def test_p2_beta0_is_pi(self):
        assert schur_constant(2.0, 0.0) == pytest.approx(math.pi, abs=1e-8)

    @pytest.mark.parametrize("p, beta", [
        (2.0, -0.3), (2.0, 0.2), (2.0, 0.45), (1.5, -0.2), (1.5, 0.2),
        (2.5, 0.1), (3.0, -0.25), (3.0, 0.2), (4.0, 0.1), (2.0, -0.45)])
    def test_quadrature_matches_closed_form(self, p, beta):
        assert schur_constant(p, beta) == pytest.approx(
            schur_closed_form(p, beta), abs=1e-8)

    @pytest.mark.parametrize("beta", [-0.3, 0.0, 0.25])
    def test_companion_integral_agrees_at_p2(self, beta):
        assert schur_constant(2.0, beta) == pytest.approx(
            schur_companion_constant(2.0, beta), abs=1e-8)

    def test_divergence_toward_endpoint(self):
        p = 2.0
        values = [schur_constant(p, 0.5 - 2.0 ** -j) for j in range(3, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exponent_window_enforced(self):
        with pytest.raises(AdmissibilityError):
            schur_constant(2.0, 0.6)
        with pytest.raises(AdmissibilityError):
            schur_constant(2.0, -0.7)


class TestHardyHilbert:
    def test_log_two_example(self):
        # fine grid and single-node evaluation: sampling a sharp cutoff
        # carries O(h) ambiguity, so h must sit well below the tolerance
        g = Grid(4.0, 2 ** 22, HALF_LINE)
        y = g.points
        h = GridFunction(g, np.where((y >= 1.0) & (y <= 2.0), 1.0, 0.0))
        out = hardy_hilbert_apply(h, 2.0, PowerWeight(0.0), nodes=[0])
        assert out.values[0, 0].real == pytest.approx(math.log(2.0), abs=1e-6)

    def test_one_minus_log_two_example(self):
        g = Grid(4.0, 2 ** 22, HALF_LINE)
        y = g.points
        h = GridFunction(g, np.where(y <= 1.0, y, 0.0))
        idx = int(round(1.0 / g.h))
        out = hardy_hilbert_apply(h, 2.0, PowerWeight(0.0), nodes=[idx])
        assert out.values[idx, 0].real == pytest.approx(1.0 - math.log(2.0), abs=1e-6)

    def test_positivity_preserving(self):
        g = Grid(40.0, 2048, HALF_LINE)
        rng = np.random.default_rng(4)
        h = GridFunction(g, np.abs(rng.standard_normal(2048)))
        out = hardy_hilbert_apply(h, 2.0, PowerWeight(0.0))
        assert np.min(out.values.real) >= 0.0

    def test_norm_probe_below_schur_bound(self):
        g = Grid(40.0, 2048, HALF_LINE)
        t = g.points
        rng = np.random.default_rng(5)
        for gamma in (-0.5, 0.0):
            w = PowerWeight(gamma)
            bound = schur_closed_form(2.0, gamma / 2.0)
            for _ in range(20):
                c, wd = rng.uniform(2, 25), rng.uniform(0.5, 5)
                h = GridFunction(g, np.exp(-((t - c) / wd) ** 2))
                ih = hardy_hilbert_apply(h, 2.0, w)
                ratio = weighted_lp_norm(ih, 2.0, w) / weighted_lp_norm(h, 2.0, w)
                assert ratio <= bound

    def test_linear(self):
        g = Grid(40.0, 1024, HALF_LINE)
        rng = np.random.default_rng(6)
        a = GridFunction(g, rng.standard_normal(1024))
        b = GridFunction(g, rng.standard_normal(1024))
        w = PowerWeight(0.0)
        lhs = hardy_hilbert_apply(GridFunction(g, 2.0 * a.values - 3.0 * b.values),
                                  2.0, w)
        rhs = 2.0 * hardy_hilbert_apply(a, 2.0, w) - 3.0 * hardy_hilbert_apply(b, 2.0, w)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * np.max(np.abs(lhs.values))
