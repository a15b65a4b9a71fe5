"""The fixed-order rules of ``fracspace._quad`` and the constants built on them,
against ``scipy.integrate.quad`` and against closed forms.

QUADPACK's Fourier-integral routine (QAWF) is accurate to about 1e-10 on
these integrands, so comparisons with it use that tolerance; the closed
forms take the tighter bounds the rules reach.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from fracspace import _quad, fourier
from fracspace.grid import PowerWeight, dual_exponent
from fracspace.harness import _SCHUR_P_BETA
from fracspace.kernels import (
    bessel_kernel,
    kernel_weighted_tail_integrals,
    schur_closed_form,
    schur_constant,
)
from fracspace.singular import c_sigma, symbol_integral

SIGMAS = [0.01, 0.05, *(round(0.1 * k, 1) for k in range(1, 10)), 0.95, 0.99]
QAWF_TOL = 2e-10


def _j_closed_form(sigma: float) -> float:
    """integral_R (cos h - 1) / |h|^(1+sigma) dh = -pi / (Gamma(1+sigma) sin(pi sigma/2))."""
    return -math.pi / (math.gamma(1.0 + sigma) * math.sin(math.pi * sigma / 2.0))


def _symbol_integral_oracle(xi: float, sigma: float) -> float:
    """symbol_integral by quad: QAGS on (0, 1/xi) (cos - 1 as -2 sin^2 to keep
    its digits), QAWF beyond, the -1 there in closed form."""
    cut = 1.0 / xi
    near = integrate.quad(lambda h: -2.0 * math.sin(0.5 * xi * h) ** 2 * h ** (-1.0 - sigma),
                          0.0, cut, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    far = integrate.quad(lambda h: h ** (-1.0 - sigma), cut, np.inf,
                         weight="cos", wvar=xi, limlst=100)[0]
    return 2.0 * (near + far - cut ** (-sigma) / sigma)


class TestCosTransform:
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_c_sigma_matches_gamma_closed_form(self, sigma):
        assert symbol_integral(1.0, sigma) == pytest.approx(_j_closed_form(sigma), rel=1e-14)
        assert c_sigma(sigma) == pytest.approx(1.0 / _j_closed_form(sigma), rel=1e-12)

    @pytest.mark.parametrize("xi", [0.5, 2.0, 8.0, 100.0])
    @pytest.mark.parametrize("split", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_symbol_integral_against_quad(self, xi, split, sigma):
        val = symbol_integral(xi, sigma, split=split)
        assert val == pytest.approx(_symbol_integral_oracle(xi, sigma), rel=QAWF_TOL)
        assert val == pytest.approx(xi ** sigma * _j_closed_form(sigma), rel=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.05, 0.1, 0.5, 1.0, 5.0, 20.0])
    def test_bessel_symbol_inverse_transform(self, s, x):
        symbol = fourier.bessel_symbol(-s)
        val = _quad.cos_transform(symbol, 0.0, x)
        oracle = integrate.quad(symbol, 0.0, np.inf, weight="cos", wvar=x, limlst=100)[0]
        assert val == pytest.approx(oracle, abs=QAWF_TOL)
        assert val / math.pi == pytest.approx(bessel_kernel(s, x), abs=1e-14)

    def test_constant_raises(self):
        # the half-period integrals of a constant repeat: no decaying tail to sum
        with pytest.raises(ArithmeticError, match="alternate and shrink"):
            _quad.cos_transform(lambda t: np.ones_like(t), 0.0, 1.0)

    def test_increasing_raises(self):
        with pytest.raises(ArithmeticError, match="alternate and shrink"):
            _quad.cos_transform(lambda t: 1.0 + t, 0.5, 3.0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            _quad.cos_transform(lambda t: 1.0 / (1.0 + t), -1.0, 1.0)
        with pytest.raises(ValueError):
            _quad.cos_transform(lambda t: 1.0 / (1.0 + t), 0.0, 0.0)

    def test_start_on_a_zero(self):
        # a first panel of length zero: only the half-periods remain
        x = 2.0
        a = 0.5 * math.pi / x
        g = fourier.bessel_symbol(-2.0)
        whole = _quad.cos_transform(g, 0.0, x)
        head = integrate.quad(lambda t: g(t) * math.cos(x * t), 0.0, a,
                              epsabs=0.0, epsrel=1e-13)[0]
        assert _quad.cos_transform(g, a, x) == pytest.approx(whole - head, abs=1e-14)


class TestPowerWeighted:
    @staticmethod
    def _quad_oracle(e: float) -> float:
        f = lambda z: z ** e / (1.0 + z)  # noqa: E731
        return (integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                + integrate.quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0])

    @pytest.mark.parametrize("p, beta", _SCHUR_P_BETA)
    def test_schur_constant(self, p, beta):
        val = schur_constant(p, beta)
        assert val == pytest.approx(schur_closed_form(p, beta), rel=1e-12)
        assert val == pytest.approx(self._quad_oracle(beta - 1.0 / p), rel=1e-11)

    @pytest.mark.parametrize("e", [-0.9, -0.5, -0.1])
    def test_unit_weight(self, e):
        # f = 1: the mass 1 / (1 + e) of the weight itself
        assert _quad.power_weighted(np.ones_like, e) == pytest.approx(1.0 / (1.0 + e),
                                                                      rel=1e-14)


def _suite_shell_triples():
    """(s, p, gamma) of every shell study of the bessel-kernel suite."""
    for p, gamma in ((2.0, 0.0), (2.0, 0.5), (3.0, 1.0)):
        crit = (1.0 + gamma) / p
        for s in (min(crit + 0.2, 0.97), crit - 0.2):
            yield s, p, gamma


class TestLogPanels:
    @pytest.mark.parametrize("s, p, gamma", list(_suite_shell_triples()))
    def test_dyadic_shells(self, s, p, gamma):
        pp = dual_exponent(p)
        gd = PowerWeight(gamma).dual(p).gamma
        shells = kernel_weighted_tail_integrals(s, p, gamma)
        for j, shell in enumerate(shells):
            eps = 1e-1 * 4.0 ** (-j)
            oracle = integrate.quad(lambda x: bessel_kernel(s, x) ** pp * x ** gd,
                                    eps / 4.0, eps, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert shell == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_unit_mass(self, s):
        # the edges of the bessel-kernel suite's unit-mass case
        mass = 2.0 * np.sum(_quad.log_panels(lambda t: bessel_kernel(s, t),
                                             np.geomspace(1e-40, 60.0, 98)))
        f = lambda t: bessel_kernel(s, t)  # noqa: E731
        oracle = 2.0 * (integrate.quad(f, 0.0, 2.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        + integrate.quad(f, 2.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                         limit=200)[0])
        assert mass == pytest.approx(oracle, abs=1e-13)
        assert mass == pytest.approx(1.0, abs=1e-14)

    def test_power_closed_form(self):
        # panels up to two decades wide; in u = log x, x^1.5 dx is e^(2.5 u) du
        edges = np.array([1e-3, 1e-2, 1.0, 50.0])
        got = _quad.log_panels(lambda x: x ** 1.5, edges)
        assert got == pytest.approx(np.diff(edges ** 2.5) / 2.5, rel=1e-14)
