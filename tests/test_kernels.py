import math

import numpy as np
import pytest
from scipy import integrate, special

from fracspace import kernels
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
    kernel_weighted_tail_integrals,
    schur_closed_form,
    schur_constant,
)


class TestBesselKernel:
    def test_order_two_closed_form(self):
        xs = np.linspace(0.1, 10.0, 200)
        vals = bessel_kernel(2.0, xs)
        assert np.max(np.abs(vals - np.exp(-xs) / 2.0)) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_unit_mass(self, s):
        head = integrate.quad(lambda t: bessel_kernel(s, t), 0, 2, limit=200)[0]
        tail = integrate.quad(lambda t: bessel_kernel(s, t), 2, np.inf, limit=200)[0]
        assert 2 * (head + tail) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_positivity(self, s):
        xs = np.logspace(-6, 1.6, 400)
        assert np.all(bessel_kernel(s, xs) > 0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_matches_numeric_inverse_transform(self, s):
        # oscillatory (Fourier-weighted) quadrature of the symbol
        for x in (0.1, 1.0, 5.0, 10.0):
            val = integrate.quad(lambda xi: (1 + xi ** 2) ** (-s / 2), 0, np.inf,
                                 weight="cos", wvar=x, limit=400)[0] / math.pi
            assert bessel_kernel(s, x) == pytest.approx(val, abs=1e-5)

    def test_origin_value(self):
        # finite at 0 only above the dimension
        assert bessel_kernel(3.0, 0.0) == pytest.approx(
            (4 * math.pi) ** -0.5 * math.gamma(1.0) / math.gamma(1.5), rel=1e-12)
        with pytest.raises(ValueError):
            bessel_kernel(0.5, 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bessel_kernel(-1.0, 1.0)


def _full_range_trapezoid(s, x):
    """The subordination trapezoid over every node of u in [-80, 50] (d = 1)."""
    u = np.arange(-80.0, 50.0 + 1e-9, 0.05)
    r2 = np.atleast_1d(np.asarray(x, dtype=float)) ** 2
    expo = (-np.exp(u)[None, :] - 0.25 * r2[:, None] * np.exp(-u)[None, :]
            + ((s - 1.0) / 2.0) * u[None, :])
    c = (4.0 * math.pi) ** -0.5 / special.gamma(s / 2.0)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return c * trapezoid(np.exp(expo), dx=u[1] - u[0], axis=1)


class TestBesselKernelClosedForm:
    """The closed form against elementary forms, the subordination integral
    and itself point by point."""

    @pytest.mark.parametrize("s, form", [
        (2.0, lambda x: np.exp(-x) / 2.0),
        (4.0, lambda x: (1.0 + x) * np.exp(-x) / 4.0),
        (6.0, lambda x: (3.0 + 3.0 * x + x ** 2) * np.exp(-x) / 16.0),
    ])
    def test_matches_elementary_forms(self, s, form):
        # checked where e^-x is a normal double (x < 708.4): in the subnormal
        # range neither side keeps more than a few digits
        x = np.linspace(1e-3, 740.0, 4001)
        ref = form(x)
        normal = np.exp(-x) >= np.finfo(float).tiny
        assert x[normal][-1] > 708.0
        got = bessel_kernel(s, x)
        assert np.all(np.abs(got[normal] - ref[normal]) <= 4e-15 * ref[normal])

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("x", [
        np.logspace(-6, math.log10(2.0), 400),   # near the origin
        np.linspace(2.0, 40.0, 400),             # the exponential tail
    ], ids=["near", "tail"])
    def test_matches_full_range_trapezoid(self, s, x):
        ref = _full_range_trapezoid(s, x)
        assert np.all(np.abs(bessel_kernel(s, x) - ref) <= 2e-13 * ref)

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0, 2.5])
    def test_scalar_matches_full_range_trapezoid(self, s):
        got = bessel_kernel(s, 0.7)
        assert isinstance(got, float)
        assert got == pytest.approx(_full_range_trapezoid(s, 0.7)[0], rel=2e-13, abs=0.0)

    def test_mixed_mesh_keeps_small_and_large_points(self):
        x = np.array([1e-6, 1.0, 40.0, 2000.0])
        got = bessel_kernel(0.5, x)
        ref = _full_range_trapezoid(0.5, x)
        assert got[-1] == 0.0
        assert np.all(np.abs(got - ref) <= 2e-13 * ref)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 2.5])
    def test_array_call_equals_point_calls(self, s):
        rng = np.random.default_rng(7)
        x = np.concatenate([np.logspace(-6, 1.5, 151), [700.0, 745.0, 2000.0],
                            [math.inf, math.nan], [0.0, -0.0] if s > 1.0 else []])
        x = rng.permutation(x * rng.choice([-1.0, 1.0], x.size))
        got = bessel_kernel(s, x)
        one = np.array([bessel_kernel(s, float(v)) for v in x])
        assert isinstance(bessel_kernel(s, 0.7), float)
        assert got.shape == x.shape
        assert np.array_equal(got, one, equal_nan=True)
        assert np.array_equal(bessel_kernel(s, x.reshape(2, -1)), got.reshape(2, -1),
                              equal_nan=True)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_exact_zero_far_out_and_at_infinity(self, s):
        for x in (2000.0, -2000.0, math.inf, -math.inf):
            assert bessel_kernel(s, x) == 0.0
        out = bessel_kernel(s, np.array([2000.0, -2000.0, math.inf, -math.inf]))
        assert out.tolist() == [0.0] * 4

    def test_nan_propagates(self):
        assert math.isnan(bessel_kernel(1.0, math.nan))
        assert math.isnan(bessel_kernel(400.0, math.nan))

    @pytest.mark.parametrize("x", [1e-3, 1.0, 10.0, np.array([0.5, 2.0])])
    def test_overflowing_order_rejected(self, x):
        # Gamma(s/2) overflows: the subordination sum returned NaN at every x
        with pytest.raises(ValueError, match="not finite"):
            bessel_kernel(400.0, x)

    def test_underflowing_power_near_origin_rejected(self):
        # (|x|/2)^nu underflows while K_nu overflows; G_200 is about 2.83e-2 there
        assert bessel_kernel(200.0, 1.0) == pytest.approx(2.8244043e-2, rel=1e-6)
        for x in (1e-3, np.array([1.0, 1e-4])):
            with pytest.raises(ValueError, match="not finite"):
                bessel_kernel(200.0, x)


class TestWeightedIntegrability:
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
        out = hardy_hilbert_apply(h, nodes=[0])
        assert out.values[0, 0].real == pytest.approx(math.log(2.0), abs=1e-6)

    def test_one_minus_log_two_example(self):
        g = Grid(4.0, 2 ** 22, HALF_LINE)
        y = g.points
        h = GridFunction(g, np.where(y <= 1.0, y, 0.0))
        idx = int(round(1.0 / g.h))
        out = hardy_hilbert_apply(h, nodes=[idx])
        assert out.values[idx, 0].real == pytest.approx(1.0 - math.log(2.0), abs=1e-6)

    def test_positivity_preserving(self):
        g = Grid(40.0, 2048, HALF_LINE)
        rng = np.random.default_rng(4)
        h = GridFunction(g, np.abs(rng.standard_normal(2048)))
        out = hardy_hilbert_apply(h)
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
                ih = hardy_hilbert_apply(h)
                ratio = weighted_lp_norm(ih, 2.0, w) / weighted_lp_norm(h, 2.0, w)
                assert ratio <= bound

    def test_linear(self):
        g = Grid(40.0, 1024, HALF_LINE)
        rng = np.random.default_rng(6)
        a = GridFunction(g, rng.standard_normal(1024))
        b = GridFunction(g, rng.standard_normal(1024))
        lhs = hardy_hilbert_apply(GridFunction(g, 2.0 * a.values - 3.0 * b.values))
        rhs = 2.0 * hardy_hilbert_apply(a) - 3.0 * hardy_hilbert_apply(b)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * np.max(np.abs(lhs.values))

    @pytest.mark.parametrize("n", [16, 1024, 4096])
    @pytest.mark.parametrize("origin", ["zero", "nonzero"])
    def test_dense_path_matches_node_path(self, n, origin):
        # the node path evaluates every row directly; the dense path takes
        # one circular convolution of length 2n with a two-sided kernel, so
        # an aliased output would show here
        g = Grid(40.0, n, HALF_LINE)
        t = g.points
        rng = np.random.default_rng(n)
        c = 0.0 if origin == "nonzero" else rng.uniform(5.0, 20.0)
        vals = (np.exp(-((t - c) / 3.0) ** 2)
                + 1j * np.exp(-((t - rng.uniform(5.0, 20.0)) / 5.0) ** 2)
                * (1.0 + 0.5 * np.cos(t)))
        if origin == "zero":
            vals[0] = 0.0
        h = GridFunction(g, vals)
        assert (h.values[0, 0] != 0.0) == (origin == "nonzero")
        dense = hardy_hilbert_apply(h).values
        direct = hardy_hilbert_apply(h, nodes=np.arange(n)).values
        assert np.all(np.abs(dense - direct) <= 1e-12 * np.abs(direct))

    def test_cached_spectra_are_read_only_and_short(self):
        # one half spectrum of size 2n and the two end columns, kept per n
        spectrum, first, last = kernels._hankel_kernel(1024)
        assert spectrum.shape == (1025, 1)
        assert first.shape == last.shape == (1024, 1)
        for array in (spectrum, first, last):
            assert not array.flags.writeable
        assert kernels._hankel_kernel(1024)[0] is spectrum
