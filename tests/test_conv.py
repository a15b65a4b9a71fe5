"""``_conv``: a kept spectrum times transformed data, against direct sums."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspace import _conv

from helpers import seeds

# kernel and data lengths n (powers of two, as on every grid), fiber
# dimensions 1 and 3, real or complex kernels
lengths = st.sampled_from([2 ** k for k in range(4, 9)])
fibers = st.sampled_from([1, 3])


def _samples(rng, shape, is_complex: bool) -> np.ndarray:
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if is_complex else out


def _inputs(n: int, fiber_dim: int, complex_kernel: bool, seed: int):
    rng = np.random.default_rng(seed)
    return _samples(rng, n, complex_kernel), _samples(rng, (n, fiber_dim), True)


def _bound(kernel: np.ndarray, data: np.ndarray) -> float:
    # rounding of the transform pair, relative to the largest possible term
    return 1e-14 * len(kernel) * np.max(np.abs(kernel)) * np.max(np.abs(data))


class TestConvolve:
    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fibers, complex_kernel=st.booleans(), seed=seeds)
    def test_size_2n_is_the_linear_convolution(self, n, fiber_dim, complex_kernel, seed):
        kernel, data = _inputs(n, fiber_dim, complex_kernel, seed)
        out = _conv.convolve(_conv.spectrum(kernel[:, None], 2 * n), data)
        assert out.shape == (n, fiber_dim)
        for column, values in zip(out.T, data.T):
            reference = np.convolve(kernel, values)[:n]
            assert np.max(np.abs(column - reference)) <= _bound(kernel, data)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fibers, complex_kernel=st.booleans(), seed=seeds)
    def test_size_n_is_the_circular_convolution(self, n, fiber_dim, complex_kernel, seed):
        kernel, data = _inputs(n, fiber_dim, complex_kernel, seed)
        out = _conv.convolve(_conv.spectrum(kernel[:, None], n), data)
        offsets = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        reference = kernel[offsets] @ data
        assert out.shape == (n, fiber_dim)
        assert np.max(np.abs(out - reference)) <= _bound(kernel, data)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fibers, complex_kernel=st.booleans(), seed=seeds,
           count=st.integers(1, 4), factor=st.sampled_from([1, 2]))
    def test_stacked_spectra_equal_single_calls(self, n, fiber_dim, complex_kernel, seed,
                                                count, factor):
        rng = np.random.default_rng(seed)
        kernels = _samples(rng, (count, n), complex_kernel)
        data = _samples(rng, (n, fiber_dim), True)
        spectra = [_conv.spectrum(k[:, None], factor * n) for k in kernels]
        stacked = _conv.convolve(np.stack(spectra), data)
        assert stacked.shape == (count, n, fiber_dim)
        for spectrum, values in zip(spectra, stacked):
            assert np.array_equal(_conv.convolve(spectrum, data), values)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fibers, seed=seeds, count=st.sampled_from([None, 1, 3]),
           factor=st.sampled_from([1, 2]))
    def test_data_is_not_written(self, n, fiber_dim, seed, count, factor):
        rng = np.random.default_rng(seed)
        shape = (factor * n, 1) if count is None else (count, factor * n, 1)
        spectrum = _samples(rng, shape, True)
        data = _samples(rng, (n, fiber_dim), True)
        kept = data.copy()
        _conv.convolve(spectrum, data)
        assert np.array_equal(data, kept)

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("fiber_dim", [1, 3])
    def test_one_transform_buffer(self, factor, fiber_dim):
        # the product and the inverse transform reuse the forward transform's
        # buffer: one (size, k) complex array, not two
        n = 2 ** 14
        rng = np.random.default_rng(3)
        spectrum = _conv.spectrum(rng.standard_normal((n, 1)), factor * n)
        data = _samples(rng, (n, fiber_dim), True)
        buffer = factor * n * fiber_dim * 16
        tracemalloc.start()
        try:
            out = _conv.convolve(spectrum, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, fiber_dim)
        assert peak < 1.25 * buffer

    def test_spectrum_is_read_only(self):
        spectrum = _conv.spectrum(np.ones((16, 1)), 32)
        assert spectrum.shape == (32, 1)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
