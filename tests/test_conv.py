"""``_conv``: a kept spectrum times transformed data, against direct sums and
the complex FFT product."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspace import _conv

from helpers import fiber_dims, seeds

# kernel and data lengths n (powers of two, as on every grid), fiber
# dimensions 1-3, real or complex data; every kernel is real
lengths = st.sampled_from([2 ** k for k in range(4, 9)])
# how the data reaches convolve: as built, reversed along the rows (the
# minus variant and the Hardy operator), or a transposed (k, n) array
layouts = st.sampled_from(["plain", "reversed", "transposed"])


def _samples(rng, shape, is_complex: bool) -> np.ndarray:
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if is_complex else out


def _laid_out(data: np.ndarray, layout: str) -> np.ndarray:
    """``data`` (n, k) as a view in ``layout``, equal in value up to the
    reversal of the rows."""
    if layout == "reversed":
        return data[::-1]
    if layout == "transposed":
        return np.ascontiguousarray(data.T).T
    return data


def _bound(kernel: np.ndarray, data: np.ndarray) -> float:
    # rounding of the transform pair, relative to the largest possible term
    return 1e-14 * len(kernel) * np.max(np.abs(kernel)) * np.max(np.abs(data))


def _reference(kernel: np.ndarray, data: np.ndarray, size: int) -> np.ndarray:
    """The complex FFT product ifft(fft(kernel, size) fft(data, size)), cut
    to len(data) rows."""
    product = np.fft.fft(kernel, size, axis=-2) * np.fft.fft(data, size, axis=-2)
    return np.fft.ifft(product, axis=-2)[..., :data.shape[-2], :]


class TestConvolve:
    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, complex_data=st.booleans(), seed=seeds)
    def test_size_2n_is_the_linear_convolution(self, n, fiber_dim, complex_data, seed):
        rng = np.random.default_rng(seed)
        kernel, data = rng.standard_normal(n), _samples(rng, (n, fiber_dim), complex_data)
        out = _conv.convolve(_conv.spectrum(kernel[:, None], 2 * n), data)
        assert out.shape == (n, fiber_dim)
        for column, values in zip(out.T, data.T):
            reference = np.convolve(kernel, values)[:n]
            assert np.max(np.abs(column - reference)) <= _bound(kernel, data)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, complex_data=st.booleans(), seed=seeds)
    def test_size_n_is_the_circular_convolution(self, n, fiber_dim, complex_data, seed):
        rng = np.random.default_rng(seed)
        kernel, data = rng.standard_normal(n), _samples(rng, (n, fiber_dim), complex_data)
        out = _conv.convolve(_conv.spectrum(kernel[:, None], n), data)
        offsets = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        reference = kernel[offsets] @ data
        assert out.shape == (n, fiber_dim)
        assert np.max(np.abs(out - reference)) <= _bound(kernel, data)

    @settings(max_examples=60, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, complex_data=st.booleans(), seed=seeds,
           factor=st.sampled_from([1, 2]), layout=layouts)
    def test_equals_the_complex_fft_product(self, n, fiber_dim, complex_data,
                                            seed, factor, layout):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal((n, 1))
        data = _laid_out(_samples(rng, (n, fiber_dim), complex_data), layout)
        out = _conv.convolve(_conv.spectrum(kernel, factor * n), data)
        assert out.shape == (n, fiber_dim)
        assert out.dtype == (np.complex128 if complex_data else np.float64)
        reference = _reference(kernel, data, factor * n)
        assert np.max(np.abs(out - reference)) <= _bound(kernel, data)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, seed=seeds, count=st.sampled_from([None, 1, 3]),
           factor=st.sampled_from([1, 2]), layout=layouts)
    def test_complex_data_is_its_real_and_imaginary_parts(self, n, fiber_dim, seed, count,
                                                          factor, layout):
        # any half spectrum, complex DC and Nyquist entries included: complex
        # data gives what its real and imaginary parts give as real data
        rng = np.random.default_rng(seed)
        rows = factor * n // 2 + 1
        spectrum = _samples(rng, (rows, 1) if count is None else (count, rows, 1), True)
        data = _laid_out(_samples(rng, (n, fiber_dim), True), layout)
        out = _conv.convolve(spectrum, data)
        parts = [_conv.convolve(spectrum, part) for part in (data.real, data.imag)]
        assert out.dtype == np.complex128
        bound = 1e-14 * factor * n * np.max(np.abs(spectrum)) * np.max(np.abs(data))
        assert np.max(np.abs(out - (parts[0] + 1j * parts[1]))) <= bound

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, complex_data=st.booleans(), seed=seeds,
           count=st.integers(1, 4), factor=st.sampled_from([1, 2]), layout=layouts)
    def test_stacked_spectra_equal_single_calls(self, n, fiber_dim, complex_data, seed,
                                                count, factor, layout):
        rng = np.random.default_rng(seed)
        kernels = rng.standard_normal((count, n, 1))
        data = _laid_out(_samples(rng, (n, fiber_dim), complex_data), layout)
        spectra = [_conv.spectrum(k, factor * n) for k in kernels]
        stacked = _conv.convolve(np.stack(spectra), data)
        assert stacked.shape == (count, n, fiber_dim)
        assert stacked.dtype == data.dtype
        reference = _reference(kernels, data, factor * n)
        assert np.max(np.abs(stacked - reference)) <= _bound(kernels.ravel(), data)
        for spectrum, values in zip(spectra, stacked):
            assert np.array_equal(_conv.convolve(spectrum, data), values)

    @settings(max_examples=40, deadline=None)
    @given(n=lengths, fiber_dim=fiber_dims, seed=seeds, count=st.sampled_from([None, 1, 3]),
           factor=st.sampled_from([1, 2]), complex_data=st.booleans())
    def test_data_is_not_written(self, n, fiber_dim, seed, count, factor, complex_data):
        rng = np.random.default_rng(seed)
        rows = factor * n // 2 + 1
        shape = (rows, 1) if count is None else (count, rows, 1)
        spectrum = _samples(rng, shape, True)
        data = _samples(rng, (n, fiber_dim), complex_data)
        kept = data.copy()
        _conv.convolve(spectrum, data)
        assert np.array_equal(data, kept)

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("fiber_dim", [1, 3])
    def test_one_transform_buffer(self, factor, fiber_dim):
        # complex data: the product and the inverse transform reuse the
        # forward transform's buffer, one (size, k) complex array; real data:
        # the product is formed in the (size/2 + 1, k) half-spectrum buffer
        # and irfft writes a (size, k) real array, the same bytes in all
        n = 2 ** 14
        rng = np.random.default_rng(3)
        spectrum = _conv.spectrum(rng.standard_normal((n, 1)), factor * n)
        buffer = factor * n * fiber_dim * 16
        for complex_data in (True, False):
            data = _samples(rng, (n, fiber_dim), complex_data)
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
        assert spectrum.shape == (17, 1)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_spectrum_rejects_a_complex_kernel(self):
        with pytest.raises(ValueError, match="real kernel"):
            _conv.spectrum(np.ones((16, 1)) * (1.0 + 0.5j), 32)
