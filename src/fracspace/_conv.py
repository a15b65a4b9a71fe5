"""A kept spectrum times transformed data: the package's one FFT product.

Every operator whose kernel or symbol does not depend on the data keeps its
transform and applies it with ``convolve``, one forward and one inverse
``numpy.fft`` transform per call: a kernel's transform is ``spectrum``, and
a symbol's is its values on the grid frequencies, kept as a table per
(symbol, grid) by ``fourier._symbol_values``.  At size N this is a Fourier
multiplier (``fourier``) or the circular kernel of ``singular``; at size
2N, the linear convolution of an N-point kernel (``opcalc``) or of the
2N - 1 taps of a two-sided kernel (the Hardy operator of ``kernels``) with
N data points.  Grids are powers of two, so both sizes are.

Every kernel is real, so a spectrum is the half spectrum of ``rfft`` (rows
0 .. size/2).  Real data takes ``rfft`` and ``irfft``, which reads only the
real part of the DC and Nyquist rows; so a spectrum's DC and Nyquist
entries contribute only their real part.  Complex data takes ``fft`` and
``ifft`` with the same full spectrum (rows size/2 + 1 .. size - 1 are the
conjugates of rows size/2 - 1 .. 1), so its real and imaginary parts come
out as real data's would: ``irfft`` cannot write into its input, and
complex data on real transforms would need twice the memory.

A product whose spectrum broadcasts to the shape of the data's transform
(one kernel or symbol for every column) is formed in the transform's own
buffer.  So a call on real data allocates that half-spectrum buffer and the
real output of ``irfft``; on complex data, ``ifft`` writes into the buffer
too, so a call allocates one transform-sized array.  Stacked spectra
allocate the stacked product.  The data is never written.
"""

from __future__ import annotations

import numpy as np


def spectrum(kernel: np.ndarray, size: int) -> np.ndarray:
    """The ``rfft`` half spectrum of the real ``kernel`` along axis 0 at
    ``size`` points, size/2 + 1 rows (read-only)."""
    if np.iscomplexobj(kernel):
        raise ValueError("a kept spectrum needs a real kernel")
    out = np.fft.rfft(kernel, size, axis=0)
    out.flags.writeable = False
    return out


def _times_full_spectrum(spectrum: np.ndarray, product: np.ndarray) -> None:
    """Multiply the full ``fft`` ``product`` in place by the Hermitian
    spectrum whose half is ``spectrum``, taking the real part of its DC and
    Nyquist entries."""
    half = spectrum.shape[-2] - 1
    ends = product[..., ::half, :]
    np.multiply(ends, spectrum[..., ::half, :].real, out=ends)
    inner = product[..., 1:half, :]
    np.multiply(inner, spectrum[..., 1:half, :], out=inner)
    # row size - j takes conj spectrum[j]: conj(conj(x) spectrum[j])
    mirror = product[..., half + 1:, :]
    np.conjugate(mirror, out=mirror)
    np.multiply(mirror, spectrum[..., half - 1:0:-1, :], out=mirror)
    np.conjugate(mirror, out=mirror)


def convolve(spectrum: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The first len(data) rows of the circular convolution, along axis -2 and
    at size 2 (rows - 1) of the half ``spectrum``, of ``data`` with the
    kernel whose transform that is; the result has the data's dtype.

    Leading axes broadcast, and so does the last: a spectrum of shape
    (rows, 1) convolves every column of (n, k) data, and one of shape
    (m, rows, 1) gives m convolutions of shape (n, k).
    """
    size = 2 * (spectrum.shape[-2] - 1)
    rows = data.shape[-2]
    if not np.iscomplexobj(data):
        product = np.fft.rfft(data, size, axis=-2)
        in_place = np.broadcast_shapes(spectrum.shape, product.shape) == product.shape
        product = np.multiply(spectrum, product, out=product if in_place else None)
        return np.fft.irfft(product, size, axis=-2)[..., :rows, :]
    product = np.fft.fft(data, size, axis=-2)
    row = product[..., :1, :].shape
    shape = np.broadcast_shapes(spectrum[..., :1, :].shape, row)
    if shape != row:
        product = np.broadcast_to(product, shape[:-2] + product.shape[-2:]).copy()
    _times_full_spectrum(spectrum, product)
    return np.fft.ifft(product, axis=-2, out=product)[..., :rows, :]
