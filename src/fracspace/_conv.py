"""A kept spectrum times transformed data: the package's one FFT product.

Every operator whose kernel or symbol does not depend on the data keeps its
transform (``spectrum``) and applies it with ``convolve``, one forward and
one inverse ``numpy.fft`` transform per call.  At size N this is a Fourier
multiplier (``fourier``, whose symbol values are the spectrum, and the
circular kernel of ``singular``); at size 2N, the linear convolution of an
N-point kernel (``opcalc``) or of the 2N - 1 taps of a two-sided kernel
(the Hardy operator of ``kernels``) with N data points.  Grids are powers
of two, so both sizes are.

A product whose spectrum broadcasts to the shape of the data's transform
(one kernel or symbol for every column) is formed in the transform's own
buffer, and the inverse transform writes into that buffer too, so a call
allocates one transform-sized array; stacked spectra allocate the stacked
product.  The data is never written.
"""

from __future__ import annotations

import numpy as np


def spectrum(kernel: np.ndarray, size: int) -> np.ndarray:
    """The FFT of ``kernel`` along axis 0 at ``size`` points (read-only)."""
    out = np.fft.fft(kernel, size, axis=0)
    out.flags.writeable = False
    return out


def convolve(spectrum: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The first len(data) rows of the circular convolution, along axis -2 and
    at the spectrum's length, of ``data`` with the kernel whose transform is
    ``spectrum``.

    Leading axes broadcast, and so does the last: a spectrum of shape
    (size, 1) convolves every column of (n, k) data, and one of shape
    (m, size, 1) gives m convolutions of shape (n, k).
    """
    size = spectrum.shape[-2]
    product = np.fft.fft(data, size, axis=-2)
    in_place = np.broadcast_shapes(spectrum.shape, product.shape) == product.shape
    product = np.multiply(spectrum, product, out=product if in_place else None)
    return np.fft.ifft(product, axis=-2, out=product)[..., :data.shape[-2], :]
