"""Linear convolution along the first axis by FFT (used by ``opcalc``).

Both convolutions of ``opcalc`` (the Balakrishnan kernel and the causal
oracle's product-integration weights) convolve a fixed kernel of length n
with data of length n and keep the first n rows.  The kernel's transform is
data-independent, so its caller builds it once with ``spectrum`` and keeps
it; ``full_convolve`` then takes one transform pair per call.  The recipe
is SciPy's ``fftconvolve`` for complex data (grid-function values are
complex): zero-pad to ``next_fast_len`` of the full length 2n - 1 and
multiply the transforms, kernel first; results agree bit for bit with it.
A kept spectrum of an n-row column takes 16 next_fast_len(2n - 1) bytes,
about 32 n.  This module uses only ``scipy.fft``, which ``scipy.integrate``
loads anyway, so it needs no import of SciPy's signal-processing
subpackage, whose import used to dominate the package's start-up.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft


def spectrum(kernel: np.ndarray) -> np.ndarray:
    """The transform of ``kernel`` along axis 0 at the size of its full
    convolution with data of the same length (read-only)."""
    size = sp_fft.next_fast_len(2 * kernel.shape[0] - 1, real=False)
    out = sp_fft.fft(kernel, size, axis=0)
    out.flags.writeable = False
    return out


def full_convolve(kernel_spectrum: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The first len(data) rows of the full convolution along axis 0 of the
    kernel whose ``spectrum`` is given with ``data`` of the kernel's length.

    Trailing axes broadcast against each other, so a kernel of shape (n, 1)
    convolves every column of data of shape (n, k) at once.
    """
    size = kernel_spectrum.shape[0]
    product = kernel_spectrum * sp_fft.fft(data, size, axis=0)
    return sp_fft.ifft(product, size, axis=0)[:data.shape[0]]
