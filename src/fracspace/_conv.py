"""Full linear convolution along the first axis by FFT (used by ``opcalc``).

The recipe is SciPy's ``fftconvolve`` for complex data (grid-function
values are complex): zero-pad both inputs to ``next_fast_len`` of the full
length and take one complex transform pair; results agree bit for bit.
This module uses only ``scipy.fft``, which ``scipy.integrate`` loads anyway,
so it needs no import of SciPy's signal-processing subpackage, whose import
used to dominate the package's start-up.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft


def full_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of ``a`` and ``b`` along axis 0 (length len(a) + len(b) - 1).

    Trailing axes broadcast against each other, so a kernel of shape (n, 1)
    convolves every column of data of shape (m, k) at once.
    """
    length = a.shape[0] + b.shape[0] - 1
    size = sp_fft.next_fast_len(length, real=False)
    spectrum = sp_fft.fft(a, size, axis=0) * sp_fft.fft(b, size, axis=0)
    return sp_fft.ifft(spectrum, size, axis=0)[:length]
