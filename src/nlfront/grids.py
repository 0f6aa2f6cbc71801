"""Uniform cell grids and fast kernel convolution.

All spatial operators in the package live on uniform cell-centered grids.
Convolution against an even kernel is a symmetric Toeplitz matrix whose
entries are exact per-cell kernel masses (CDF differences); applying it is
done through a cached circulant embedding and real FFTs.
"""
from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .model import Kernel

__all__ = [
    "cell_nodes",
    "KernelConvolver",
    "ConvolverStack",
    "CdfInterpolant",
    "default_cells",
]


def default_cells(l: float) -> int:
    """Grid-resolution policy for a domain of length l: at least 40 cells
    per unit length, never fewer than 200 cells."""
    return max(200, int(np.ceil(40.0 * l - 1e-9)))


def cell_nodes(left: float, dx: float, n: int) -> np.ndarray:
    """Midpoints of n cells of width dx starting at `left`."""
    return left + (np.arange(n) + 0.5) * dx


def _circulant_apply(u: np.ndarray, kfft: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad u to the embedding length m, multiply spectra, cut back."""
    # an explicit buffer, not rfft(u, n=m): scipy pads by the same copy but
    # through a slower Python path (measured 2-4 us more per call at n ~ 200)
    buf = np.zeros(u.shape[:-1] + (m,))
    buf[..., : u.shape[-1]] = u
    out = sfft.irfft(sfft.rfft(buf, axis=-1) * kfft, n=m, axis=-1)
    return out[..., : u.shape[-1]]


class KernelConvolver:
    """(K u)_j = sum_m mass(|j-m| dx) u_m with exact cell masses.

    Approximates ∫ J(x_j - y) u(y) dy over the grid's span, treating u as
    piecewise constant per cell; the per-cell kernel masses are exact CDF
    differences, so row sums reproduce ∫ J(x_j - y) dy over the span exactly.
    """

    def __init__(self, kernel: Kernel, dx: float, n: int):
        if n < 1 or dx <= 0:
            raise ValueError("convolver needs n >= 1 cells of positive width")
        self.kernel = kernel
        self.dx = float(dx)
        self.n = int(n)
        offs = np.arange(self.n)
        col = np.asarray(
            kernel.cdf((offs + 0.5) * self.dx) - kernel.cdf((offs - 0.5) * self.dx)
        )
        self.column = col
        m = sfft.next_fast_len(2 * self.n)
        circ = np.zeros(m)
        circ[: self.n] = col
        circ[m - self.n + 1:] = col[1:][::-1]
        self._m = m
        self._kfft = sfft.rfft(circ)

    def apply(self, u: np.ndarray) -> np.ndarray:
        if u.shape[-1] != self.n:
            raise ValueError("vector length does not match the grid")
        return _circulant_apply(u, self._kfft, self._m)

    def dense(self) -> np.ndarray:
        idx = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        return self.column[idx]

    def row_sums(self) -> np.ndarray:
        return self.apply(np.ones(self.n))


class ConvolverStack:
    """Several kernels convolved on one grid by one forward and one inverse FFT.

    Row r of ``apply(u)`` equals ``KernelConvolver(kernels[r], dx, n).apply``
    of row r bit for bit: the rows share the embedding length and each is
    transformed, multiplied and inverted exactly as on its own.
    """

    def __init__(self, kernels, dx: float, n: int):
        convs = [KernelConvolver(k, dx, n) for k in kernels]
        self.n, self._m = convs[0].n, convs[0]._m
        self._kfft = np.stack([c._kfft for c in convs])

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Convolve row r of the (rows, k) array u, k <= n, by kernel r.

        Cells k..n-1 count as zero; the result covers the first k cells.
        """
        k = u.shape[-1]
        if u.shape[0] != self._kfft.shape[0] or k > self.n:
            raise ValueError("stack shape does not match the kernels and grid")
        return _circulant_apply(u, self._kfft, self._m)


class CdfInterpolant:
    """Dense linear-interpolation table for a kernel CDF on [x_min, x_max].

    Used where the CDF must be evaluated at arguments that change every time
    step; static grid quantities always use the exact CDF instead.
    """

    def __init__(self, kernel: Kernel, x_max: float, step: float, x_min: float = 0.0):
        self.x = np.arange(x_min, x_max + 2 * step, step)
        self.y = np.asarray(kernel.cdf(self.x))
        self.top = float(kernel.mass)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.x, self.y, left=float(self.y[0]), right=float(self.y[-1]))
