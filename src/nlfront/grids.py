"""Uniform cell grids and fast kernel convolution.

All spatial operators in the package live on uniform cell-centered grids.
Convolution against an even kernel is a symmetric Toeplitz matrix whose
entries are exact per-cell kernel masses (CDF differences); applying it is
done through a cached circulant embedding and real FFTs, or, on at most
DENSE_MAX cells, through the leading block of the same matrix held dense.

`Discretization` is the one discretization of the truncated nonlocal
operator d_r (∫ J_r(x - y) u_r(y) dy - j_r(x) u_r(x)) that every solver
builds on: exact cell masses, the retained mass j = CDF at the cell nodes,
and the escaping tail mass - CDF, read from a table at step dx/8 that a
moving front's cells, 8 steps apart, read by stride.

`stacked_convolution` is the one choice between the dense and the FFT
product, and the only way a solver forms K u.  The moving-front stepping
engine, the fixed domain of the steady solver, the eigen operator and the
semi-wave's profile grids all convolve through it (all but the first via
`Discretization.convolve`).

The FFTs are numpy's pocketfft real transforms on 5-smooth lengths, into
spectrum buffers each `KernelConvolver` keeps per operand shape.  A
convolver's embedding length follows the kernels' reach, n + t for t
nonzero taps, rather than 2n.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Kernel

__all__ = [
    "cell_nodes",
    "KernelConvolver",
    "CdfInterpolant",
    "Discretization",
    "stacked_convolution",
    "default_cells",
    "DENSE_MAX",
    "MAX_CELLS",
]

# Largest cell count convolved with a dense block; above it the FFT convolver
# (sized to its quarter-octave rung) is cheaper.  Dense / FFT time of one
# product for both species on a 2-vCPU x86 VM (numpy 2.4.6 and its pocketfft,
# OpenBLAS on one thread; the median of 21 back-to-back ratios, the range of
# three runs), one product shared by equal kernels: 0.07 at 44 cells,
# 0.28-0.33 at 200, 0.41-0.54 at 256, 0.55-0.76 at 320, 0.80-0.89 at 384; one
# product per kernel: 0.10-0.11, 0.44-0.56, 0.68-0.95, 1.13-1.58, 1.96-2.69.
# Equal kernels alone would move the crossover above 384 cells; DENSE_MAX
# keeps the one that unequal kernels need.
DENSE_MAX = 256

# Most cells any grid may have: 128 times the largest grid the test suite
# builds, and a 32 MiB array per field row.  A larger request comes from an
# extreme setting (a tiny dx, a huge length or amplitude) and is refused
# rather than left to exhaust memory.
MAX_CELLS = 2**22


def default_cells(l: float) -> int:
    """Grid-resolution policy for a domain of length l: at least 40 cells
    per unit length, never fewer than 200 cells."""
    return max(200, int(np.ceil(40.0 * l - 1e-9)))


def cell_nodes(left: float, dx: float, n: int) -> np.ndarray:
    """Midpoints of n cells of width dx starting at `left`."""
    return left + (np.arange(n) + 0.5) * dx


def _embedding_length(target: int) -> int:
    """The smallest 5-smooth length >= target: a `KernelConvolver` embeds
    its Toeplitz matrix in a circulant of length >= n + t, n cells and t
    taps.  Lengths with factors 7 or 11 (896, 3584, 13230) cost pocketfft's
    real transforms up to 1.6x more per element than a 5-smooth length
    (13230 at 45.7 against 13824 at 28.3 ns per element, 2-vCPU x86 VM)."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of 3^i 5^j reaching target
            best = min(best, p35 << max(0, (-(-target // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def _circulant_apply(u: np.ndarray, kfft: np.ndarray, m: int, bufs: dict) -> np.ndarray:
    """Zero-pad u to the embedding length m, multiply spectra, cut back.

    ``bufs`` keeps one padded input and one spectrum per operand shape:
    fresh temporaries made the apply about 1.5x slower on 2 x 13,500 points
    (the accelerate preset's semi-wave grid).  The result is a new array.
    """
    lead, k = u.shape[:-1], u.shape[-1]
    if lead not in bufs:
        bufs[lead] = (np.zeros(lead + (m,)), np.empty(lead + (m // 2 + 1,), complex))
    pad, spec = bufs[lead]
    pad[..., :k] = u
    pad[..., k:] = 0.0
    np.fft.rfft(pad, axis=-1, out=spec)
    spec *= kfft
    return np.fft.irfft(spec, n=m, axis=-1)[..., :k]


def _cell_masses(kernel: Kernel, dx: float, n: int) -> np.ndarray:
    """Kernel mass over the cell at each offset 0..n-1 (in cells) from a node."""
    offs = np.arange(n)
    return np.asarray(kernel.cdf((offs + 0.5) * dx) - kernel.cdf((offs - 0.5) * dx))


def _circulant(col: np.ndarray, m: int) -> np.ndarray:
    """First column of the size-m circulant that embeds, on up to
    m - col.size + 1 cells, the symmetric Toeplitz matrix whose first
    column is `col` followed by zeros."""
    return np.concatenate([col, np.zeros(m - 2 * col.size + 1, col.dtype), col[:0:-1]])


def _toeplitz(column: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first column `column`, as a read-only
    view of the 2n - 1 values column[n-1], ..., column[1], column[0], ...,
    column[n-1]; a copy of it needs no n x n index array."""
    vals = np.concatenate([column[::-1], column[1:]])
    return np.lib.stride_tricks.sliding_window_view(vals, column.size)[::-1]


def _equal(kernels) -> bool:
    """True when every kernel equals the first."""
    return all(k == kernels[0] for k in kernels)


def _rows(items, shared: bool, build) -> np.ndarray:
    """np.stack of build(item) over the items (kernels, or their columns);
    when they are all equal (`shared`), build once and broadcast it as a
    read-only view."""
    if shared:
        one = np.array(build(items[0]))
        return np.broadcast_to(one, (len(items),) + one.shape)
    return np.stack([build(item) for item in items])


def _toeplitz_rows(kernels, dx: float, n: int) -> np.ndarray:
    """(rows, n, n) dense convolution matrices, row r kernel r's on n cells
    of width dx; equal kernels share one matrix."""
    return _rows(kernels, _equal(kernels), lambda k: _toeplitz(_cell_masses(k, dx, n)))


class KernelConvolver:
    """(K u)_rj = sum_m mass_r(|j-m| dx) u_rm with exact cell masses, row r
    by kernel r, all rows by one forward and one inverse FFT.

    Approximates ∫ J_r(x_j - y) u_r(y) dy over the grid's span, treating u
    as piecewise constant per cell; the per-cell kernel masses are exact CDF
    differences, so row sums reproduce ∫ J_r(x_j - y) dy over the span
    exactly.  Equal kernels share one column and one spectrum.

    The circulant holds t taps, t = 1 + the offset of the last nonzero cell
    mass over all rows (a compact or thin-tailed kernel's masses are exact
    zeros past some offset; a heavy tail's never are, and then t = n), and
    has the embedding length m, the smallest 5-smooth length >= n + t.
    That embeds the whole n-cell Toeplitz matrix, with no wrap-around for
    any k <= n.  Row r of ``apply`` equals a one-kernel convolver of
    kernels[r] with the same m bit for bit (each row is transformed,
    multiplied and inverted exactly as on its own); with another m it
    differs by FFT rounding alone.
    """

    def __init__(self, kernels, dx: float, n: int):
        if n < 1 or dx <= 0:
            raise ValueError("convolver needs n >= 1 cells of positive width")
        self.kernels = tuple(kernels)
        self.dx = float(dx)
        self.n = int(n)
        shared = self._shared = _equal(self.kernels)
        # (rows, n) cell masses, the one kernel evaluation every product reads
        self._cols = _rows(self.kernels, shared, lambda k: _cell_masses(k, self.dx, self.n))
        t = self._taps = 1 + int(np.flatnonzero(np.any(self._cols, axis=0)).max(initial=0))
        m = self._m = _embedding_length(self.n + t)
        self._kfft = _rows(self._cols, shared, lambda col: np.fft.rfft(_circulant(col[:t], m)))
        self._bufs: dict = {}

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Convolve row r of the (..., rows, k) array u, k <= n, by kernel r.

        Cells k..n-1 count as zero; the result covers the first k cells.
        """
        if u.shape[-2] != len(self.kernels) or u.shape[-1] > self.n:
            raise ValueError("operand shape does not match the kernels and grid")
        return _circulant_apply(u, self._kfft, self._m, self._bufs)

    def precise(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``apply(u)`` for a (rows, k) array u in extended precision,
        rounded to float, and a bound on the error of each entry before that
        rounding, one per row: (K u, (rows, 1)).

        The product runs in np.longdouble, unit roundoff ε (2^-64 on
        x86-64; where long double is double, 2^-53 and a wider bound), on
        kernel spectra computed in that precision from the cell masses.
        Row r is irfft(rfft(p) K), p the row zero-padded to the embedding
        length m and K the spectrum of the circulant column c of kernel r's
        first t cell masses.  Model each of the L = ceil(log2 m) + 1 passes
        of a transform (one for the real-data packing) as a Cooley-Tukey stage
        with unit-modulus weights and relative error η = 10ε (Higham's μ +
        γ_4 (√2 + μ) = 6.7ε for radix 2 with twiddles correct to ε, with
        room for the radix 3, 4 and 5 passes), and let e = Lη / (1 - Lη).
        Then (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., §24.1) the computed rfft(p) and K are off by at most e √m
        ‖p‖₂ and e √m ‖c‖₂ in the 2-norm; the product is rounded by at most
        √2 γ_2 |rfft(p)_w K_w| at each frequency w; and, as every output of
        the inverse is reached from every input along one path of
        unit-modulus weights, each of its outputs is off by at most e ‖Z‖₁
        / m, Z the spectrum product.  An entry of the inverse transform of
        a spectrum error z is at most ‖z‖₁ / m, and Cauchy-Schwarz with
        ‖rfft(p)‖₂ = √m ‖p‖₂ and ‖K‖₂ = √m ‖c‖₂ bounds each entry's error
        by (3e + √2 γ_2 + ε)(1 + e)² ‖p‖₂ ‖c‖₂ <= 4e ‖p‖₂ ‖c‖₂.
        """
        m, t = self._m, self._taps
        self._bufs.clear()  # the float product's scratch, rebuilt when next needed
        spectra = _rows(self._cols, self._shared, lambda col: np.fft.rfft(
            _circulant(col[:t].astype(np.longdouble), m)))
        # a row at a time, which keeps the extended-precision arrays small
        out = np.stack([np.fft.irfft(np.fft.rfft(row.astype(np.longdouble), n=m) * spectrum,
                                     n=m)[: u.shape[-1]] for row, spectrum in zip(u, spectra)])
        e = (math.ceil(math.log2(m)) + 1) * 10 * float(np.finfo(np.longdouble).eps) / 2
        # ‖c‖₂² <= 2 Σ |K_w|² / m over the half spectrum (Parseval)
        norms = 2 * np.sum(np.abs(spectra) ** 2, axis=-1, keepdims=True) / m
        bound = 4 * e / (1 - e) * np.sqrt(np.sum(u**2, axis=-1, keepdims=True) * norms)
        return out.astype(float), bound.astype(float)

    def dense(self) -> np.ndarray:
        """(rows, n, n): row r is kernel r's Toeplitz matrix."""
        return _rows(self._cols, self._shared, _toeplitz)


class CdfInterpolant:
    """Dense linear-interpolation table for a kernel CDF on [x_min, x_max],
    at the abscissae x_min + i step.

    Used where the CDF must be evaluated at arguments that change every time
    step; static grid quantities always use the exact CDF instead.
    """

    def __init__(self, kernel: Kernel, x_max: float, step: float, x_min: float = 0.0):
        self.step = float(step)
        self.x = x_min + self.step * np.arange(math.ceil((x_max - x_min) / step) + 2)
        self.y = np.asarray(kernel.cdf(self.x))
        # the first index from which the table equals the kernel's mass
        # exactly, so that the interpolant does too at every x >= x[flat]
        # (the table's size when it never gets there, as for heavy tails)
        flat = self.y == float(kernel.mass)
        self.flat = flat.size - (flat.size if flat.all() else int(np.argmin(flat[::-1])))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.x, self.y, left=float(self.y[0]), right=float(self.y[-1]))

    def strided(self, s: float, stride: int, count: int) -> np.ndarray:
        """The interpolant at s + q stride step for q = 0, 1, ..., count - 1,
        cut before the first q whose table index j + stride q reaches
        `flat` (there, and at every later q, the value is the mass).  The
        points share s's fraction θ of a table step and j, s's table index,
        so their values are one strided two-point blend y[j + stride q] +
        θ (y[j + stride q + 1] - y[j + stride q]), with no search.  s must
        lie in the table, and so must the points before the cut."""
        p = (s - float(self.x[0])) / self.step
        j = int(p)
        theta = p - j
        count = min(count, max(0, -(-(self.flat - j) // stride)))
        lo = self.y[j: j + stride * count: stride]
        return lo + theta * (self.y[j + 1: j + 1 + stride * count: stride] - lo)


class Discretization:
    """One kernel per row on n cells of width dx, the first starting at 0.

    Owns the cell nodes ``x``, the retained masses ``j`` (row r: kernel r's
    CDF at the nodes, the mass a node keeps on its inner side), the kernel
    masses, one `KernelConvolver` per size and, built on first use, the
    dense dispersal block and each row's flux-tail table.
    """

    def __init__(self, kernels, dx: float, n: int):
        if n > MAX_CELLS:
            # exact below 1e15; float() alone overflows past 1.8e308
            count = n if n < 10**15 else f"{float(min(n, 1e308)):.3g}"
            raise ValueError(f"a grid of {count} cells is above the ceiling of {MAX_CELLS}")
        self.kernels = tuple(kernels)
        self.dx = float(dx)
        self.n = int(n)
        self.x = cell_nodes(0.0, self.dx, self.n)
        self._shared = _equal(self.kernels)
        self.j = _rows(self.kernels, self._shared, lambda k: np.asarray(k.cdf(self.x)))
        self.mass = tuple(float(k.mass) for k in self.kernels)
        self._convs: dict[int, KernelConvolver] = {}
        self._block: np.ndarray | None = None
        self._tails: list[CdfInterpolant | None] = [None] * len(self.kernels)
        self._conv: tuple = (None, None)  # (k, stacked_convolution([self], k))

    def extended(self, n: int) -> "Discretization":
        """The same kernels and width on n >= self.n cells; the convolvers
        carry over, since they do not depend on the cell count, and
        so does the dense block once it is full-size."""
        out = Discretization(self.kernels, self.dx, n)
        out._convs = self._convs
        if self.n >= DENSE_MAX:
            out._block = self._block
        return out

    def stack(self, k: int) -> KernelConvolver:
        """Convolver of every row for the first k cells.

        Sized to the smallest quarter-octave rung 2^p {1, 5/4, 3/2, 7/4}
        >= k (at least 256) but at most n, so k = n always gets size n, a
        growing front reuses a few sizes, and no size exceeds 1.25 k for
        k > 256.
        """
        quarter = 1 << max(6, int(k - 1).bit_length() - 3)
        size = min(max(256, -(-k // quarter) * quarter), self.n)
        conv = self._convs.get(size)
        if conv is None:
            conv = self._convs[size] = KernelConvolver(self.kernels, self.dx, size)
        return conv

    def block(self) -> np.ndarray:
        """(rows, s, s) dense convolution matrices, s = min(n, DENSE_MAX):
        row r is kernel r's Toeplitz matrix on s cells, whose leading
        k x k block convolves the first k cells; equal kernels share one
        matrix.  Each entry depends only on its offset, so the block of a
        short grid is the leading block of a full-size one."""
        if self._block is None:
            self._block = _toeplitz_rows(self.kernels, self.dx, min(self.n, DENSE_MAX))
        return self._block

    def tail(self, r: int) -> CdfInterpolant:
        """Row r's CDF table on [-max(1, dx), n dx + 1] at step dx/8, for
        the flux through a front inside the grid: the arguments h - x of
        the covered cells change every step, and as they are whole cells,
        8 table steps, apart, `CdfInterpolant.strided` reads them all at
        one table fraction.  The table starts below -dx/2, the least h - x
        a covered cell can have."""
        table = self._tails[r]
        if table is None:
            table = self._tails[r] = CdfInterpolant(
                self.kernels[r], self.n * self.dx + 1.0, self.dx / 8, x_min=-max(1.0, self.dx))
        return table

    def convolve(self, src: np.ndarray) -> np.ndarray:
        """K src, row r by kernel r, on the first k = src.shape[-1] cells,
        through `stacked_convolution`'s operator, kept until k changes."""
        k = src.shape[-1]
        if self._conv[0] != k:
            self._conv = (k, stacked_convolution([self], k))
        return self._conv[1](src)


def stacked_convolution(grids, k: int):
    """The operator src -> K src on the first k cells, row r by kernel r.

    src is (rows, k) on grids[0] alone, or (B, rows, k) with member b on
    grids[b]; the grids share their kernels and cell count and may differ
    in cell width.  Its callers are the stepping engine
    (`freeboundary._Master`, lone fronts and pinned batches), and through
    `Discretization.convolve` the steady solver's fixed domain, the eigen
    operator's matvec and the semi-wave's relaxation and residuals.  This
    is the package's one choice of product: up to DENSE_MAX cells the
    leading k x k blocks of each grid's cached `Discretization.block`,
    which skips the FFT's per-call overhead, as one product
    ``src @ block`` for all rows when every row has the same kernel (exact
    because the Toeplitz block is symmetric, reading the matrix once) and
    one per row otherwise, with several members' blocks stacked into one
    product; beyond DENSE_MAX the `apply` of the grid's convolver at k's
    size, each member by its own.  Member b's result equals the one-grid
    operator on grids[b] bit for bit.
    """
    def operand(of):
        ops = [of(g) for g in grids]
        return ops[0] if len(ops) == 1 else np.stack(ops)

    if k > DENSE_MAX:
        convs = [g.stack(k) for g in grids]
        if len(convs) == 1:
            return convs[0].apply
        return lambda src: np.stack([conv.apply(one) for conv, one in zip(convs, src)])
    if grids[0]._shared:
        blocks = operand(lambda g: g.block()[0, :k, :k])
        return lambda src: np.matmul(src, blocks)
    blocks = operand(lambda g: g.block()[:, :k, :k])
    return lambda src: np.matmul(blocks, src[..., None])[..., 0]
