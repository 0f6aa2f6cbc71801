"""Dispersal kernels, interaction nonlinearities, parameter sets, derived constants.

Everything downstream (eigenvalue solvers, steady states, the moving-front
simulator, semi-wave profiles) consumes the objects defined here.  Kernels are
even probability densities given by closed-form families or tabulated values;
all of them expose exact CDFs and partial first moments so that grid operators
can be assembled from exact per-cell masses.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "ModelError",
    "NoPositiveEquilibrium",
    "Kernel",
    "Nonlinearity",
    "ModelParams",
    "DerivedConstants",
    "initial_profile",
    "first_moment",
    "equilibrium",
    "derived_constants",
]

KERNEL_FAMILIES = ("laplace", "gaussian", "cauchy", "table")

# terms of the Euler-transformed series in w <= 1/2 of the power-tail
# integrals: the first term left out is below 2^-56 of the sum
SERIES_TERMS = 56


class ModelError(ValueError):
    """Invalid model input (parameter domain or hypothesis violation)."""


class NoPositiveEquilibrium(ModelError):
    """The reaction system has no positive constant state at this perturbation."""


def _overflow_is_inf(method: Callable) -> Callable:
    """`method` with floating overflow giving inf, and log 0 giving -inf,
    without a warning: a scaled argument u / scale past the float range lies
    far out in the tail, where inf (and the power-tail integrals' 1 / inf =
    0) gives every kernel integral its limit."""
    @functools.wraps(method)
    def wrapped(*args):
        with np.errstate(over="ignore", divide="ignore"):
            return method(*args)
    return wrapped


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _check_finite(obj, *names: str) -> None:
    """ModelError naming the first of obj's fields that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Even, nonnegative dispersal density.

    Parameters
    ----------
    family:
        One of ``laplace``, ``gaussian``, ``cauchy``, ``table``.
    scale:
        Length scale; densities are ``base(|x|/scale)/scale`` up to
        normalization.
    exponent:
        Tail exponent of the ``cauchy`` family, ``J ~ |x|**-exponent``;
        the default 2.0 is the standard Cauchy density 1/(pi(1+x^2)).
        Must be finite, and above 1 for integrability.  Ignored by other
        families.
    points:
        ``table`` family only: ((x0, J0), (x1, J1), ...) with x0 = 0,
        strictly increasing abscissae, values >= 0, linearly interpolated
        and reflected evenly; zero beyond the last knot.  Normalized to
        unit mass at construction.
    n:
        Optional truncation index: the density is multiplied by the
        plateau-ramp cutoff (1 on |x|<=n, linear to 0 across n<|x|<=2n)
        and deliberately NOT renormalized, so the mass drops below 1.
    """

    family: str
    scale: float = 1.0
    exponent: float = 2.0
    points: tuple[tuple[float, float], ...] | None = None
    n: float | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ModelError(f"unknown kernel family {self.family!r}")
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ModelError("kernel scale must be positive and finite")
        _check_finite(self, "exponent")
        if self.family == "cauchy" and self.exponent <= 1.0:
            raise ModelError("cauchy tail exponent must exceed 1 for integrability")
        if self.n is not None and not 0 < self.n < math.inf:
            raise ModelError("truncation index must be positive and finite")
        if self.family == "table":
            self._init_table()
        elif self.points is not None:
            raise ModelError("points are only meaningful for the table family")

    def _init_table(self):
        if not self.points or len(self.points) < 2:
            raise ModelError("table kernel needs at least two (x, J) pairs")
        xs = np.array([p[0] for p in self.points], dtype=float)
        ys = np.array([p[1] for p in self.points], dtype=float)
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ModelError("table points must be finite")
        if xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
            raise ModelError("table abscissae must start at 0 and increase strictly")
        if np.any(ys < 0) or ys[0] <= 0:
            raise ModelError("table values must be >= 0 with J(0) > 0")
        seg = np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0
        raw_half = float(seg.sum())
        if raw_half <= 0:
            raise ModelError("table kernel has zero mass")
        ys = ys / (2.0 * raw_half)
        # cumulative ∫J, ∫tJ and ∫t^2 J at the knots, exact for the linear
        # interpolant; a second moment past the float range (a last knot
        # beyond about 1e154) is inf
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0)])
        with np.errstate(over="ignore"):
            cum_k = tuple(np.concatenate([[0.0], np.cumsum(
                _segment_moment(xs[:-1], xs[1:], ys[:-1], ys[1:], k))]) for k in (1, 2))
        object.__setattr__(self, "_tx", xs)
        object.__setattr__(self, "_ty", ys)
        object.__setattr__(self, "_tcum", cum)
        object.__setattr__(self, "_tcum_k", cum_k)  # ∫t^k J for k = 1, 2

    # -- base family pieces (no truncation) ---------------------------------

    @property
    def _cauchy_c(self) -> float:
        """Normalizing constant c of the cauchy density c / (1 + (r/s)**g)."""
        g = self.exponent
        return 1.0 / (2.0 * self.scale * (math.pi / g) / math.sin(math.pi / g))

    def _knot(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u capped at the table's last knot, the index i of its knot
        segment and the density J(u), blended from the segment's ends by
        the covered fraction of the segment (no slope, which underflows
        on a long segment)."""
        xs, ys = self._tx, self._ty
        u = np.minimum(u, xs[-1])
        i = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, len(xs) - 2)
        frac = (u - xs[i]) / (xs[i + 1] - xs[i])
        return u, i, ys[i] + (ys[i + 1] - ys[i]) * frac

    @_overflow_is_inf
    def _base_pdf(self, r: np.ndarray) -> np.ndarray:
        s = self.scale
        if self.family == "laplace":
            return np.exp(-r / s) / (2.0 * s)
        if self.family == "gaussian":
            return np.exp(-((r / s) ** 2)) / (s * math.sqrt(math.pi))
        if self.family == "cauchy":
            return self._cauchy_c / (1.0 + (r / s) ** self.exponent)
        # table
        return np.interp(r, self._tx, self._ty, right=0.0)

    @_overflow_is_inf
    def _base_half(self, u: np.ndarray) -> np.ndarray:
        """∫_0^u J, vectorized, exact, for u >= 0."""
        s = self.scale
        if self.family == "laplace":
            return (1.0 - np.exp(-u / s)) / 2.0
        if self.family == "gaussian":
            return _erf(u / s) / 2.0
        if self.family == "cauchy":
            return self._cauchy_c * s * _cauchy_integral(1.0, self.exponent, u / s)
        u, i, ju = self._knot(u)
        return self._tcum[i] + (u - self._tx[i]) * (self._ty[i] + ju) / 2.0

    @_overflow_is_inf
    def _base_moment(self, u: np.ndarray, k: int) -> np.ndarray:
        """Partial moment ∫_0^u t^k J(t) dt for k = 1, 2, exact, for u >= 0.

        The laplace and gaussian forms are regularized incomplete gamma
        functions, which keep full relative precision as u -> 0, where the
        elementary 1 - (1 + u/s) e^{-u/s} cancels.
        """
        s = self.scale
        if self.family == "laplace":
            return math.factorial(k) * s**k / 2.0 * _gammainc(k + 1.0, u / s)
        if self.family == "gaussian":
            h = (k + 1) / 2.0
            return (s**k * math.gamma(h) / (2.0 * math.sqrt(math.pi))
                    * _gammainc(h, (u / s) ** 2))
        if self.family == "cauchy":
            # c s first: c ~ 1/s, and s^(k+1) alone underflows at tiny scales
            return self._cauchy_c * s * s**k * _cauchy_integral(k + 1.0, self.exponent, u / s)
        u, i, ju = self._knot(u)
        return self._tcum_k[k - 1][i] + _segment_moment(self._tx[i], u, self._ty[i], ju, k)

    # -- public surface ------------------------------------------------------

    def pdf(self, x) -> np.ndarray:
        r = np.abs(_as_array(x))
        out = self._base_pdf(r)
        if self.n is not None:
            out = out * np.clip(2.0 - r / self.n, 0.0, 1.0)
        return out

    def _truncated_moment(self, u, k: int) -> np.ndarray:
        """∫_0^u t^k J(t) dt for k = 0, 1 and u >= 0 (truncation applied if
        present).

        On the ramp [n, 2n] the truncated density is J(t)(2 - t/n), whose
        k-th moment is twice the increment of the base k-th partial moment
        minus the increment of the (k + 1)-th over n.
        """
        def base(x, j):
            return self._base_half(x) if j == 0 else self._base_moment(x, j)

        u = np.maximum(_as_array(u), 0.0)
        if self.n is None:
            return base(u, k)
        n = self.n
        u2 = np.clip(u, n, 2.0 * n)
        at_n = np.asarray(n, dtype=float)
        return (base(np.minimum(u, n), k) + 2.0 * (base(u2, k) - base(at_n, k))
                - (base(u2, k + 1) - base(at_n, k + 1)) / n)

    def half_integral(self, u) -> np.ndarray:
        """∫_0^u J(t) dt for u >= 0 (truncation applied if present)."""
        return self._truncated_moment(u, 0)

    def cdf(self, x) -> np.ndarray:
        x = _as_array(x)
        # left of 0 the CDF is the tail mass/2 - half_integral(-x), a
        # difference of O(1) numbers far out, which rounding can take below 0
        return np.maximum(self.mass / 2.0 + np.copysign(self.half_integral(np.abs(x)), x), 0.0)

    def partial_first_moment(self, u) -> np.ndarray:
        """∫_0^u t J(t) dt for u >= 0 (truncation applied if present)."""
        return self._truncated_moment(u, 1)

    def tail_integral(self, u) -> np.ndarray:
        """∫_0^u T(s) ds for u >= 0, with T(s) = cdf(-s) the mass beyond s.

        Closed form u T(u) + ∫_0^u t J(t) dt, by parts, since T' = -J.  It is
        at most u mass/2 (T <= T(0) = mass/2).
        """
        u = _as_array(u)
        return u * self.cdf(-u) + self.partial_first_moment(u)

    @property
    def mass(self) -> float:
        """Total integral; 1 for base families, < 1 once truncated."""
        if self.n is None:
            return 1.0
        return 2.0 * float(self.half_integral(2.0 * self.n))

    @property
    def support_radius(self) -> float:
        r = math.inf
        if self.family == "table":
            r = float(self._tx[-1])
        if self.n is not None:
            r = min(r, 2.0 * self.n)
        return r

    def truncate(self, n: float) -> "Kernel":
        if self.n is not None:
            raise ModelError("kernel is already truncated")
        return replace(self, n=float(n))


# ---------------------------------------------------------------------------
# special functions of the kernel families
# ---------------------------------------------------------------------------

_erf = np.vectorize(math.erf, otypes=[float])
_erfc = np.vectorize(math.erfc, otypes=[float])


def _split(x, at: float, below: Callable, above: Callable):
    """below(x) where x <= at, above(x) elsewhere, elementwise.  A 0-d x
    runs as a Python float, on which the series loops cost about 5x less
    than on a numpy array (30 against 165 us per power-tail integral); the
    accelerate preset makes about 260 such calls."""
    if np.ndim(x) == 0:
        x = float(x)
        return below(x) if x <= at else above(x)
    x = _as_array(x)
    out = np.empty_like(x)
    low = x <= at
    out[low] = below(x[low])
    out[~low] = above(x[~low])
    return out


def _lower_power_integral(p: float, g: float, x):
    """∫_0^x s^(p-1)/(1+s^g) ds for 0 <= x <= 1, p > 0.

    That is x^p/p 2F1(1, p/g; 1 + p/g; -z), z = x^g; Euler's transformation
    turns the 2F1 into (1+z)^-1 sum_k k!/(1+p/g)_k w^k, w = z/(1+z) <= 1/2,
    a series of positive terms summed by Horner's rule.
    """
    coef = [1.0]
    for k in range(1, SERIES_TERMS):
        coef.append(coef[-1] * k / (k + p / g))
    z = x**g
    w = z / (1.0 + z)
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * w + c
    return x**p / (p * (1.0 + z)) * acc


def _upper_power_integral(q: float, g: float, x):
    """∫_x^1 s^(q-1)/(1+s^g) ds for 0 < x <= 1.

    For q < 1/2 the elementary ∫_x^1 s^(q-1) ds is split off through
    1/(1+s^g) = 1 - s^g/(1+s^g), leaving the same integral at q + g; at
    larger q the difference of two series does not cancel.
    """
    if q >= 0.5:
        return _lower_power_integral(q, g, 1.0) - _lower_power_integral(q, g, x)
    head = -np.log(x) if q == 0.0 else -np.expm1(q * np.log(x)) / q
    return head - _upper_power_integral(q + g, g, x)


def _cauchy_integral(p: float, g: float, t):
    """∫_0^t s^(p-1)/(1+s^g) ds for t >= 0: the power-tail kernels' partial
    integrals, ∫_0^u r^(p-1) c/(1+(r/s)^g) dr = c s^p I(u/s).  Beyond t = 1
    the substitution s -> 1/s maps the rest onto [1/t, 1], exponent g - p."""
    head = _lower_power_integral(p, g, 1.0)
    return _split(t, 1.0, lambda x: _lower_power_integral(p, g, x),
                  lambda x: head + _upper_power_integral(g - p, g, 1.0 / x))


def _gammainc(a: float, x):
    """Regularized lower incomplete gamma P(a, x), x >= 0, for the a the
    kernel moments need: 1, 1.5, 2 and 3.  Below a + 1 its series
    x^a e^-x / Gamma(a+1) sum_n x^n / ((a+1)...(a+n)), 36 terms by Horner's
    rule; above, 1 - Q with Q closed-form (for half-integer a through erfc)."""
    def series(x):
        acc = 1.0
        for n in range(36, 0, -1):
            acc = 1.0 + x / (a + n) * acc
        return x**a * np.exp(-x) / math.gamma(a + 1.0) * acc

    def complement(x):
        # past x = 1e3, Q(a, x) < e^-990 is 0 in floating point: the cap
        # changes no value and keeps inf - inf (P(a, inf) = 1) out of exp
        x = np.minimum(x, 1e3)
        if a == 1.5:
            return 1.0 - _erfc(np.sqrt(x)) - 2.0 * np.sqrt(x / math.pi) * np.exp(-x)
        # e^-x x^k as one exp: x^k alone overflows far out
        return 1.0 - sum(np.exp(k * np.log(x) - x) / math.factorial(k) for k in range(int(a)))

    return _split(x, a + 1.0, series, complement)


def _segment_moment(x0, x1, y0, y1, k: int):
    """∫_{x0}^{x1} t^k J(t) dt for k = 1, 2, J linear from y0 at x0 to y1
    at x1: one segment of a table kernel.  Simpson's rule, exact for the
    cubic t^k J(t).  Each t J(t) is formed before any further power of t,
    and no slope is, so a far knot (J ~ 1/t there) overflows or underflows
    no term before the moment itself does."""
    def f(t, y):
        return y * t * t ** (k - 1)

    d = x1 - x0
    return d / 6.0 * (f(x0, y0) + 4.0 * f(x0 + d / 2.0, (y0 + y1) / 2.0) + f(x1, y1))


def first_moment(kernel: Kernel) -> float:
    """∫_0^∞ t J(t) dt, or +inf when the tail is too heavy.

    A table or truncated kernel vanishes past its finite support radius, so
    its partial first moment there is the whole; an untruncated laplace,
    gaussian or cauchy kernel has a closed form.
    """
    if kernel.support_radius < math.inf:
        return float(kernel.partial_first_moment(kernel.support_radius))
    s = kernel.scale
    if kernel.family == "laplace":
        return s / 2.0
    if kernel.family == "gaussian":
        return s / (2.0 * math.sqrt(math.pi))
    g = kernel.exponent
    if g <= 2.0:
        return math.inf
    return kernel._cauchy_c * s * s * (math.pi / g) / math.sin(2.0 * math.pi / g)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """Infection/recovery response pair (H, G).

    ``saturating``: H(z) = alpha z/(1+z), G(z) = beta ln(1+z).
    ``linear``:     H(z) = c z with the same saturating G.
    """

    family: str
    alpha: float = 2.0
    beta: float = 2.0
    c: float = 1.0

    def __post_init__(self):
        if self.family not in ("saturating", "linear"):
            raise ModelError(f"unknown nonlinearity family {self.family!r}")
        _check_finite(self, "alpha", "beta", "c")
        if self.family == "saturating" and self.alpha <= 0:
            raise ModelError("alpha must be positive")
        if self.family == "linear" and self.c <= 0:
            raise ModelError("c must be positive")
        if self.beta <= 0:
            raise ModelError("beta must be positive")

    def H(self, z):
        z = _as_array(z)
        if self.family == "saturating":
            return self.alpha * z / (1.0 + z)
        return self.c * z

    def G(self, z):
        return self.beta * np.log1p(_as_array(z))

    @property
    def hp0(self) -> float:
        """Slope of H at zero."""
        return self.alpha if self.family == "saturating" else self.c

    @property
    def gp0(self) -> float:
        return self.beta

    def check_hypotheses(self, a: float, b: float) -> None:
        """ModelError unless recovery dominates at large density for the
        decay rates a, b.  Both families are increasing and sublinear (H(z)/z
        and G(z)/z nonincreasing) for every positive rate by construction."""
        vstar = None
        if self.hp0 * self.gp0 > a * b:
            vstar = _positive_root(a, b, self)
        zhat = 10.0 * max(1.0, vstar if vstar is not None else 1.0)
        if not float(self.G(self.H(zhat) / a)) < b * zhat:
            raise ModelError("recovery fails to dominate at large density")


def _positive_root(a_eff: float, b_eff: float, nl: Nonlinearity) -> float:
    """Positive root of G(H(V)/a_eff) = b_eff V; caller checks slope condition."""
    def f(v: float) -> float:
        return float(nl.G(nl.H(v) / a_eff)) - b_eff * v

    hi = 1.0
    for _ in range(80):
        if f(hi) < 0:
            break
        hi *= 2.0
    else:
        raise NoPositiveEquilibrium("no positive equilibrium: G(H(V)/a) stays above bV")
    # the slope condition makes f positive just above the trivial root at 0
    return _brentq(f, hi * 2.0**-60, hi, xtol=1e-15)[0]


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float,
            maxiter: int = 100, fa: float | None = None, fb: float | None = None
            ) -> tuple[float, float, tuple[float, float], float, float]:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A port of scipy.optimize.brentq (scipy's C ``brentq`` behind its
    NaN-raising wrapper) that takes the same steps in the same floating
    point order, so every root keeps its bits.  ``fa`` and ``fb`` are f(xa)
    and f(xb) when the caller already holds them; those ends are then not
    evaluated again.  Returns (x, f(x), (lo, hi), f(lo), f(hi)): the root
    and its final sign bracket, at most xtol + 8.9e-16 |x| wide (scipy's
    default rtol).  An exact zero f(x) = 0 ends the search early; the
    bracket is then the last one whose ends have strictly opposite signs,
    or (x, x) when x is xa or xb.  ValueError when f(xa) and f(xb) share a
    sign or f returns NaN; RuntimeError when maxiter steps leave the
    bracket wider than xtol + 8.9e-16 |x|.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    def result(x: float, fx: float, u: float, fu: float, w: float, fw: float):
        return (x, fx, (u, w), fu, fw) if u <= w else (x, fx, (w, u), fw, fu)

    xpre, xcur = float(xa), float(xb)
    fpre = call(xpre) if fa is None else float(fa)
    fcur = call(xcur) if fb is None else float(fb)
    if fpre == 0.0:
        return xpre, 0.0, (xpre, xpre), 0.0, 0.0
    if fcur == 0.0:
        return xcur, 0.0, (xcur, xcur), 0.0, 0.0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 8.9e-16 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0:  # fpre and fblk still have opposite signs
            return result(xcur, fcur, xpre, fpre, xblk, fblk)
        if abs(sbis) < delta:
            return result(xcur, fcur, xcur, fcur, xblk, fblk)
        stry = math.inf  # no interpolation step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C's inf or NaN fails the test below as inf does
        bound = 3.0 * abs(sbis) - delta
        if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur!r}")


# ---------------------------------------------------------------------------
# initial data and parameter sets
# ---------------------------------------------------------------------------

def initial_profile(kind: str, amplitude: float, h0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized initial profile on [0, h0], positive inside, zero at h0.

    Kinds: ``tent`` (linear ramp down), ``plateau`` (flat cap with a steep
    linear drop of slope h0 at the front), ``cosine``, ``parabola``.
    """
    if amplitude <= 0:
        raise ModelError("profile amplitude must be positive")
    if h0 <= 0:
        raise ModelError("profile needs h0 > 0")
    if kind == "tent":
        return lambda x: amplitude * np.clip(1.0 - _as_array(x) / h0, 0.0, 1.0)
    if kind == "plateau":
        return lambda x: amplitude * np.clip(h0 * (h0 - _as_array(x)), 0.0, 1.0)
    if kind == "cosine":
        return lambda x: amplitude * np.cos(np.clip(_as_array(x) / h0, 0.0, 1.0) * math.pi / 2.0)
    if kind == "parabola":
        return lambda x: amplitude * np.clip(1.0 - (_as_array(x) / h0) ** 2, 0.0, 1.0)
    raise ModelError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set for the two-component front problem.

    Immutable; all numeric fields are validated on construction, the
    nonlinearity's recovery must dominate at large density, and the
    initial data must be positive inside [0, h0) and vanish at h0.
    """

    d1: float
    d2: float
    a: float
    b: float
    mu1: float
    mu2: float
    h0: float
    kernel1: Kernel
    kernel2: Kernel
    nonlinearity: Nonlinearity
    u0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_finite(self, "d1", "d2", "a", "b", "mu1", "mu2", "h0")
        if self.d1 < 0 or self.d2 < 0:
            raise ModelError("dispersal rates must be >= 0")
        if self.d1 + self.d2 <= 0:
            raise ModelError("degenerate pair: d1 + d2 must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ModelError("decay rates a, b must be positive")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ModelError("front response rates mu1, mu2 must be >= 0")
        if self.h0 <= 0:
            raise ModelError("initial front position h0 must be positive")
        self.nonlinearity.check_hypotheses(self.a, self.b)
        xs = np.linspace(0.0, self.h0, 66)[1:-1]
        for name, f in (("u0", self.u0), ("v0", self.v0)):
            vals = _as_array(f(xs))
            if vals.shape != xs.shape or not np.all(np.isfinite(vals)):
                raise ModelError(f"{name} must map [0,h0] arrays to finite arrays")
            if np.any(vals <= 0):
                raise ModelError(f"{name} must be positive on the interior of [0, h0)")
            if abs(float(f(np.array([self.h0]))[0])) > 1e-12:
                raise ModelError(f"{name} must vanish at the front h0")


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form threshold constants plus constant equilibrium states.

    ``U, V`` are None when the basic reproduction ratio R0 is at most 1.
    """

    R0: float
    Rstar: float
    gammaA: float
    gammaB: float
    thetaA: float
    thetaB: float
    Lambda: float
    U: float | None
    V: float | None


def _perron_2x2(a11: float, a12: float, a21: float, a22: float) -> float:
    tr = a11 + a22
    try:
        disc = (a11 - a22) ** 2 + 4.0 * a12 * a21
    except OverflowError:
        # diagonal entries over 1e154 apart: the larger one plus its shift,
        # which squares nothing and cancels nothing
        if a11 < a22:
            a11, a12, a21, a22 = a22, a21, a12, a11
        return a11 + _perron_shift(a11, a12, a21, a22)
    lam = (tr + math.sqrt(disc)) / 2.0
    # characteristic-polynomial residual guards the closed form
    resid = lam * lam - tr * lam + (a11 * a22 - a12 * a21)
    if abs(resid) > 1e-12 * max(1.0, lam * lam, abs(a11 * a22), a12 * a21):
        raise ModelError("eigenvalue identity residual too large")
    return lam


def _perron_shift(a11: float, a12: float, a21: float, a22: float) -> float:
    """lambda - a11 for the Perron root lambda of [[a11, a12], [a21, a22]].

    Subtracting a11 from lambda cancels every digit when a12 a21 is tiny
    next to (a11 - a22)^2; with half = (a22 - a11) / 2 the shift is
    half + sqrt(half^2 + a12 a21), or a12 a21 over sqrt(...) - half when
    half < 0, neither of which cancels.
    """
    half = (a22 - a11) / 2.0
    root = math.hypot(half, math.sqrt(a12 * a21))
    return half + root if half >= 0.0 else a12 * (a21 / (root - half))


def equilibrium(params: ModelParams) -> tuple[float, float]:
    """Positive constant state of the reaction system.

    Reduces to the scalar fixed-point equation G(H(V)/a) = bV, brackets the
    root by doubling and solves it to machine precision.
    """
    return _equilibrium(params.a, params.b, params.nonlinearity)


def _equilibrium(a_eff: float, b_eff: float, nl: Nonlinearity) -> tuple[float, float]:
    """Positive (U, V) with a_eff U = H(V) and b_eff V = G(U), residuals
    checked to 1e-12; NoPositiveEquilibrium when H'(0) G'(0) <= a_eff b_eff."""
    if a_eff <= 0 or b_eff <= 0:
        raise ModelError("perturbed decay rates must stay positive")
    if nl.hp0 * nl.gp0 <= a_eff * b_eff:
        raise NoPositiveEquilibrium(
            "no positive equilibrium: perturbed reproduction ratio is at most 1"
        )
    v = _positive_root(a_eff, b_eff, nl)
    u = float(nl.H(v)) / a_eff
    scale = max(1.0, u, v)
    if abs(a_eff * u - float(nl.H(v))) > 1e-12 * scale or abs(
        b_eff * v - float(nl.G(u))
    ) > 1e-12 * scale:
        raise ModelError("equilibrium residual exceeded 1e-12")
    return u, v


def derived_constants(params: ModelParams) -> DerivedConstants:
    """All closed-form constants and the positive equilibrium."""
    nl = params.nonlinearity
    a, b, d1, d2 = params.a, params.b, params.d1, params.d2
    hp, gp = nl.hp0, nl.gp0
    gammaA = _perron_2x2(-a, hp, gp, -b)
    gammaB = _perron_2x2(-a - d1 / 2.0, hp, gp, -b - d2 / 2.0)
    thetaA = hp / _perron_shift(-a, hp, gp, -b)
    thetaB = hp / _perron_shift(-a - d1 / 2.0, hp, gp, -b - d2 / 2.0)
    R0 = hp * gp / (a * b)
    Rstar = hp * gp / ((a + d1 / 2.0) * (b + d2 / 2.0))
    Lam = 2.0 * (hp * gp - a * b) / a
    U = V = None
    if R0 > 1.0:
        U, V = equilibrium(params)
    return DerivedConstants(
        R0=R0, Rstar=Rstar, gammaA=gammaA, gammaB=gammaB,
        thetaA=thetaA, thetaB=thetaB, Lambda=Lam, U=U, V=V,
    )
