"""Kernels, nonlinearities, parameter validation, derived constants, grids."""
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from conftest import params_with
from nlfront import grids
from nlfront.model import (
    Kernel,
    ModelError,
    ModelParams,
    NoPositiveEquilibrium,
    Nonlinearity,
    _brentq,
    derived_constants,
    equilibrium,
    first_moment,
    initial_profile,
)

TABLE_POINTS = tuple((x, math.exp(-x) / 2.0) for x in np.linspace(0.0, 20.0, 400))

FAMILIES = [
    Kernel("laplace", 1.0),
    Kernel("laplace", 0.5),
    Kernel("gaussian", 1.0),
    Kernel("cauchy", 1.0),
    Kernel("cauchy", 1.0, exponent=1.3),
    Kernel("table", 1.0, points=TABLE_POINTS),
]


@pytest.mark.parametrize("kernel", FAMILIES, ids=lambda k: f"{k.family}-{k.scale}-{k.exponent}")
def test_kernel_even_positive_normalized(kernel):
    xs = np.linspace(0.01, 30.0, 64)
    assert np.max(np.abs(kernel.pdf(-xs) - kernel.pdf(xs))) < 1e-14
    assert float(kernel.pdf(0.0)) > 0.0
    # total mass via the half-line integral; R large enough even for the
    # slowest tail here (cauchy exponent 1.3 leaves ~R^-0.3 outside)
    big = 1e30
    assert abs(2.0 * float(kernel.half_integral(big)) - 1.0) < 1e-8


def test_truncation_below_and_monotone_in_n():
    base = Kernel("laplace", 1.0)
    xs = np.linspace(0.0, 25.0, 400)
    j5 = base.truncate(5.0)
    j10 = base.truncate(10.0)
    assert np.all(j5.pdf(xs) <= base.pdf(xs) + 1e-15)
    assert np.all(j5.pdf(xs) <= j10.pdf(xs) + 1e-15)
    assert j5.mass < j10.mass < 1.0
    with pytest.raises(ModelError, match="already truncated"):
        j5.truncate(7.0)


def _mp_density(kernel: Kernel):
    """The untruncated density of kernel in mpmath arithmetic."""
    s = mpmath.mpf(kernel.scale)
    if kernel.family == "laplace":
        return lambda t: mpmath.exp(-t / s) / (2 * s)
    if kernel.family == "gaussian":
        return lambda t: mpmath.exp(-((t / s) ** 2)) / (s * mpmath.sqrt(mpmath.pi))
    if kernel.family == "cauchy":
        g = mpmath.mpf(kernel.exponent)
        c = mpmath.sin(mpmath.pi / g) / (2 * s * mpmath.pi / g)
        return lambda t: c / (1 + (t / s) ** g)
    xs = [mpmath.mpf(x) for x, _ in kernel.points]
    ys = [mpmath.mpf(y) for _, y in kernel.points]
    segments = list(zip(xs, xs[1:], ys, ys[1:]))
    half = sum((x1 - x0) * (y0 + y1) / 2 for x0, x1, y0, y1 in segments)

    def density(t):
        for x0, x1, y0, y1 in segments:
            if t <= x1:
                return (y0 + (y1 - y0) * (t - x0) / (x1 - x0)) / (2 * half)
        return mpmath.mpf(0)

    return density


@pytest.mark.parametrize("base, n", [
    (Kernel("laplace", 1.0), 1.5),
    (Kernel("laplace", 300.0), 1.0),  # u/s near 0.003, where 1 - e^-T(1 + T + T^2/2) cancels
    (Kernel("gaussian", 1.0), 0.8),
    (Kernel("gaussian", 40.0), 1.0),
    (Kernel("cauchy", 1.0, exponent=1.3), 8.0),
    (Kernel("cauchy", 2.0, exponent=2.5), 1.0),
    (Kernel("cauchy", 0.5, exponent=3.5), 3.0),
    (Kernel("table", points=((0.0, 1.0), (0.5, 0.8), (1.5, 0.2), (3.0, 0.0))), 1.2),
], ids=lambda v: f"{v.family}-{v.scale}-{v.exponent}" if isinstance(v, Kernel) else str(v))
def test_truncated_partial_first_moment_matches_mpmath(base, n):
    kernel = base.truncate(n)
    density = _mp_density(base)
    knots = [x for x, _ in base.points] if base.family == "table" else []
    us = [0.37 * n, n, 1.3 * n, 1.9 * n, 2.0 * n, 3.1 * n]
    got = kernel.partial_first_moment(us)
    with mpmath.workdps(30):
        mn = mpmath.mpf(n)
        for u, value in zip(us, got):
            cuts = sorted({0.0, u} | {x for x in knots + [n, 2.0 * n] if x < u})
            ref = mpmath.quad(lambda t: t * density(t) * min(1, max(0, 2 - t / mn)),
                              [mpmath.mpf(x) for x in cuts])
            assert abs(value - ref) <= 1e-12 * ref, (u, float(abs(value - ref) / ref))


@pytest.mark.parametrize("g", [1.3, 2.0, 2.5, 3.0, 3.5])
def test_power_tail_partial_moments_match_mpmath(g):
    # int_0^u t^k J(t) dt for k = 0, 1, 2 far into the tail; scipy's
    # hyp2f1(1, a; 1 + a; -z) lost digits at integer a for large z (g = 2's
    # first moment 8e-7 off at u = 1e6, g = 3's second moment inf from 1e5)
    kernel = Kernel("cauchy", 1.0, exponent=g)
    us = [0.3, 1.0, 1.7, 1e2, 1e4, 1e5, 1e6]
    got = [kernel.half_integral(us), kernel.partial_first_moment(us),
           kernel._base_moment(np.array(us), 2)]
    density = _mp_density(kernel)
    with mpmath.workdps(40):
        for k, values in enumerate(got):
            for u, value in zip(us, values):
                cuts = [0.0] + [c for c in (1.0, 1e2, 1e4) if c < u] + [u]
                ref = mpmath.quad(lambda t: t**k * density(t), [mpmath.mpf(c) for c in cuts])
                assert abs(value - ref) <= 1e-13 * ref, (k, u, float(abs(value - ref) / ref))
    if g == 3.0:
        # the truncated kernel's first moment was NaN through that inf
        assert abs(first_moment(kernel.truncate(1e5)) - 0.4999971338594792) < 1e-13


def _mp_tail(kernel: Kernel):
    """T(s), the kernel's mass beyond s, in mpmath arithmetic; truncated
    kernels only for the laplace family."""
    sc = mpmath.mpf(kernel.scale)
    g = mpmath.mpf(kernel.exponent)
    c = mpmath.sin(mpmath.pi / g) / (2 * sc * mpmath.pi / g)
    base = {
        "laplace": lambda s: mpmath.exp(-s / sc) / 2,
        "gaussian": lambda s: mpmath.erfc(s / sc) / 2,
        "cauchy": lambda s: 0.5 - c * s * mpmath.hyp2f1(1, 1 / g, 1 + 1 / g, -(s / sc) ** g),
    }[kernel.family]
    if kernel.n is None:
        return base
    assert kernel.family == "laplace"
    n = mpmath.mpf(kernel.n)

    def moment(s):  # ∫_s^∞ t J(t) dt
        return (s + sc) * mpmath.exp(-s / sc) / 2

    def tail(s):
        if s >= 2 * n:
            return mpmath.mpf(0)
        t = max(s, n)  # the ramp's part, ∫_t^2n J(t') (2 - t'/n) dt'
        ramp = 2 * (base(t) - base(2 * n)) - (moment(t) - moment(2 * n)) / n
        return ramp + (base(s) - base(n) if s < n else 0)

    return tail


@pytest.mark.parametrize("kernel", [
    Kernel("laplace", 1.0),
    Kernel("gaussian", 1.0),
    Kernel("cauchy", 1.0, exponent=3.5),
    Kernel("cauchy", 1.0, exponent=1.3),
    Kernel("laplace", 0.5).truncate(1.5),
], ids=lambda k: f"{k.family}-{k.exponent}-{k.n}")
def test_tail_integral_matches_mpmath(kernel):
    # m(u) = ∫_0^u T(s) ds, the comparison barrier's flux factor, against a
    # quadrature of the tail itself; at most u mass/2, the bound it replaces
    tail = _mp_tail(kernel)
    for u in (0.1, 2.2, 50.0):
        got = float(kernel.tail_integral(u))
        cuts = sorted({0.0, u} | {c for c in (1.0, kernel.n, 2.0 * (kernel.n or 0.0))
                                  if c and c < u})
        with mpmath.workdps(30):
            ref = mpmath.quad(tail, [mpmath.mpf(c) for c in cuts])
        assert abs(got - ref) <= 1e-10 * ref, (u, float(abs(got - ref) / ref))
        assert got <= u * kernel.mass / 2.0


def test_cdf_never_falls_below_zero():
    # left of 0 the CDF is mass/2 - half_integral, a difference of O(1)
    # numbers far out in a power tail, which rounding took to -1.1e-16 and
    # -3.3e-16 here
    assert float(Kernel("cauchy", 1.0, exponent=3.5).cdf(-1e7)) >= 0.0
    assert float(Kernel("cauchy", 1.0, exponent=1.3).cdf(-math.inf)) == 0.0


_ROOT_FAMILIES = {  # each vanishes at r
    "tanh": lambda r, k, c: lambda x: math.tanh(k * (x - r)) + c * (x - r),
    "cubic": lambda r, k, c: lambda x: (x - r) ** 3 + c * (x - r),
    "exp": lambda r, k, c: lambda x: math.exp(k * (x - r)) - 1.0 + c * (x - r) ** 2,
    "sine": lambda r, k, c: lambda x: math.sin(k * (x - r)) + c * (x - r) ** 2,
    "nan-past-r": lambda r, k, c: lambda x: k * (x - r) if x < r + c else math.nan,
}


def _outcome(solver, *args, **kwargs):
    """('root', hex bits) or ('raises', exception type) of one solve."""
    try:
        return "root", float(solver(*args, **kwargs)).hex()
    except (ValueError, RuntimeError) as exc:
        return "raises", type(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(family=st.sampled_from(sorted(_ROOT_FAMILIES)), r=st.floats(-3.0, 3.0),
       k=st.floats(0.05, 5.0), c=st.floats(-0.9, 0.9), left=st.floats(-0.5, 5.0),
       right=st.floats(1e-9, 5.0), xtol=st.sampled_from([1e-13, 1e-15]),
       maxiter=st.sampled_from([100, 100, 100, 5]))
def test_brentq_port_is_bitwise_scipy(family, r, k, c, left, right, xtol, maxiter):
    # a negative left end leaves r outside the bracket, mostly a same-sign one
    f = _ROOT_FAMILIES[family](r, k, c)
    args = (f, r - left, r + right)
    ours = _outcome(lambda *a, **kw: _brentq(*a, **kw)[0], *args, xtol=xtol, maxiter=maxiter)
    assert ours == _outcome(optimize.brentq, *args, xtol=xtol, rtol=8.9e-16, maxiter=maxiter)
    if ours[0] != "root":
        return
    # the final sign bracket holds the root, its end values are f's, and
    # it meets the stop; an exact zero keeps the last strict sign bracket
    found = _brentq(*args, xtol=xtol, maxiter=maxiter)
    x, fx, (lo, hi), f_lo, f_hi = found
    assert lo <= x <= hi
    assert (fx, f_lo, f_hi) == (f(x), f(lo), f(hi))
    assert (f_lo < 0.0) != (f_hi < 0.0) or 0.0 in (f_lo, f_hi)
    if fx != 0.0:
        assert hi - lo <= xtol + 8.9e-16 * abs(x)
    else:
        assert lo == hi or (f_lo < 0.0) != (f_hi < 0.0) and 0.0 not in (f_lo, f_hi)
    # end values the caller holds give the same search
    assert _brentq(*args, xtol=xtol, maxiter=maxiter, fa=f(args[1]), fb=f(args[2])) == found


@pytest.mark.parametrize("f, lo, hi, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),  # same sign at both ends
    (lambda x: 1e-200 * (1.0 + x), 0.0, 1.0, ValueError),  # f(a) f(b) underflows to 0
    (lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0, ValueError),
    (lambda x: math.nan, 0.0, 1.0, ValueError),
    (lambda x: math.atan(x - 0.3), -1.0, 5.0, RuntimeError),  # 3 steps are too few
])
def test_brentq_port_raises_as_scipy_does(f, lo, hi, error):
    with pytest.raises(error):
        _brentq(f, lo, hi, xtol=1e-13, maxiter=3)
    with pytest.raises(error):
        optimize.brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=3)


def test_truncation_l1_gap_shrinks_and_dies():
    base = Kernel("laplace", 1.0)
    # the cutoff sits under the base density, so the L1 gap is 1 - mass
    gaps = [1.0 - base.truncate(n).mass for n in (2.0, 5.0, 10.0, 40.0)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_kernel_validation():
    with pytest.raises(ModelError, match="unknown kernel family"):
        Kernel("uniform", 1.0)
    with pytest.raises(ModelError, match="scale must be positive"):
        Kernel("laplace", 0.0)
    with pytest.raises(ModelError, match="exceed 1"):
        Kernel("cauchy", 1.0, exponent=0.9)
    with pytest.raises(ModelError, match="only meaningful for the table"):
        Kernel("laplace", 1.0, points=((0.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ModelError, match="at least two"):
        Kernel("table", 1.0, points=((0.0, 1.0),))
    with pytest.raises(ModelError, match="start at 0"):
        Kernel("table", 1.0, points=((0.5, 1.0), (1.0, 0.5)))
    with pytest.raises(ModelError, match=">= 0"):
        Kernel("table", 1.0, points=((0.0, 1.0), (1.0, -0.5)))


def test_table_tracks_its_source_density():
    table = Kernel("table", 1.0, points=TABLE_POINTS)
    base = Kernel("laplace", 1.0)
    xs = np.linspace(0.0, 15.0, 200)
    assert np.max(np.abs(table.pdf(xs) - base.pdf(xs))) < 2e-3
    assert np.max(np.abs(np.asarray(table.cdf(xs)) - np.asarray(base.cdf(xs)))) < 2e-3
    assert abs(first_moment(table) - 0.5) < 2e-3


def test_boundary_weight_is_the_retained_mass():
    k = Kernel("laplace", 1.0)
    assert abs(float(k.cdf(0.0)) - 0.5) < 1e-14
    assert abs(float(k.cdf(1.0)) - (1.0 - math.exp(-1.0) / 2.0)) < 1e-12
    assert abs(float(k.cdf(50.0)) - 1.0) < 1e-12
    xs = np.linspace(0.0, 10.0, 300)
    assert np.all(np.diff(k.cdf(xs)) >= 0.0)


def test_first_moment_closed_forms():
    assert abs(first_moment(Kernel("laplace", 1.0)) - 0.5) < 1e-12
    assert abs(first_moment(Kernel("laplace", 2.0)) - 1.0) < 1e-12
    assert abs(first_moment(Kernel("gaussian", 1.0)) - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert math.isinf(first_moment(Kernel("cauchy", 1.0)))
    assert math.isinf(first_moment(Kernel("cauchy", 1.0, exponent=1.3)))
    assert math.isinf(first_moment(Kernel("cauchy", 1.0, exponent=2.0)))
    # compact support restores a finite moment even for the heaviest tail
    assert math.isfinite(first_moment(Kernel("cauchy", 1.0, exponent=1.3).truncate(8.0)))


def test_first_moment_of_a_wide_table_is_its_support_moment():
    # the table vanishes past its last knot at 2e6, so its moment is the
    # partial moment there: L / 6 for this normalized triangle
    table = Kernel("table", points=((0.0, 1.0), (2e6, 0.0)))
    assert first_moment(table) == float(table.partial_first_moment(2e6))
    assert first_moment(table) == pytest.approx(2e6 / 6.0, rel=1e-12)


@pytest.mark.parametrize("kernel", [Kernel("laplace", 1.0), Kernel("gaussian", 1.0),
                                    Kernel("cauchy", 1.0, exponent=3.5)],
                         ids=lambda k: k.family)
def test_kernel_integrals_reach_their_limits_at_infinity(kernel):
    # an infinite argument, or a finite one whose u / scale overflows,
    # gives the full integrals, with no warning (P(a, inf) was nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, u in ((kernel, math.inf), (replace(kernel, scale=1e-300), 1e300)):
            assert float(k.partial_first_moment(u)) == pytest.approx(first_moment(k), rel=1e-14)
            assert 0.0 < first_moment(k) < math.inf
            assert float(k.cdf(u)) == k.mass


def test_nonlinearity_shapes():
    nl = Nonlinearity("saturating", 2.0, 2.0)
    assert nl.H(0.0) == 0.0 and nl.G(0.0) == 0.0
    assert nl.hp0 == 2.0 and nl.gp0 == 2.0
    zs = np.linspace(0.01, 50.0, 200)
    hz = np.array([nl.H(z) for z in zs]) / zs
    gz = np.array([nl.G(z) for z in zs]) / zs
    assert np.all(np.diff(hz) <= 1e-15)
    assert np.all(np.diff(gz) < 0.0)
    lin = Nonlinearity("linear", beta=2.0, c=1.5)
    assert lin.hp0 == 1.5
    assert abs(lin.H(3.0) - 4.5) < 1e-15
    with pytest.raises(ModelError, match="unknown nonlinearity"):
        Nonlinearity("cubic")
    with pytest.raises(ModelError, match="alpha must be positive"):
        Nonlinearity("saturating", alpha=0.0)


def test_equilibrium_anchors_and_consistency(p1):
    U, V = equilibrium(p1)
    nl = p1.nonlinearity
    assert abs(p1.a * U - nl.H(V)) < 1e-10
    assert abs(p1.b * V - nl.G(U)) < 1e-10
    assert abs(U - 1.2326523434716505) < 1e-9
    assert abs(V - 1.6063805407948233) < 1e-9


def test_no_positive_equilibrium(vanish_params):
    with pytest.raises(NoPositiveEquilibrium):
        equilibrium(vanish_params)
    dc = derived_constants(vanish_params)
    assert dc.R0 == 0.25
    assert dc.U is None and dc.V is None
    assert dc.gammaA < 0.0


def test_derived_constants_p1(p1):
    dc = derived_constants(p1)
    assert dc.R0 == 4.0
    assert abs(dc.Rstar - 16.0 / 9.0) < 1e-14
    assert abs(dc.gammaA - 1.0) < 1e-14
    assert abs(dc.gammaB - 0.5) < 1e-14
    assert abs(dc.Lambda - 6.0) < 1e-14
    # the closed-form rates are eigenvalues of the zero-state coupling
    # matrices: check the defining residuals directly
    hp, gp = 2.0, 2.0
    for gamma, theta, shift in ((dc.gammaA, dc.thetaA, 0.0), (dc.gammaB, dc.thetaB, 0.5)):
        r1 = (gamma + p1.a + shift * p1.d1) * theta - hp
        r2 = (gamma + p1.b + shift * p1.d2) - gp * theta
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


@pytest.mark.parametrize("a, b", [(1e200, 1.0), (1.0, 1e200)], ids=["a", "b"])
def test_growth_rate_of_death_rates_far_apart(a, b):
    # (a - b)^2 overflows; the Perron root of [[-a, 2], [2, -b]] is then the
    # smaller death rate's negative, up to 4 / max(a, b)
    dc = derived_constants(params_with(a=a, b=b))
    assert dc.gammaA == -1.0
    assert dc.R0 == 4.0 / (a * b)


def test_growth_rate_signs_match_reproduction_numbers():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(0.2, 3.0, 2)
        alpha, beta = rng.uniform(0.2, 3.0, 2)
        d1, d2 = rng.uniform(0.01, 3.0, 2)
        p = params_with(a=a, b=b, d1=d1, d2=d2,
                        nonlinearity=Nonlinearity("saturating", alpha, beta))
        dc = derived_constants(p)
        assert dc.R0 > 1 if dc.gammaA > 0 else dc.R0 <= 1
        assert dc.Rstar >= 1 if dc.gammaB >= 0 else dc.Rstar < 1


@pytest.mark.parametrize("kind", ["tent", "plateau", "cosine", "parabola"])
def test_initial_profiles(kind):
    f = initial_profile(kind, 1.0, 2.0)
    xs = np.linspace(0.0, 2.0, 101)
    vals = np.asarray(f(xs))
    assert np.all(vals[:-1] > 0.0)
    assert abs(vals[-1]) < 1e-14
    assert np.max(vals) <= 1.0 + 1e-14
    with pytest.raises(ModelError, match="unknown profile kind"):
        initial_profile("spike", 1.0, 2.0)
    with pytest.raises(ModelError, match="amplitude"):
        initial_profile(kind, 0.0, 2.0)


def test_params_validation(laplace):
    with pytest.raises(ModelError, match="d1 \\+ d2 must be positive"):
        params_with(d1=0.0, d2=0.0)
    with pytest.raises(ModelError, match="must be positive"):
        params_with(a=0.0)
    with pytest.raises(ModelError, match="mu1, mu2"):
        params_with(mu1=-1.0)
    with pytest.raises(ModelError, match="h0"):
        params_with(h0=0.0)
    with pytest.raises(ModelError, match="vanish at the front"):
        params_with(u0=lambda x: np.ones_like(x))
    with pytest.raises(ModelError, match="positive on the interior"):
        params_with(u0=lambda x: np.zeros_like(x))
    # one dispersal rate may be zero
    assert params_with(d1=0.0).d1 == 0.0


def test_default_cells_policy():
    assert grids.default_cells(1.0) == 200
    assert grids.default_cells(5.0) == 200
    assert grids.default_cells(10.0) == 400
    assert grids.default_cells(200.0) == 8000


def test_cell_nodes_midpoints():
    x = grids.cell_nodes(0.0, 0.5, 4)
    assert np.allclose(x, [0.25, 0.75, 1.25, 1.75], atol=1e-15)


def test_discretization_refuses_more_cells_than_the_ceiling(laplace):
    # refused before any array is allocated (2**40 cells would need 8 TiB)
    with pytest.raises(ValueError, match="a grid of 1099511627776 cells is above "
                                         "the ceiling of 4194304"):
        grids.Discretization((laplace, laplace), 0.05, 2**40)


def _direct_sum(kernel, dx, u):
    """(K u)_j = sum_m mass(|j - m| dx) u_m by np.convolve against the
    symmetric column of exact cell masses, with no n x n matrix."""
    k = u.size
    offs = np.arange(k)
    col = np.asarray(kernel.cdf((offs + 0.5) * dx) - kernel.cdf((offs - 0.5) * dx))
    return np.convolve(u, np.concatenate([col[:0:-1], col]))[k - 1:2 * k - 1]


def test_convolver_matches_direct_sum(laplace):
    n, dx = 64, 0.1
    conv = grids.KernelConvolver((laplace,), dx, n)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, (1, n))
    dense = conv.dense()
    assert dense.shape == (1, n, n)
    assert np.max(np.abs(conv.apply(u) - dense @ u[0])) < 1e-12
    assert np.max(np.abs(conv.apply(u)[0] - _direct_sum(laplace, dx, u[0]))) < 1e-12
    # row sums equal the kernel mass retained over the grid's span
    x = grids.cell_nodes(0.0, dx, n)
    span = np.asarray(laplace.cdf(n * dx - x)) - np.asarray(laplace.cdf(-x))
    assert np.max(np.abs(conv.apply(np.ones((1, n))) - span)) < 1e-12


@pytest.mark.parametrize("n", [200, 1201, 2048])
def test_convolver_stack_rows_equal_single_applies(laplace, n):
    # the stepper's output must not depend on whether species share an FFT:
    # a row of a two-kernel convolver is a one-kernel convolver's bit for
    # bit when both have the same embedding length (the heavy cauchy tail
    # sets the pair's; laplace alone needs a shorter one past 727 cells,
    # and its row then matches the dense product to rounding), and equal
    # kernels share one spectrum
    kernels = (laplace, Kernel("cauchy", 1.0, exponent=1.3))
    pair = grids.KernelConvolver(kernels, 0.05, n)
    singles = [grids.KernelConvolver((k,), 0.05, n) for k in kernels]
    same = grids.KernelConvolver((laplace, laplace), 0.05, n)
    assert np.shares_memory(same._kfft[0], same._kfft[1])
    assert pair._m == singles[1]._m and (singles[0]._m < pair._m) == (n > 728)
    dense = pair.dense()
    rng = np.random.default_rng(n)
    for k in (n, n // 2 + 1):
        u = rng.uniform(0.0, 1.0, (2, k))
        padded = np.zeros((1, n))
        out = pair.apply(u)
        assert out.shape == (2, k)
        for row, conv in enumerate(singles):
            padded[0, :k] = u[row]
            if conv._m == pair._m:
                assert np.array_equal(out[row], conv.apply(u[row:row + 1])[0])
            else:
                ref = dense[row, :k, :k] @ u[row]
                assert np.max(np.abs(out[row] - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(conv.apply(u[row:row + 1])[0], conv.apply(padded)[0, :k])
        assert np.array_equal(same.apply(u), singles[0].apply(u[:, None])[:, 0])
    with pytest.raises(ValueError, match="operand shape"):
        pair.apply(np.zeros((2, n + 1)))
    with pytest.raises(ValueError, match="operand shape"):
        pair.apply(np.zeros((1, n)))


@pytest.mark.parametrize("k", [1, 2, 44, 200, grids.DENSE_MAX, grids.DENSE_MAX + 1])
def test_dense_dispersal_matches_fft_and_dense_reference(laplace, k):
    # up to DENSE_MAX cells the dispersal term d (K u - j u) applies the
    # dense block, beyond it the FFT convolver; both are the same linear map
    # as KernelConvolver.dense(), here with a partial last cell as under a
    # moving front
    dx = 0.05
    kernels = (laplace, Kernel("gaussian", 0.8))
    grid = grids.Discretization(kernels, dx, 2 * grids.DENSE_MAX)
    rng = np.random.default_rng(k)
    uv = rng.uniform(0.0, 1.0, (2, k))
    frac = np.ones(k)
    frac[-1] = 0.3
    rates = np.array([[1.5], [0.7]])
    loss = grid.j[:, :k] * uv
    out = rates * (grid.convolve(uv * frac) - loss)
    fft = rates * (grid.stack(k).apply(uv * frac) - loss)
    dense = np.stack([block @ (row * frac) for block, row
                      in zip(grids.KernelConvolver(kernels, dx, k).dense(), uv)])
    ref = rates * (dense - loss)
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(out - fft)) <= 1e-14 * scale
    assert np.max(np.abs(out - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("kernel", [Kernel("laplace", 1.0), Kernel("cauchy", 1.0)],
                         ids=["laplace", "cauchy"])
@pytest.mark.parametrize("k", [1, 44, 200, grids.DENSE_MAX])
def test_equal_kernel_dispersal_matches_dense_reference(kernel, k):
    # equal kernels share one product with the symmetric block for both rows
    dx = 0.05
    grid = grids.Discretization((kernel, kernel), dx, 2 * grids.DENSE_MAX)
    rng = np.random.default_rng(k)
    uv = rng.uniform(0.0, 1.0, (2, k))
    frac = np.ones(k)
    frac[-1] = 0.3
    rates = np.array([[1.5], [0.7]])
    out = rates * (grid.convolve(uv * frac) - grid.j[:, :k] * uv)
    dense = grids.KernelConvolver((kernel,), dx, k).dense()[0]
    ref = rates * (np.stack([dense @ (row * frac) for row in uv]) - grid.j[:, :k] * uv)
    assert np.max(np.abs(out - ref)) <= 1e-14 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
@pytest.mark.parametrize("k", [44, grids.DENSE_MAX, grids.DENSE_MAX + 1, 400])
def test_one_switch_serves_rows_and_batches_alike(laplace, k, equal):
    # stacked_convolution picks dense shared, dense per row or FFT for one
    # grid's (rows, k) array and for a (B, rows, k) batch; each member gets
    # the bits its own grid gives it
    kernels = (laplace, laplace if equal else Kernel("gaussian", 0.8))
    grid = grids.Discretization(kernels, 0.05, 2 * grids.DENSE_MAX)
    wide = grids.Discretization(kernels, 0.08, 2 * grids.DENSE_MAX)
    uv = np.random.default_rng(k).uniform(0.0, 1.0, (2, k))
    op = grids.stacked_convolution([grid], k)
    out = op(uv)
    assert out.shape == (2, k)
    assert np.array_equal(op(uv[None]), out[None])
    assert np.array_equal(grid.convolve(uv), out)
    pair = grids.stacked_convolution([grid, wide], k)(np.stack([uv, uv]))
    assert np.array_equal(pair[0], out)
    assert np.array_equal(pair[1], wide.convolve(uv))


@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_short_grid_block_is_the_leading_full_block(laplace, equal):
    # a grid below DENSE_MAX cells builds its dense block on its own cells;
    # entries depend only on the offset, so its product keeps the bits of a
    # DENSE_MAX build, and only a full-size block carries over to a wider grid
    kernels = (laplace, laplace if equal else Kernel("cauchy", 1.0))
    short = grids.Discretization(kernels, 0.05, 200)
    full = grids.Discretization(kernels, 0.05, grids.DENSE_MAX)
    assert short.block().shape == (2, 200, 200)
    assert np.array_equal(short.block(), full.block()[:, :200, :200])
    uv = np.random.default_rng(3).uniform(0.0, 1.0, (2, 200))
    assert np.array_equal(short.convolve(uv), full.convolve(uv))
    wide = 2 * grids.DENSE_MAX
    assert short.extended(wide).block().shape == (2, grids.DENSE_MAX, grids.DENSE_MAX)
    assert full.extended(wide).block() is full.block()


# the cell counts on both sides of each quarter-octave rung a front crosses
RUNG_SIDES = [256, 257, 320, 321, 384, 385, 448, 449, 512, 513, 1024, 1025, 1280, 1281]


@pytest.mark.parametrize("k", RUNG_SIDES)
def test_stack_rungs_match_dense_reference(laplace, k):
    dx = 0.05
    kernels = (laplace, Kernel("gaussian", 0.8))
    grid = grids.Discretization(kernels, dx, 4096)
    uv = np.random.default_rng(k).uniform(0.0, 1.0, (2, k))
    out = grid.stack(k).apply(uv)
    ref = np.stack([_direct_sum(kern, dx, row) for kern, row in zip(kernels, uv)])
    assert np.max(np.abs(out - ref)) <= 1e-14 * float(np.max(np.abs(ref)))


def test_stack_size_stays_within_a_quarter_of_the_front(laplace):
    grid = grids.Discretization((laplace,), 0.05, 8192)
    for k in [*RUNG_SIDES[1:], 700, 2000, 3583, 3585, 8000]:
        assert k <= grid.stack(k).n <= 1.25 * k, k
    assert grid.stack(8192).n == 8192
    assert grids.Discretization((laplace,), 0.05, 300).stack(290).n == 300


def test_cdf_interpolant_accuracy(laplace):
    interp = grids.CdfInterpolant(laplace, 30.0, 1e-3)
    xs = np.linspace(0.0, 29.5, 500)
    assert np.max(np.abs(interp(xs) - np.asarray(laplace.cdf(xs)))) < 1e-7


@pytest.mark.parametrize("build, message", [
    (lambda: Kernel("table", 1.0, points=((0.0, 1.0), (1.0, math.nan))),
     "table points must be finite"),
    (lambda: Kernel("table", 1.0, points=((0.0, 1.0), (math.inf, 0.5))),
     "table points must be finite"),
    (lambda: Kernel("laplace", 1.0, n=math.inf), "truncation index must be positive and finite"),
    (lambda: Nonlinearity("linear", c=math.nan), "c must be finite, got nan"),
], ids=["table-value", "table-abscissa", "truncation", "linear-slope"])
def test_non_finite_kernel_and_nonlinearity_inputs_are_refused(build, message):
    with pytest.raises(ModelError) as exc:
        build()
    assert str(exc.value) == message


def test_fft_embedding_length_is_the_next_five_smooth_length():
    from scipy import fft  # here only: nlfront itself must not load scipy
    for target in list(range(1, 6000)) + [13202, 26460, 199982, 262144, 599998]:
        assert grids._embedding_length(target) == fft.next_fast_len(target, real=True), target


@pytest.mark.parametrize("n", [448, 896, 1201, 1801, 3401, 6601])
def test_fft_embedding_is_five_smooth(laplace, n):
    # 7- and 11-smooth real transforms are slow in pocketfft; the embedding
    # keeps to factors 2, 3 and 5 and still holds the whole Toeplitz matrix:
    # n cells and the t taps of the longer-reaching kernel (laplace's, 728)
    kernels = (laplace, Kernel("gaussian", 0.8))
    conv = grids.KernelConvolver(kernels, 0.05, n)
    m = conv._m
    assert conv._taps == min(n, 728) and m >= n + conv._taps
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    assert m == 1
    uv = np.random.default_rng(n).uniform(0.0, 1.0, (2, n))
    out = conv.apply(uv)
    ref = np.stack([_direct_sum(kern, 0.05, row) for kern, row in zip(kernels, uv)])
    assert np.max(np.abs(out - ref)) <= 1e-14 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("kernel, dx, n", [
    (Kernel("laplace", 1.0), 0.1, 500),
    (Kernel("gaussian", 0.8), 0.05, 300),
    (Kernel("cauchy", 1.0, exponent=2.5).truncate(5.0), 0.05, 400),
    (Kernel("table", points=((0.0, 1.0), (1.0, 0.6), (3.0, 0.0))), 0.05, 300),
], ids=lambda v: v.family if isinstance(v, Kernel) else None)
def test_cut_embedding_matches_the_dense_product_at_every_size(kernel, dx, n):
    # past its last nonzero cell mass the column is exact zeros, so the
    # circulant holds only t taps and an embedding of n + t points, below
    # 2n, still holds the whole Toeplitz matrix: no wrap-around at any k
    conv = grids.KernelConvolver((kernel,), dx, n)
    t = conv._taps
    assert t < n and not np.any(conv._cols[0, t:]) and conv._cols[0, t - 1] > 0.0
    assert n + t <= conv._m < 2 * n
    dense = conv.dense()[0]
    u = np.random.default_rng(n).uniform(0.0, 1.0, n)
    for k in range(1, n + 1):
        ref = dense[:k, :k] @ u[:k]
        out = conv.apply(u[None, :k])[0]
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref)), k


def test_untruncated_cauchy_keeps_the_full_column_embedding():
    # a heavy tail's cell masses never reach zero: all n taps stay, the
    # embedding is the 5-smooth length >= 2n and the product the one of the
    # full-column circulant, bit for bit
    kernel, dx, n = Kernel("cauchy", 1.0, exponent=1.3), 0.05, 1201
    conv = grids.KernelConvolver((kernel,), dx, n)
    m = grids._embedding_length(2 * n)
    assert conv._taps == n and conv._m == m
    kfft = np.fft.rfft(grids._circulant(grids._cell_masses(kernel, dx, n), m))[None]
    rng = np.random.default_rng(5)
    for k in (1, 600, n):
        u = rng.uniform(0.0, 1.0, (1, k))
        assert np.array_equal(conv.apply(u), grids._circulant_apply(u, kfft, m, {}))


@pytest.mark.parametrize("kernel", [Kernel("laplace", 1.0), Kernel("gaussian", 0.8),
                                    Kernel("cauchy", 1.0, exponent=2.5)],
                         ids=lambda k: k.family)
def test_strided_lookup_matches_np_interp(kernel):
    # points a whole number of strides apart share one table fraction; on
    # a dyadic grid they, and the table's abscissae, are exact, so the
    # strided blend and np.interp interpolate at the same points
    dx = 2.0**-4
    table = grids.CdfInterpolant(kernel, 100.0, dx / 8, x_min=-1.0)
    rng = np.random.default_rng(11)
    for s in np.round(rng.uniform(-dx / 2, 2.0, 40) * 2**20) / 2**20:
        got = table.strided(float(s), 8, 1500)
        ref = table(s + dx * np.arange(1500))
        assert got.size == min(1500, -(-(table.flat - int((s + 1.0) / table.step)) // 8))
        assert np.all(np.abs(got - ref[:got.size]) <= 4 * np.spacing(ref[:got.size]))
        assert np.all(ref[got.size:] == float(kernel.mass))


@pytest.mark.parametrize("far", [1e77, 1e103, 1e200])
def test_table_kernel_with_a_far_last_knot(far):
    # a triangle on [0, L]: its segment integrals neither overflow nor
    # underflow on the way to values of the order of L (1e200^2 did, and
    # the slope 1 / L^2 went to 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = Kernel("table", points=((0.0, 1.0), (far, 0.0)))
        assert float(kernel.cdf(far / 2)) == pytest.approx(0.875, rel=1e-12)
        assert first_moment(kernel) == pytest.approx(far / 6, rel=1e-12)
        assert float(kernel.tail_integral(far / 2)) == pytest.approx(7 * far / 48, rel=1e-12)
