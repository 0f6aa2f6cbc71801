"""Kernels, nonlinearities, parameter validation, derived constants, grids."""
import math

import numpy as np
import pytest

from conftest import params_with
from nlfront import grids
from nlfront.model import (
    Kernel,
    ModelError,
    ModelParams,
    NoPositiveEquilibrium,
    Nonlinearity,
    boundary_weight,
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
    assert abs(float(boundary_weight(k, 0.0)) - 0.5) < 1e-14
    assert abs(float(boundary_weight(k, 1.0)) - (1.0 - math.exp(-1.0) / 2.0)) < 1e-12
    assert abs(float(boundary_weight(k, 50.0)) - 1.0) < 1e-12
    xs = np.linspace(0.0, 10.0, 300)
    assert np.all(np.diff(boundary_weight(k, xs)) >= 0.0)
    with pytest.raises(ModelError, match="x >= 0"):
        boundary_weight(k, -0.5)


def test_first_moment_closed_forms():
    assert abs(first_moment(Kernel("laplace", 1.0)) - 0.5) < 1e-12
    assert abs(first_moment(Kernel("laplace", 2.0)) - 1.0) < 1e-12
    assert abs(first_moment(Kernel("gaussian", 1.0)) - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert math.isinf(first_moment(Kernel("cauchy", 1.0)))
    assert math.isinf(first_moment(Kernel("cauchy", 1.0, exponent=1.3)))
    assert math.isinf(first_moment(Kernel("cauchy", 1.0, exponent=2.0)))
    # compact support restores a finite moment even for the heaviest tail
    assert math.isfinite(first_moment(Kernel("cauchy", 1.0, exponent=1.3).truncate(8.0)))


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


def test_sigma_perturbed_equilibrium(p1):
    dc = derived_constants(p1)
    assert dc.sigma == 0.0
    assert dc.Usigma == dc.U and dc.Vsigma == dc.V


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


def test_convolver_matches_direct_sum(laplace):
    n, dx = 64, 0.1
    conv = grids.KernelConvolver(laplace, dx, n)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, n)
    dense = conv.dense()
    assert np.max(np.abs(conv.apply(u) - dense @ u)) < 1e-12
    # row sums equal the kernel mass retained over the grid's span
    x = grids.cell_nodes(0.0, dx, n)
    span = np.asarray(laplace.cdf(n * dx - x)) - np.asarray(laplace.cdf(-x))
    assert np.max(np.abs(conv.row_sums() - span)) < 1e-12


@pytest.mark.parametrize("n", [200, 1201, 2048])
def test_convolver_stack_rows_equal_single_applies(laplace, n):
    # the stepper's output must not depend on whether species share an FFT
    kernels = (laplace, Kernel("cauchy", 1.0, exponent=1.3))
    stack = grids.ConvolverStack(kernels, 0.05, n)
    singles = [grids.KernelConvolver(k, 0.05, n) for k in kernels]
    rng = np.random.default_rng(n)
    for k in (n, n // 2 + 1):
        u = rng.uniform(0.0, 1.0, (2, k))
        padded = np.zeros((2, n))
        padded[:, :k] = u
        out = stack.apply(u)
        assert out.shape == (2, k)
        for row, conv in enumerate(singles):
            assert np.array_equal(out[row], conv.apply(padded[row])[:k])
    with pytest.raises(ValueError, match="stack shape"):
        stack.apply(np.zeros((2, n + 1)))


def test_cdf_interpolant_accuracy(laplace):
    interp = grids.CdfInterpolant(laplace, 30.0, 1e-3)
    xs = np.linspace(0.0, 29.5, 500)
    assert np.max(np.abs(interp(xs) - np.asarray(laplace.cdf(xs)))) < 1e-7
