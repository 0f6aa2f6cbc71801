"""Half-line profile solver and the speed tables built on it."""
import math

import numpy as np
import pytest

from conftest import params_with
from nlfront import semiwave
from nlfront.model import Kernel, equilibrium

HEAVY = Kernel("cauchy", 1.0, exponent=1.3)


@pytest.fixture(scope="module")
def wave_p1(p1):
    return semiwave.solve_semiwave(p1)


def test_speed_anchor(wave_p1):
    assert abs(wave_p1.c - 0.454593) < 5e-6


def test_profile_shape(p1, wave_p1):
    w = wave_p1
    U, V = equilibrium(p1)
    assert w.far_field == pytest.approx((U, V), abs=1e-12)
    # deep behind the front the profile sits on the positive equilibrium,
    # at the front it vanishes
    assert abs(w.p[0] - U) < 1e-9 and abs(w.q[0] - V) < 1e-9
    assert w.p[-1] == 0.0 and w.q[-1] == 0.0
    assert np.all(np.diff(w.p) <= 1e-12) and np.all(np.diff(w.q) <= 1e-12)
    assert np.all(w.p >= 0.0) and np.all(w.q >= 0.0)


def test_residuals_small(p1, wave_p1):
    assert wave_p1.residual_profile < 1e-5
    assert wave_p1.residual_speed < 1e-5
    assert semiwave.profile_residual(wave_p1, p1, quadrature="cells") < 1e-5
    assert semiwave.profile_residual(wave_p1, p1, quadrature="trapezoid") < 5e-3
    with pytest.raises(ValueError, match="quadrature"):
        semiwave.profile_residual(wave_p1, p1, quadrature="simpson")


def test_initial_guess_does_not_matter(p1, wave_p1):
    alt = semiwave.solve_semiwave(p1, c0=1.5)
    assert abs(alt.c - wave_p1.c) < 1e-5


def test_speed_monotone_in_perturbation(p1, wave_p1):
    cs = [semiwave.solve_semiwave(p1, sigma=s).c for s in (0.3, 0.1)]
    cs.append(wave_p1.c)
    assert all(b > a - 1e-9 for a, b in zip(cs, cs[1:]))
    assert all(c <= wave_p1.c + 1e-9 for c in cs)


def test_speed_monotone_in_front_response(p1, wave_p1):
    fast = semiwave.solve_semiwave(params_with(mu1=2.0, mu2=2.0))
    assert fast.c > wave_p1.c


def test_zero_front_response_means_zero_speed():
    w = semiwave.solve_semiwave(params_with(mu1=0.0, mu2=0.0))
    assert abs(w.c) < 1e-9


def test_truncation_table_thin_tail(p1):
    table = semiwave.speed_limits(p1, sigmas=[0.05], ns=[20, 40, 80], L=40.0)
    assert not table.accelerated
    col = table.speeds(0.05)
    assert len(col) == 3
    # thin tails stabilize fast: later cutoffs may only add mass
    assert all(b >= a - 5e-6 for a, b in zip(col, col[1:]))
    assert all(not row.escaped for row in table.rows)


def test_predicted_speed_thin(p1, wave_p1):
    pred = semiwave.predicted_speed(p1)
    assert not pred.accelerated
    assert pred.profile is not None
    assert abs(pred.c - wave_p1.c) < 1e-9


def test_predicted_speed_heavy_tail():
    p = params_with(kernel1=HEAVY, kernel2=HEAVY)
    pred = semiwave.predicted_speed(p)
    assert pred.accelerated
    assert pred.c is None
    assert pred.profile is None


def test_mixed_tails_still_accelerate(laplace):
    # one heavy channel is enough to break the finite-moment requirement
    pred = semiwave.predicted_speed(params_with(kernel2=HEAVY))
    assert pred.accelerated


def test_speed_closure_outer_iterations_on_cutoff_table():
    # the accelerate preset's cutoff column, warm-started like speed_limits;
    # damped fixed-point steps c + (F(c) - c)/2 alone take 48 speed updates
    p = params_with(kernel1=HEAVY, kernel2=HEAVY)
    warm = None
    outer = 0
    for n in (20, 40, 80, 160):
        w = semiwave.solve_semiwave(p, sigma=0.01, n=n, c0=warm)
        assert w.residual_speed < semiwave.C_TOL
        outer += w.outer_iterations
        warm = w.c
    assert outer <= 24
