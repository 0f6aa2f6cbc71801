"""Half-line profile solver and the speed tables built on it."""
import math

import numpy as np
import pytest

from conftest import params_with
from nlfront import model, semiwave
from nlfront.grids import Discretization
from nlfront.model import Kernel, NoPositiveEquilibrium, equilibrium

HEAVY = Kernel("cauchy", 1.0, exponent=1.3)


def profile_residual(profile, params, quadrature="cells"):
    """Sup-norm of the discrete profile equations at the converged triple.

    `quadrature="cells"` uses the solver's exact per-cell kernel masses
    (on a grid rebuilt from the profile's nodes; the solver itself reuses
    its own); `"trapezoid"` rebuilds the convolution from pointwise kernel
    values with trapezoid weights, an independent check that the answer is
    not an artifact of the solver's own quadrature.
    """
    k1, k2 = semiwave._kernels(params, profile.n)
    x = profile.x
    m = x.size - 1
    dx = float(x[1] - x[0])
    own = np.stack([profile.p, profile.q])
    if quadrature == "cells":
        grid = Discretization((k1, k2), dx, m + 1)
        conv = grid.convolve(own) + semiwave._far_reach(grid, profile.far_field)
    elif quadrature == "trapezoid":
        diffs = np.abs(np.subtract.outer(x, x))
        wt = np.full(m + 1, dx)
        wt[0] = wt[-1] = dx / 2.0
        # the node quadrature spans [-L, 0] exactly, so the frozen far field
        # starts at -L here (not at the cell-partition cut -L - dx/2)
        conv = np.stack([
            np.asarray(k.pdf(diffs)) @ (wt * f) + far * np.asarray(k.mass - k.cdf(x + profile.L))
            for k, f, far in zip((k1, k2), own, profile.far_field)
        ])
    else:
        raise ValueError("quadrature must be 'cells' or 'trapezoid'")
    return semiwave._residual(params, profile.c, profile.sigma, own, conv, dx)


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
    assert profile_residual(wave_p1, p1, quadrature="cells") < 1e-5
    assert profile_residual(wave_p1, p1, quadrature="trapezoid") < 5e-3
    with pytest.raises(ValueError, match="quadrature"):
        profile_residual(wave_p1, p1, quadrature="simpson")


def test_solver_residual_matches_the_public_check(p1, wave_p1):
    # the solver evaluates its residual on its own grid, profile_residual on
    # one rebuilt from the nodes; the two differ only in rounding
    assert wave_p1.residual_profile == pytest.approx(
        profile_residual(wave_p1, p1), rel=1e-6, abs=1e-13)


@pytest.mark.parametrize("still", ["kernel1", "kernel2"])
def test_heavy_tail_off_the_front_keeps_a_finite_speed(still):
    # a species with mu = 0 adds no far-field flux, however far its kernel
    # reaches: 0 * inf must not become nan and a speed escape
    mu = {"kernel1": "mu1", "kernel2": "mu2"}[still]
    wave = semiwave.solve_semiwave(params_with(**{still: HEAVY, mu: 0.0}), L=20.0)
    assert math.isfinite(wave.c) and wave.c > 0.0


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


def test_truncation_can_remove_the_far_field(p1_d6):
    # R0 = 4, but a kernel truncated at n = 1 keeps about 77% of its mass,
    # and the lost 23% at rate 6 raises each decay rate to about 2.4
    with pytest.raises(NoPositiveEquilibrium, match="reproduction ratio is at most 1"):
        semiwave.solve_semiwave(p1_d6, n=1)


def test_truncation_table_thin_tail(p1):
    table = semiwave.speed_limits(p1, sigmas=[0.05], ns=[20, 40, 80], L=40.0)
    assert not table.accelerated
    col = table.speeds(0.05)
    assert len(col) == 3
    # thin tails stabilize fast: later cutoffs may only add mass
    assert all(b >= a - 5e-6 for a, b in zip(col, col[1:]))
    assert all(not row.escaped for row in table.rows)


@pytest.mark.parametrize("params, sigma, ns, accelerated", [
    # P1's column rises 3.1x (c = 0.1443, 0.4534), yet laplace kernels have
    # a finite first moment
    (params_with(), 0.0, [1, 8], False),
    # a 1.7x rise (c = 0.5327, 0.8825), yet cauchy 1.8 has no first moment
    (params_with(kernel1=Kernel("cauchy", 1.0, exponent=1.8),
                 kernel2=Kernel("cauchy", 1.0, exponent=1.8)), 0.01, [5, 10], True),
], ids=["laplace", "cauchy-1.8"])
def test_table_acceleration_is_the_rule_not_the_speeds(params, sigma, ns, accelerated):
    table = semiwave.speed_limits(params, sigmas=[sigma], ns=ns, L=20.0, dx=0.1)
    assert table.accelerated is accelerated
    assert len(table.rows) == 2 and all(math.isfinite(r.c) for r in table.rows)


_TABLE = Kernel("table", points=((0.0, 1.0), (0.5, 0.8), (1.5, 0.2), (3.0, 0.0)))


@pytest.mark.parametrize("mu1", [1.0, 0.0], ids=["mu-both", "mu1-zero"])
@pytest.mark.parametrize("kernel", [
    Kernel("laplace", 1.0), Kernel("gaussian", 1.0), _TABLE,
    Kernel("cauchy", 1.0, exponent=1.3), Kernel("cauchy", 1.0, exponent=1.8),
    Kernel("cauchy", 1.0, exponent=2.5),
], ids=["laplace", "gaussian", "table", "cauchy-1.3", "cauchy-1.8", "cauchy-2.5"])
def test_table_and_solve_agree_on_acceleration(kernel, mu1):
    # kernel1 under test beside P1's laplace kernel2: the table accelerates
    # exactly when the untruncated solve escapes with c = inf.  Cauchy 1.8
    # with mu1 = 0 solves to c = 0.3098
    params = params_with(kernel1=kernel, mu1=mu1)
    table = semiwave.speed_limits(params, sigmas=[0.0], ns=[5], L=20.0, dx=0.1)
    assert math.isfinite(table.rows[0].c)
    try:
        c = semiwave.solve_semiwave(params, L=20.0, dx=0.1).c
    except semiwave.SpeedEscape as escape:
        c = escape.c
    assert table.accelerated is (c == math.inf)
    assert table.accelerated is (kernel.family == "cauchy" and kernel.exponent <= 2.0
                                 and mu1 > 0.0)


def test_mixed_tails_still_accelerate():
    # one heavy kernel with mu > 0 is enough: the far-field flux diverges
    with pytest.raises(semiwave.SpeedEscape, match="far-field flux diverges") as escape:
        semiwave.solve_semiwave(params_with(kernel2=HEAVY))
    assert escape.value.c == math.inf


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


# the accelerate preset's cutoff column and its speeds, relaxed from the
# far-field constant to RELAX_TOL at every speed
COLUMN = {20: 1.2144087168436921, 40: 2.3989078585940407, 80: 4.56124075738982,
          160: 8.452545712936816}


def _relaxed_at(params, c, monkeypatch, tol=None, **grid):
    """Profiles relaxed at the one speed c from the far-field constant (to
    RELAX_TOL, or to `tol` when given): with C_TOL infinite the first speed
    tried is accepted."""
    monkeypatch.setattr(semiwave, "C_TOL", math.inf)
    if tol is not None:
        monkeypatch.setattr(semiwave, "RELAX_TOL", tol)
        monkeypatch.setattr(semiwave, "LOOSE_TOL", tol)
    wave = semiwave.solve_semiwave(params, c0=c, **grid)
    monkeypatch.undo()
    return np.stack([wave.p, wave.q])


@pytest.mark.parametrize("case", ["p1", "cutoff"])
def test_profiles_fall_as_the_speed_grows(p1, case, monkeypatch):
    # the warm start's premise: a profile relaxed at c1, even loosely, lies
    # above the one relaxed at any c2 > c1, so it is a supersolution there
    params, grid, speeds = {
        "p1": (p1, {}, (0.3, 0.45, 0.6)),
        "cutoff": (params_with(kernel1=HEAVY, kernel2=HEAVY), {"sigma": 0.01, "n": 40},
                   (2.0, 2.4, 3.0)),
    }[case]
    tight = [_relaxed_at(params, c, monkeypatch, **grid) for c in speeds]
    loose = [_relaxed_at(params, c, monkeypatch, tol=1e-4, **grid) for c in speeds]
    for prof in tight + loose:
        # nonincreasing toward the front, up to an ulp of the far field
        assert np.all(np.diff(prof) <= 4e-16)
    for lo, hi in zip(tight, tight[1:]):
        assert np.all(lo >= hi) and np.any(lo > hi)
    for lo, hi, tight_lo in zip(loose, tight[1:], tight):
        assert np.all(lo >= tight_lo) and np.all(lo >= hi)


def test_speeds_and_sweeps_of_the_warm_started_solves(wave_p1):
    # every speed within 1e-6 of the one relaxed from the constant each
    # time, at fewer sweeps (1,690 on P1 and 1,749 on the column that way)
    assert wave_p1.c == pytest.approx(0.45459295606960437, rel=1e-6)
    assert wave_p1.residual_profile < 1e-7 and wave_p1.sweeps <= 1250
    p = params_with(kernel1=HEAVY, kernel2=HEAVY)
    warm, sweeps = None, 0
    for n, c in COLUMN.items():
        w = semiwave.solve_semiwave(p, sigma=0.01, n=n, c0=warm)
        assert w.c == pytest.approx(c, rel=1e-6)
        assert w.residual_profile < 1e-7 and w.residual_speed < semiwave.C_TOL
        warm, sweeps = w.c, sweeps + w.sweeps
    assert sweeps <= 1100


@pytest.mark.parametrize("params, sigma, n, c", [
    (params_with(kernel2=Kernel("gaussian", 0.8)), 0.2, None, 0.24113361482663287),
    (params_with(), 0.0, 3, 0.40678964801191414),
], ids=["unequal-sigma", "truncated-n3"])
def test_warm_started_solve_keeps_its_speed(params, sigma, n, c):
    w = semiwave.solve_semiwave(params, sigma=sigma, n=n)
    assert w.c == pytest.approx(c, rel=1e-6)
    assert w.residual_profile < 1e-7 and w.residual_speed < semiwave.C_TOL


def _exact(x: float, shift: int) -> int:
    """x * 2**shift, exactly, for shift >= 1100 (past every double's binary
    denominator)."""
    num, den = x.as_integer_ratio()
    return num << (shift - den.bit_length() + 1)


@pytest.mark.parametrize("m", [1, 2, 1200, 6600])
def test_backward_recurrence_matches_exact_sums(m):
    # the relaxation sweep's solve of x_i = b_i + alpha x_{i+1} from the
    # clamped front node, against exact rational arithmetic (integers over
    # a power of two: alpha = A / 2^e makes x_i an integer over
    # 2^(1100 + e (m - i))), to the direct recurrence's bound of 64 ulps of
    # sum_j alpha^j |b_{i+j}|
    rng = np.random.default_rng(m)
    eps = np.finfo(float).eps
    for alpha in ([0.3, 0.82], [0.999, 0.0], [0.5, 1.0 - 1e-12]):
        rhs = np.zeros((2, m + 1))
        rhs[:, :-1] = rng.standard_normal((2, m)) * [[1.0], [1e-8]]
        held = rhs.copy()
        out = semiwave._backward_recurrence(np.array(alpha), m + 1)(rhs)
        assert out.shape == (2, m + 1) and np.all(out[:, -1] == 0.0)
        assert np.array_equal(rhs, held)
        for a, row, got in zip(alpha, rhs.tolist(), out.tolist()):
            num, den = a.as_integer_ratio()
            exact, size = 0, 0.0
            for i in range(m, -1, -1):
                shift = 1100 + (den.bit_length() - 1) * (m - i)
                exact = _exact(row[i], shift) + num * exact
                size = abs(row[i]) + a * size
                assert abs(_exact(got[i], shift) - exact) <= _exact(64 * eps * size, shift)


def test_one_cell_semiwave(p1):
    # L = 0.06, dx = 0.05 leaves one cell behind the clamped front node
    assert semiwave.solve_semiwave(p1, L=0.06, dx=0.05).c == 1.3051037865174255


def test_far_tail_past_the_support_needs_no_moment(laplace, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("moment computed")

    monkeypatch.setattr(semiwave, "first_moment", refuse)
    monkeypatch.setattr(model.Kernel, "partial_first_moment", refuse)
    for n in (1.0, 20.0):
        kernel = laplace.truncate(n)
        for s0 in (2.0 * n, 2.0 * n + 10.025):
            assert semiwave._far_tail_integral(kernel, s0) == 0.0
