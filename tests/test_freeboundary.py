"""Moving-front simulator: front law, verdicts, bounds, decay fits."""
import numpy as np
import pytest

from conftest import params_with
from nlfront import eigen, freeboundary as fb, grids, steady
from nlfront.model import Kernel, initial_profile


@pytest.fixture(scope="module")
def vanish_trace(vanish_params):
    return fb.simulate(vanish_params, horizon=40.0)


def test_front_strictly_advances(p1):
    trace = fb.simulate(p1, horizon=20.0)
    assert np.all(np.diff(trace.h) > 0.0)
    assert trace.h[0] == p1.h0
    assert trace.h[-1] > p1.h0 + 4.0


def test_pinned_front_matches_fixed_habitat(p1):
    frozen = params_with(mu1=0.0, mu2=0.0)
    dt = 0.04
    trace = fb.simulate(frozen, horizon=5.0, dx=0.05, dt=dt)
    assert np.all(trace.h == frozen.h0)
    # h0 is a whole number of cells, so the pinned run and a fixed-habitat
    # run live on identical grids and must agree step for step
    fixed, _ = steady.evolve_fixed(
        frozen.h0, frozen, frozen.u0, frozen.v0, horizon=5.0,
        num_cells=round(frozen.h0 / 0.05), dt=dt)
    assert trace.final.u.size == fixed.u.size
    assert np.max(np.abs(trace.final.u - fixed.u)) < 1e-9
    assert np.max(np.abs(trace.final.v - fixed.v)) < 1e-9


def test_grid_growth_between_heun_stages(p1):
    # the predictor front stays below the capacity edge (25.2 = 504 cells
    # + 8 spare of 512) and the corrector front crosses it
    eng = fb._Master(p1, 0.05, 512)
    eng.h = 25.1995
    eng.u[:504] = 0.01
    eng.v[:504] = 0.01
    dt = steady.stability_timestep(p1)
    _, _, g1 = eng.rhs(eng.u, eng.v, eng.h)
    assert eng.cap == 512 and eng.h + dt * g1 < 25.2
    eng.heun(dt)
    assert eng.h > 25.2 and eng.cap == 1024
    assert eng.u.size == eng.v.size == 1024
    assert np.all(eng.u[505:] == 0.0) and np.all(eng.u[:504] > 0.0)


def _dense_heun(state, params, dt):
    """One Heun step of the moving-front scheme from dense kernel matrices.

    Cells are weighted by their coverage min(max(h - j dx, 0), dx), fields and
    derivatives vanish beyond the front, and the front moves by the escaping
    flux, evaluated with the same CDF table spacing as the stepper.
    """
    dx, nl = state.dx, params.nonlinearity
    n = state.u.size + 8
    x = (np.arange(n) + 0.5) * dx
    edges = np.arange(n) * dx
    mats, loss, tails = [], [], []
    for kern in (params.kernel1, params.kernel2):
        mats.append(grids.KernelConvolver(kern, dx, n).dense())
        loss.append(np.asarray(kern.cdf(x)))
        tails.append(grids.CdfInterpolant(kern, n * dx + 1.0, dx / 8, x_min=-1.0))

    def deriv(u, v, h):
        w = np.clip(h - edges, 0.0, dx)
        fu = params.d1 * (mats[0] @ (u * w / dx) - loss[0] * u) - params.a * u + nl.H(v)
        fv = params.d2 * (mats[1] @ (v * w / dx) - loss[1] * v) - params.b * v + nl.G(u)
        m1, m2 = params.kernel1.mass, params.kernel2.mass
        flux = np.sum(w * (params.mu1 * u * (m1 - tails[0](h - x))
                           + params.mu2 * v * (m2 - tails[1](h - x))))
        return fu * (w > 0), fv * (w > 0), flux

    u = np.zeros(n)
    v = np.zeros(n)
    u[: state.u.size] = state.u
    v[: state.v.size] = state.v
    f1u, f1v, g1 = deriv(u, v, state.h)
    h_star = state.h + dt * g1
    f2u, f2v, g2 = deriv(u + dt * f1u, v + dt * f1v, h_star)
    u_new = np.maximum(u + 0.5 * dt * (f1u + f2u), 0.0)
    v_new = np.maximum(v + 0.5 * dt * (f1v + f2v), 0.0)
    return state.h + 0.5 * dt * (g1 + g2), u_new, v_new


@pytest.mark.parametrize("over", [
    {},
    {"d1": 0.0},
    {"kernel1": Kernel("gaussian", 0.8), "kernel2": Kernel("cauchy", 1.5, exponent=2.5)},
], ids=["P1", "no-first-dispersal", "gaussian-cauchy"])
def test_step_matches_dense_reference(over):
    # h0 sits just below a cell edge, so the front opens a new cell between
    # the two stages and the last covered cell is partial throughout
    p = params_with(h0=2.999, **over)
    dt = steady.stability_timestep(p)
    state = fb.initial_state(p, dx=0.05)
    for _ in range(3):
        h_ref, u_ref, v_ref = _dense_heun(state, p, dt)
        nxt = fb.step(state, p, dt)
        k = nxt.u.size
        assert abs(nxt.h - h_ref) < 1e-12
        assert np.max(np.abs(nxt.u - u_ref[:k])) < 1e-12
        assert np.max(np.abs(nxt.v - v_ref[:k])) < 1e-12
        assert np.all(u_ref[k:] == 0.0) and np.all(v_ref[k:] == 0.0)
        state = nxt
    assert state.u.size > 60


def test_snapshots_and_determinism(p1):
    kw = dict(horizon=8.0, snapshot_times=(2.0, 5.0))
    a = fb.simulate(p1, **kw)
    b = fb.simulate(p1, **kw)
    assert [round(s.t, 6) for s in a.snapshots] == [2.0, 5.0]
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.mass, b.mass)
    assert np.array_equal(a.final.u, b.final.u)


def test_fractional_front_cell_accepted():
    p = params_with(h0=1.93)
    state = fb.initial_state(p, dx=0.05)
    assert state.h == 1.93
    assert state.u.size == int(np.ceil(1.93 / 0.05))
    nxt = fb.step(state, p, dt=0.02)
    assert nxt.h > state.h
    assert nxt.t == pytest.approx(0.02)


def test_classify_spreading(p1):
    out = fb.classify(p1, t_max=200.0)
    assert out.verdict == "spreading"
    assert out.lambda_front is not None and out.lambda_front > 0.0
    assert out.t_decided < 100.0
    again = fb.classify(p1, t_max=200.0)
    assert (again.verdict, again.t_decided, again.h_front) == (
        out.verdict, out.t_decided, out.h_front)


def test_classify_vanishing(vanish_params):
    out = fb.classify(vanish_params, t_max=300.0)
    assert out.verdict == "vanishing"
    assert out.stall_gap is not None and out.stall_gap < 1e-6
    assert out.mass < 0.1


def test_mass_bound_holds_pathwise(vanish_params, vanish_trace):
    bound = fb.front_mass_bound(vanish_trace, vanish_params)
    assert np.all(vanish_trace.h <= bound + 1e-9)
    assert bound > vanish_params.h0


def test_mass_bound_drops_idle_channels(vanish_params, vanish_trace):
    one = fb.front_mass_bound(vanish_trace, params_with(
        a=2.0, b=2.0, nonlinearity=vanish_params.nonlinearity, mu2=0.0))
    both = fb.front_mass_bound(vanish_trace, params_with(
        a=2.0, b=2.0, nonlinearity=vanish_params.nonlinearity, mu1=0.0, mu2=0.0))
    assert one > both == vanish_params.h0


def test_refinement_consistency(p1):
    coarse = fb.simulate(p1, horizon=50.0, dx=0.05)
    fine = fb.simulate(p1, horizon=50.0, dx=0.025,
                       dt=coarse.dt / 2.0)
    rel = abs(coarse.h[-1] - fine.h[-1]) / fine.h[-1]
    assert rel < 0.02


def test_vanishing_rate_exponential(vanish_params, vanish_trace):
    lam = eigen.lambda1(float(vanish_trace.h[-1]), vanish_params)
    fit = fb.vanishing_rate(vanish_trace, lam)
    assert fit.mode == "exponential"
    assert fit.k > 0.0
    assert fit.r_squared > 0.98


def _synthetic_trace(t, sup, mass):
    return fb.SimulationTrace(
        t=t, h=np.full(t.size, 2.0), sup_u=sup, sup_v=sup, mass=mass,
        snapshots=(), M1=float(sup[0]), M2=float(sup[0]),
        dx=0.05, dt=0.01, final=None)


def test_vanishing_rate_algebraic_band():
    t = np.linspace(0.0, 60.0, 121)
    sup = 1.0 / (1.0 + t) ** 2
    trace = _synthetic_trace(t, sup, mass=4.0 * sup)
    fit = fb.vanishing_rate(trace, lam_front=0.0)
    assert fit.mode == "algebraic"
    assert abs(fit.k - 2.0) < 1e-6
    assert fit.r_squared > 0.999999


def test_vanishing_rate_rejections():
    t = np.linspace(0.0, 60.0, 121)
    growing = _synthetic_trace(t, 1.0 + t / 60.0, mass=4.0 + t)
    with pytest.raises(ValueError, match="not a vanishing trace"):
        fb.vanishing_rate(growing, lam_front=-0.5)
    short = _synthetic_trace(t[:5], 1.0 / (1.0 + t[:5]), mass=1.0 / (1.0 + t[:5]))
    with pytest.raises(ValueError, match="too short"):
        fb.vanishing_rate(short, lam_front=-0.5)


def test_mismatch_rows_structure(p1):
    rows = fb.symmetrization_mismatch(p1, h0_values=(0.5, 1.0, 2.0), num_points=5000)
    assert [r.h0 for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r.two_sided == pytest.approx(2.0 * r.one_sided, rel=1e-14)
        assert r.residual == pytest.approx(r.one_sided, rel=1e-14)
        assert r.one_sided > 0.0
    with pytest.raises(ValueError, match="positive"):
        fb.symmetrization_mismatch(p1, h0_values=(-1.0,))
