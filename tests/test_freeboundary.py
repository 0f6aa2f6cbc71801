"""Moving-front simulator: front law, verdicts, bounds."""
import math
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import params_with
from nlfront import eigen, freeboundary as fb, grids, steady
from nlfront.model import (Kernel, NoPositiveEquilibrium, Nonlinearity, derived_constants,
                           equilibrium)


@pytest.fixture(scope="module")
def vanish_trace(vanish_params):
    return fb.simulate(vanish_params, horizon=40.0)


def test_front_strictly_advances(p1):
    trace = fb.simulate(p1, horizon=20.0)
    assert np.all(np.diff(trace.h) > 0.0)
    assert trace.h[0] == p1.h0
    assert trace.h[-1] > p1.h0 + 4.0


def test_grid_growth_between_heun_stages(p1):
    # the predictor front stays below the capacity edge (25.2 = 504 cells
    # + 8 spare of 512) and the corrector front crosses it
    eng = fb._Master(p1, 0.05, 512)
    eng.h = 25.1995
    eng.u[:504] = 0.01
    eng.v[:504] = 0.01
    dt = steady.stability_timestep(p1)
    _, g1 = eng.rhs(eng.uv, eng.h)
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
    mats = grids.KernelConvolver((params.kernel1, params.kernel2), dx, n).dense()
    loss, tails = [], []
    for kern in (params.kernel1, params.kernel2):
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
    eng = fb._start(p, 0.05)
    state = eng.state()
    for _ in range(3):
        h_ref, u_ref, v_ref = _dense_heun(state, p, dt)
        eng.heun(dt)
        nxt = eng.state()
        k = nxt.u.size
        assert abs(nxt.h - h_ref) < 1e-12
        assert np.max(np.abs(nxt.u - u_ref[:k])) < 1e-12
        assert np.max(np.abs(nxt.v - v_ref[:k])) < 1e-12
        assert np.all(u_ref[k:] == 0.0) and np.all(v_ref[k:] == 0.0)
        state = nxt
    assert state.u.size > 60


def test_pinned_front_matches_fixed_habitat():
    # with mu1 = mu2 = 0 the front stays at h0, a whole number of cells, so
    # the moving-front run and the fixed-habitat run on [0, h0] (which
    # ignores mu1, mu2) both follow the dense reference step for step
    dt = 0.04
    for over in ({}, {"d1": 0.0}):
        frozen = params_with(mu1=0.0, mu2=0.0, **over)
        trace = fb.simulate(frozen, horizon=3 * dt, dx=0.05, dt=dt, sample_interval=dt)
        fixed, _ = steady.evolve_fixed(
            frozen.h0, params_with(**over), frozen.u0, frozen.v0, horizon=3 * dt,
            num_cells=round(frozen.h0 / 0.05), dt=dt, sample_interval=dt)
        assert np.all(trace.h == frozen.h0) and fixed.dt == dt
        state = fb._start(frozen, 0.05).state()
        k = state.u.size
        for i in range(1, 4):
            h_ref, u_ref, v_ref = _dense_heun(state, frozen, dt)
            assert h_ref == frozen.h0
            assert np.all(u_ref[k:] == 0.0) and np.all(v_ref[k:] == 0.0)
            state = replace(state, h=h_ref, u=u_ref[:k], v=v_ref[:k])
            for sup_u, sup_v in ((trace.sup_u, trace.sup_v), (fixed.norm_u, fixed.norm_v)):
                assert abs(sup_u[i] - u_ref.max()) < 1e-12
                assert abs(sup_v[i] - v_ref.max()) < 1e-12
        for u, v in ((trace.final.u, trace.final.v), (fixed.u, fixed.v)):
            assert u.size == k
            assert np.max(np.abs(u - state.u)) < 1e-12
            assert np.max(np.abs(v - state.v)) < 1e-12


def _kernels():
    scale = st.floats(0.5, 2.0)
    base = st.one_of(
        st.builds(Kernel, st.sampled_from(["laplace", "gaussian"]), scale),
        st.builds(Kernel, st.just("cauchy"), scale, exponent=st.floats(1.3, 3.0)),
    )
    return st.one_of(base, st.builds(lambda k, n: k.truncate(n), base, st.floats(0.5, 4.0)))


_NONLINEARITIES = st.one_of(
    st.builds(Nonlinearity, st.just("saturating"), st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    st.builds(Nonlinearity, st.just("linear"), beta=st.floats(0.5, 3.0), c=st.floats(0.5, 3.0)),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kernel1=_kernels(), kernel2=_kernels(), nonlinearity=_NONLINEARITIES,
       d1=st.floats(0.0, 3.0), d2=st.floats(0.2, 3.0), mu1=st.floats(0.0, 2.0),
       mu2=st.floats(0.0, 2.0), h0=st.floats(0.5, 3.0))
def test_stepper_keeps_order_and_bounds(kernel1, kernel2, nonlinearity, d1, d2, mu1, mu2, h0):
    p = params_with(kernel1=kernel1, kernel2=kernel2, nonlinearity=nonlinearity,
                    d1=d1, d2=d2, mu1=mu1, mu2=mu2, h0=h0)
    trace = fb.simulate(p, horizon=4.0, dx=0.1, sample_interval=0.2, snapshot_times=(2.0,))
    assert np.all(np.diff(trace.h) >= 0.0)
    for fields in (trace.final, *trace.snapshots):
        assert np.all(fields.u >= 0.0) and np.all(fields.v >= 0.0)

    fixed, _ = steady.evolve_fixed(h0, p, p.u0, p.v0, horizon=4.0, num_cells=40)
    terms = [fixed.norm_u[0], fixed.norm_v[0]]
    try:
        terms += equilibrium(p)
    except NoPositiveEquilibrium:
        pass
    assert max(fixed.norm_u.max(), fixed.norm_v.max()) <= 10.0 * max(terms)
    assert np.all(fixed.u >= 0.0) and np.all(fixed.v >= 0.0)


# h0 as a fraction of the critical length at d = 5, the lowest d drawn:
# the critical length grows with d, so every example starts below it
_ELL_AT_D5 = {("laplace", "laplace"): 1.7742, ("gaussian", "gaussian"): 1.1138,
              ("gaussian", "laplace"): 1.3593}


@settings(max_examples=16, derandomize=True, deadline=None)
@given(families=st.sampled_from(sorted(_ELL_AT_D5)), d=st.floats(5.0, 7.0),
       frac=st.floats(0.8, 0.95), log_mu=st.floats(-2.3, 0.3))
def test_barrier_verdicts_hold(families, d, frac, log_mu):
    # squeeze regime (Rstar < 1 < R0, gammaA = 1): the verdict turns on mu.
    # A barrier verdict claims the front never passes h1; the run continued
    # to twice the decision time and at least to t_max must bear that out.
    # Since h1 lies below the length where classify certifies spreading,
    # without the barrier it could not have certified spreading by t_max.
    # In the unequal pair the laplace kernel, the second, lets more mass
    # escape, so the barrier's flux factor is its tail integral.
    kernels = [Kernel(family, 1.0) for family in families]
    mu = 10.0 ** log_mu
    p = params_with(d1=d, d2=d, mu1=mu, mu2=mu, h0=frac * _ELL_AT_D5[families],
                    kernel1=kernels[0], kernel2=kernels[1])
    t_max = 60.0
    out = fb.classify(p, t_max=t_max, dx=0.1)
    if out.certificate != "barrier":
        assert (out.barrier is None) and out.certificate in ("eigenvalue", "none")
        return
    bar = out.barrier
    assert out.verdict == "vanishing" and out.lambda_front < 0.0
    assert p.mu1 + p.mu2 <= 0.5 * bar.bound and out.h_front < bar.h1
    assert bar.flux_factor == float(kernels[1].tail_integral(bar.h1))
    assert bar.delta == -eigen.lambda1(bar.h1, p, num_cells=grids.default_cells(bar.h1))
    trace = fb.simulate(p, horizon=max(2.0 * out.t_decided, t_max), dx=0.1)
    assert trace.h.max() < bar.h1


def test_barrier_scale_covers_every_cell(p1_d6):
    # M bounds u / phi over each whole stepper cell, phi interpolated
    # linearly between the eigen nodes, not only at the cell nodes
    state = fb.simulate(replace(p1_d6, mu1=0.02, mu2=0.02), horizon=5.0).final
    edges = np.arange(state.u.size) * state.dx
    ell = eigen.critical_length(p1_d6, target=2e-6).value
    bar = fb._barrier(p1_d6, state.h, ell, edges, state.u, state.v)
    pair = eigen.principal_eigenpair(
        eigen.lambda1_spec(bar.h1, p1_d6, grids.default_cells(bar.h1)))
    ends = np.append(edges[1:], state.h)
    ratio = 0.0
    for lo, hi, u, v in zip(edges, ends, state.u, state.v):
        xs = np.linspace(lo, hi, 401)
        ratio = max(ratio, u / np.interp(xs, pair.x, pair.phi1).min(),
                    v / np.interp(xs, pair.x, pair.phi2).min())
    assert ratio <= bar.M <= ratio * (1 + 1e-6)
    nodes = edges + 0.5 * state.dx
    at_nodes = max(np.max(state.u / np.interp(nodes, pair.x, pair.phi1)),
                   np.max(state.v / np.interp(nodes, pair.x, pair.phi2)))
    assert at_nodes < bar.M
    assert fb._barrier(p1_d6, ell, ell, edges, state.u, state.v) is None


def test_pinned_run_builds_no_tail_tables(p1):
    # tail tables are built on first use, so look after one Heun step
    pinned = fb._start(replace(p1, mu1=0.0, mu2=0.0), 0.05)
    pinned.heun(0.01)
    assert pinned.grid._tails == [None, None]
    one = fb._start(replace(p1, mu2=0.0), 0.05)
    one.heun(0.01)
    assert one.grid._tails[0] is not None and one.grid._tails[1] is None


def test_pinned_engine_computes_its_weights_once(p1, monkeypatch):
    calls = []
    weights = fb._front_weights
    monkeypatch.setattr(fb, "_front_weights",
                        lambda h, dx, k: calls.append(h) or weights(h, dx, k))
    steady.evolve_fixed(2.0, p1, p1.u0, p1.v0, horizon=1.0)
    assert calls == [2.0]
    # a batch builds each member's weights once, as it is made
    calls.clear()
    steady.evolve_lengths([2.0, 2.05], p1, horizon=1.0)
    assert sorted(calls) == [2.0, 2.05]


def test_front_weights_are_the_full_clip_bitwise(p1):
    # `_front_weights` clips only the last cells and takes the rest as
    # whole; that must be np.clip(h - edges[:k], 0, dx) bit for bit, fronts
    # on a cell edge (to within a few ulps) included; the engine's front and
    # state use it
    for dx in (0.05, 0.1, 1.0 / 3.0):
        eng = fb._Master(p1, dx, 4096)
        rng = np.random.default_rng(7)
        fronts = list(rng.uniform(0.0, 4000 * dx, 300))
        for k in (1, 2, 3, 17, 1000, 3999):
            for step in range(-4, 5):
                fronts.append(float(np.float64(k * dx) + step * np.spacing(k * dx)))
        for h in fronts:
            k = fb._active_count(h, dx)
            full = np.clip(h - eng.edges[:k], 0.0, dx)
            assert np.array_equal(fb._front_weights(h, dx, k), full)
            _, w, frac = eng.front(h)
            assert np.array_equal(w, full) and np.array_equal(frac, full / dx)
            eng.h = h
            assert eng.state().front_weight == full[-1]


@pytest.mark.parametrize("kernel2", [Kernel("laplace", 1.0), Kernel("gaussian", 0.8),
                                     Kernel("cauchy", 1.0, exponent=2.5)],
                         ids=lambda k: k.family)
def test_front_flux_is_the_full_tail_sum_bitwise(kernel2):
    # rhs evaluates the escaping mass only on cells within the tail table's
    # reach; over every covered cell, the same strided blend gives exactly
    # no escaping mass on the skipped cells and the kept cells' masses bit
    # for bit, so the flux is the sum over the kept terms of the full one
    params = params_with(kernel2=kernel2)
    eng = fb._Master(params, 0.05, 2048)
    eng.uv[0, :, :1600] = np.random.default_rng(3).uniform(0.0, 1.0, (2, 1600))
    assert eng.grid.tail(0).x[eng.grid.tail(0).flat] < 40.0
    skipped = 0
    for h in (0.03, 2.0, 25.1995, 41.7, 79.99):
        k, w, _ = eng.front(h)
        flux = 0.0
        for r, mu in enumerate((params.mu1, params.mu2)):
            table = eng.grid.tail(r)
            pos = (h - float(eng.x[k - 1]) - table.x[0]) / table.step
            j = int(pos)
            at = j + 8 * np.arange(k)[::-1]
            full = eng.grid.mass[r] - (table.y[at] + (pos - j) * (table.y[at + 1] - table.y[at]))
            near = int(np.count_nonzero(at >= table.flat))  # cells past the reach
            assert not np.any(full[:near])
            skipped += near
            flux += mu * float(np.dot(w[near:] * eng.uv[0, r, near:k], full[near:]))
        assert eng.rhs(eng.uv, h)[1] == flux
    assert skipped > 0


def test_coarse_front_flux_reads_its_table_below_minus_one(p1):
    # a covered cell's h - x can be as low as -dx/2, below -1 when dx > 2;
    # the tail table starts at -dx there, so the strided read stays inside
    # it and agrees with np.interp over the same table
    eng = fb._Master(p1, 3.0, 512)
    eng.uv[0, :, :40] = np.random.default_rng(5).uniform(0.0, 1.0, (2, 40))
    table = eng.grid.tail(0)
    assert table.x[0] == -3.0
    low = 0
    for h in (0.2, 30.3, 102.1, 119.2):
        k, w, _ = eng.front(h)
        low += h - eng.x[k - 1] < -1.0
        escape = p1.kernel1.mass - table(h - eng.x[:k])
        ref = sum(mu * np.dot(w, eng.uv[0, r, :k] * escape)
                  for r, mu in enumerate((p1.mu1, p1.mu2)))
        assert eng.rhs(eng.uv, h)[1] == pytest.approx(ref, rel=1e-14)
    assert low == 3


def test_growing_front_builds_the_dense_block_once(p1, monkeypatch):
    built = []
    toeplitz = grids._toeplitz
    monkeypatch.setattr(grids, "_toeplitz", lambda col: built.append(col.size) or toeplitz(col))
    # equal kernels share one Toeplitz matrix, unequal ones build one per row
    for params, builds in ((p1, 1), (params_with(kernel2=Kernel("gaussian", 0.8)), 2)):
        built.clear()
        eng = fb._start(params, 0.05)
        dt = steady.stability_timestep(params)
        eng.heun(dt)
        block = eng.grid.block()
        for _ in range(2):
            eng.grow()
            eng.heun(dt)
        assert eng.cap == 2048 and eng.grid.block() is block
        assert built == [grids.DENSE_MAX] * builds


def test_equal_kernels_share_one_tail_evaluation(p1, monkeypatch):
    calls = []
    strided = grids.CdfInterpolant.strided
    monkeypatch.setattr(grids.CdfInterpolant, "strided",
                        lambda self, *args: calls.append(args) or strided(self, *args))
    shared = fb._start(p1, 0.05)
    f, g = shared.rhs(shared.uv, shared.h)
    assert len(calls) == 1
    split = fb._start(p1, 0.05)
    split._same_kernels = False
    f_split, g_split = split.rhs(split.uv, split.h)
    assert len(calls) == 3
    assert np.array_equal(f, f_split) and g == g_split


@settings(max_examples=100, derandomize=True, deadline=None)
@given(family=st.sampled_from(["laplace", "gaussian"]), scale=st.floats(0.5, 2.0),
       saturating=st.booleans(), a=st.floats(0.5, 3.0), b=st.floats(0.5, 3.0),
       hp=st.floats(0.5, 3.0), r0=st.floats(0.1, 1.0), d1=st.floats(0.0, 3.0),
       d2=st.floats(0.2, 3.0), mu1=st.floats(0.0, 3.0), mu2=st.floats(0.0, 3.0),
       h0=st.floats(0.5, 4.0))
def test_front_stays_below_the_mass_bound(family, scale, saturating, a, b, hp, r0, d1, d2,
                                          mu1, mu2, h0):
    # R0 = H'(0) G'(0) / (a b) <= 1: the weighted mass u + H'(0) v / b never
    # grows, so the front, fed by that mass, stays below front_mass_bound
    gp = r0 * a * b / hp
    nl = (Nonlinearity("saturating", hp, gp) if saturating
          else Nonlinearity("linear", beta=gp, c=hp))
    kernel = Kernel(family, scale)
    p = params_with(kernel1=kernel, kernel2=kernel, nonlinearity=nl, a=a, b=b,
                    d1=d1, d2=d2, mu1=mu1, mu2=mu2, h0=h0)
    trace = fb.simulate(p, horizon=10.0, dx=0.1, sample_interval=0.5)
    assert trace.final.u.size <= grids.DENSE_MAX
    assert np.all(trace.h <= fb.front_mass_bound(trace, p) + 1e-9)


def test_schedule_refuses_a_step_count_above_the_ceiling(p1):
    # a finite horizon of 2e301 steps would run until killed
    dt = fb.stability_timestep(p1)
    assert fb._schedule(p1, 0.5 * fb.MAX_STEPS * dt, None, None)[1] == fb.MAX_STEPS // 2
    with pytest.raises(ValueError, match=r"^horizon / dt = 1e\+300 / 0\.05 = 2e\+301 steps, "
                                         r"above the ceiling of 1e\+08$"):
        fb._schedule(p1, 1e300, None, 1.0)


def test_watch_length_falls_back_when_the_bracket_is_lost(monkeypatch):
    # at d = 20 the upper end is pinned to 320 cells and the lower end is
    # solved again there, which the patched solve turns positive
    p = params_with(d1=20.0, d2=20.0)
    solve = eigen.principal_eigenpair
    monkeypatch.setattr(eigen, "principal_eigenpair", lambda spec: (
        solve(spec) if spec.num_cells == grids.default_cells(spec.l)
        else replace(solve(spec), lambda_p=1.0)))
    with pytest.raises(RuntimeError, match="bracket lost"):
        eigen.critical_length(p, target=2e-6)
    assert fb._watch_length(p) == math.inf


def test_classify_answers_when_gamma_a_barely_clears_the_watch_target(p1_d6):
    # gammaA clears 2e-6 by 6e-17, so the watch length's root lies near
    # l = 5e8; searching for it doubled toward l = 4096 and did not finish
    # in 25 s.  One process, under a 2 s wall-clock cap
    p = replace(p1_d6, nonlinearity=Nonlinearity("saturating", (1 + 2e-6) ** 2, 1.0))
    assert 0.0 < derived_constants(p).gammaA - 2e-6 < eigen.RESIDUAL_TOL

    def expire(signum, frame):
        raise TimeoutError("classify ran past its 2 s cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        out = fb.classify(p, t_max=300.0, dx=0.1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert out.verdict in ("vanishing", "spreading", "undecided")
    assert fb._watch_length(p) == math.inf


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
    eng = fb._start(p, 0.05)
    state = eng.state()
    assert state.h == 1.93
    assert state.u.size == int(np.ceil(1.93 / 0.05))
    eng.heun(0.02)
    nxt = eng.state()
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


def test_classify_retries_the_spreading_check(p1_d6, monkeypatch):
    # watched from 0.9 ell*, below the length where lambda1 reaches 1e-6,
    # the check fails and retries 2% further out each time until it holds
    p = replace(p1_d6, mu1=0.25, mu2=0.25)
    ell = eigen.critical_length(p).value
    checks = []
    spec = eigen.lambda1_spec
    monkeypatch.setattr(eigen, "lambda1_spec", lambda l, params, *rest: (
        checks.append(l) if not rest else None, spec(l, params, *rest))[1])
    out = fb.classify(p, watch=0.9 * ell)
    assert (out.verdict, out.certificate) == ("spreading", "eigenvalue")
    assert out.lambda_front >= 1e-6 and out.h_front >= ell
    # the initial check at h0, six failed front checks, the deciding one
    assert len(checks) == 8 and checks[-1] == out.h_front
    assert all(h >= 0.9 * ell * 1.02**k for k, h in enumerate(checks[1:]))
    assert out.t_decided == pytest.approx(10.0)


def test_classify_vanishing(vanish_params):
    # R0 < 1: no spreading length exists, and the barrier (eps = 0.05)
    # decides at its first window
    out = fb.classify(vanish_params, t_max=300.0)
    assert (out.verdict, out.certificate) == ("vanishing", "barrier")
    assert out.t_decided == pytest.approx(10.0)
    assert out.mass < 0.1


def _assert_barrier_vanishing(p):
    # with gammaA <= 2e-6 (R0 <= 1 included) no spreading length exists; the
    # barrier alone decides, early, and the front never passes its h1
    out = fb.classify(p, t_max=60.0, dx=0.1)
    assert (out.verdict, out.certificate) == ("vanishing", "barrier")
    assert out.t_decided <= 40.0
    trace = fb.simulate(p, horizon=2.0 * out.t_decided, dx=0.1)
    assert trace.h.max() < out.barrier.h1


@pytest.mark.parametrize("over", [
    {"a": 2.0, "b": 2.0, "nonlinearity": Nonlinearity("saturating", 1.0, 1.0)},
    {"nonlinearity": Nonlinearity("saturating", 1.0, 1.0)},
    {"nonlinearity": Nonlinearity("saturating", (1 + 1e-7) ** 2, 1.0)},
    {"nonlinearity": Nonlinearity("saturating", (1 + 1e-6) ** 2, 1.0)},
], ids=["vanish_params", "R0=1", "gammaA=1e-7", "gammaA=1e-6"])
def test_barrier_decides_without_a_spreading_length(over):
    _assert_barrier_vanishing(params_with(**over))


_LIGHT_KERNELS = st.builds(Kernel, st.sampled_from(["laplace", "gaussian"]), st.floats(0.5, 2.0))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(a=st.floats(0.5, 3.0), b=st.floats(0.5, 3.0), hp=st.floats(0.2, 2.0),
       gp=st.floats(0.2, 2.0), d=st.floats(0.2, 5.0), log_mu=st.floats(-2.0, 1.0),
       h0=st.floats(0.5, 6.0), kernel1=_LIGHT_KERNELS, kernel2=_LIGHT_KERNELS)
def test_barrier_decides_every_subcritical_run(a, b, hp, gp, d, log_mu, h0, kernel1, kernel2):
    assume(hp * gp < a * b)  # R0 < 1
    mu = 10.0 ** log_mu
    _assert_barrier_vanishing(params_with(
        a=a, b=b, nonlinearity=Nonlinearity("saturating", hp, gp), d1=d, d2=d,
        mu1=mu, mu2=mu, h0=h0, kernel1=kernel1, kernel2=kernel2))


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


def test_mismatch_rows_structure(p1):
    rows = fb.symmetrization_mismatch(p1, h0_values=(0.5, 1.0, 2.0), num_points=5000)
    assert [r.h0 for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r.two_sided == pytest.approx(2.0 * r.one_sided, rel=1e-14)
        assert r.residual == pytest.approx(r.one_sided, rel=1e-14)
        assert r.one_sided > 0.0
    with pytest.raises(ValueError, match="positive"):
        fb.symmetrization_mismatch(p1, h0_values=(-1.0,))
