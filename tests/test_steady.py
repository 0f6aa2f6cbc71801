"""Fixed-habitat steady states, monotone iteration, and decay classification."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import params_with
from nlfront import eigen, freeboundary, steady
from nlfront.model import Kernel, Nonlinearity, equilibrium, initial_profile


@pytest.fixture(scope="module")
def steady_l10(p1):
    return steady.solve_steady(10.0, p1)


def test_positive_steady_state(p1, steady_l10):
    s = steady_l10
    assert not s.is_zero
    assert s.residual < 1e-9
    assert np.all(s.u > 0.0) and np.all(s.v > 0.0)
    assert s.lambda1 > 0.0
    U, V = equilibrium(p1)
    assert np.max(s.u) < U and np.max(s.v) < V


def test_zero_state_below_critical_length(p1_d6):
    s = steady.solve_steady(1.0, p1_d6)
    assert s.is_zero
    assert np.all(s.u == 0.0) and np.all(s.v == 0.0)
    assert s.lambda1 < 0.0


def test_states_grow_with_the_habitat(p1, steady_l10):
    s20 = steady.solve_steady(20.0, p1)
    u20 = np.interp(steady_l10.x, s20.x, s20.u)
    v20 = np.interp(steady_l10.x, s20.x, s20.v)
    assert np.all(u20 > steady_l10.u)
    assert np.all(v20 > steady_l10.v)


def test_two_sided_iteration_brackets_monotonically(p1):
    l, n = 6.0, 240
    U, V = equilibrium(p1)
    hi = (np.full(n, U), np.full(n, V))
    lo = (np.full(n, 1e-4), np.full(n, 1e-4))
    dom = steady.FixedDomain(l, p1, n)
    for _ in range(60):
        hi_next = dom.gamma(*hi)
        lo_next = dom.gamma(*lo)
        for new, old in zip(hi_next, hi):
            assert np.all(new <= old + 1e-12)
        for new, old in zip(lo_next, lo):
            assert np.all(new >= old - 1e-12)
        for top, bottom in zip(hi_next, lo_next):
            assert np.all(top >= bottom - 1e-12)
        hi, lo = hi_next, lo_next


def test_independent_quadrature_residual(p1, steady_l10):
    # rebuild the balance with trapezoid weights and pointwise kernel values;
    # a quadrature-specific artifact would not survive the change of rule.
    # the source grid holds cell midpoints, so the trapezoid nodes extend to
    # the habitat endpoints (linear extrapolation) to cover the same span.
    s = steady_l10
    l = float(s.x[-1] + (s.x[1] - s.x[0]) / 2.0)
    nodes = np.concatenate([[0.0], s.x, [l]])
    nl = p1.nonlinearity

    def extend(f):
        left = (3.0 * f[0] - f[1]) / 2.0
        right = (3.0 * f[-1] - f[-2]) / 2.0
        return np.concatenate([[left], f, [right]])

    for d, kern, field, gain, decay, other in (
        (p1.d1, p1.kernel1, s.u, nl.H, p1.a, s.v),
        (p1.d2, p1.kernel2, s.v, nl.G, p1.b, s.u),
    ):
        mat = np.asarray(kern.pdf(s.x[:, None] - nodes[None, :]))
        conv = np.trapezoid(mat * extend(field)[None, :], nodes, axis=1)
        r = d * (conv - np.asarray(kern.cdf(s.x)) * field) + gain(other) - decay * field
        assert np.max(np.abs(r)) < 5e-3


def test_uniqueness_from_scattered_starts(p1):
    l, n = 6.0, 240
    rng = np.random.default_rng(11)
    dom = steady.FixedDomain(l, p1, n)
    finals = []
    for _ in range(3):
        u = rng.uniform(0.05, 2.0, n)
        v = rng.uniform(0.05, 2.0, n)
        for _ in range(100_000):
            un, vn = dom.gamma(u, v)
            delta = max(float(np.max(np.abs(un - u))), float(np.max(np.abs(vn - v))))
            u, v = un, vn
            if delta < 1e-12:
                break
        finals.append((u, v))
    for fu, fv in finals[1:]:
        assert np.max(np.abs(fu - finals[0][0])) < 1e-8
        assert np.max(np.abs(fv - finals[0][1])) < 1e-8


def test_evolution_preserves_order(p1):
    l = 4.0
    lo_tr, _ = steady.evolve_fixed(
        l, p1, initial_profile("tent", 0.3, l), initial_profile("tent", 0.2, l),
        horizon=20.0, sample_interval=0.5)
    hi_tr, _ = steady.evolve_fixed(
        l, p1, initial_profile("tent", 0.9, l), initial_profile("tent", 0.6, l),
        horizon=20.0, sample_interval=0.5)
    assert np.all(hi_tr.norm_u >= lo_tr.norm_u - 1e-12)
    assert np.all(hi_tr.norm_v >= lo_tr.norm_v - 1e-12)
    assert np.all(hi_tr.u >= lo_tr.u - 1e-12)
    assert np.all(hi_tr.v >= lo_tr.v - 1e-12)


def test_decay_exponential_below_threshold(p1_d6):
    l = 1.7742
    trace, fit = steady.evolve_fixed(
        l, p1_d6, initial_profile("tent", 1.0, l), initial_profile("tent", 0.5, l),
        horizon=80.0)
    assert fit.mode == "exponential"
    assert fit.lambda1 < -1e-6
    assert fit.k > 0.0
    assert fit.r_squared > 0.99
    assert trace.norm_sum[-1] < trace.norm_sum[0]


def test_no_decay_above_threshold(p1_d6):
    l = 4.0
    trace, fit = steady.evolve_fixed(
        l, p1_d6, initial_profile("tent", 1.0, l), initial_profile("tent", 0.5, l),
        horizon=60.0)
    assert fit.mode == "none"
    assert fit.lambda1 > 1e-6
    assert trace.norm_sum[-1] > 0.1


@pytest.mark.parametrize("factor", [2.0, 5.0, 20.0])
def test_evolve_rejects_unstable_timestep(p1, factor):
    # the positivity bound is the scheme's step limit (20x it ends in NaN
    # fields); every step above it is refused before any work
    tent = initial_profile("tent", 1.0, 4.0)
    with pytest.raises(ValueError, match="dt must lie in"):
        steady.evolve_fixed(4.0, p1, tent, tent, 20.0,
                            dt=factor * steady.stability_timestep(p1))


def _recording_engines(monkeypatch) -> list:
    built = []
    master = freeboundary._Master
    monkeypatch.setattr(freeboundary, "_Master",
                        lambda *a, **kw: built.append(master(*a, **kw)) or built[-1])
    return built


@pytest.mark.parametrize("lengths, kernel2, batches", [
    ([2.0, 10.0, 3.0], Kernel("laplace", 1.0), [2, 1]),
    ([2.0, 9.99, 3.0, 9.995], Kernel("gaussian", 1.0), [2, 2]),
], ids=["equal-kernels", "unequal-kernels"])
def test_batched_lengths_match_one_length_runs(monkeypatch, lengths, kernel2, batches):
    # 200 and 400 cells: one batch on the dense block and one on the FFT,
    # each checked against the length run on its own
    p = params_with(kernel2=kernel2)
    alone = [steady.evolve_fixed(l, p, initial_profile("tent", 1.0, l),
                                 initial_profile("tent", 0.5, l), horizon=2.0)
             for l in lengths]
    built = _recording_engines(monkeypatch)
    together = steady.evolve_lengths(lengths, p, horizon=2.0)
    assert [eng.B for eng in built] == batches
    for (trace, fit), (ref, ref_fit) in zip(together, alone, strict=True):
        for name in ("t", "norm_u", "norm_v", "norm_sum", "x", "u", "v"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
        assert (trace.dt, trace.num_cells) == (ref.dt, ref.num_cells)
        assert repr(fit) == repr(ref_fit)


@pytest.mark.parametrize("d, lengths, batches", [
    (6.0, [1.0, 4.0, 6.0, 2.0], [2]),
    (40.0, [2.0, 12.0, 6.0, 4.0], [2, 1]),
], ids=["settled-member-and-group", "settled-group"])
def test_decay_rates_step_only_open_lengths(monkeypatch, d, lengths, batches):
    # lengths on both sides of l* (2.19 at d = 6, 8.75 at d = 40) over 200
    # and 240 cells (and 480 at d = 40): only lambda1 <= SIGN_BAND steps, and
    # every fit equals the length's own evolve_fixed fit
    p = params_with(d1=d, d2=d)
    alone = [steady.evolve_fixed(l, p, initial_profile("tent", 1.0, l),
                                 initial_profile("tent", 0.5, l), horizon=2.0)[1]
             for l in lengths]
    built = _recording_engines(monkeypatch)
    fits = steady.decay_rates(lengths, p, horizon=2.0)
    assert [eng.B for eng in built] == batches
    assert sum(fit.lambda1 <= eigen.SIGN_BAND for fit in fits) == sum(batches)
    assert [repr(fit) for fit in fits] == [repr(ref) for ref in alone]


def test_decay_rates_build_no_engine_when_every_length_is_settled(p1_d6, monkeypatch):
    stepped = steady.evolve_lengths([4.0, 6.0], p1_d6, horizon=2.0)
    built = _recording_engines(monkeypatch)
    fits = steady.decay_rates([4.0, 6.0], p1_d6, horizon=2.0)
    assert built == []
    assert [fit.mode for fit in fits] == ["none", "none"]
    assert [repr(fit) for fit in fits] == [repr(est) for _, est in stepped]


def test_batch_failure_names_its_length(p1, monkeypatch):
    # a ceiling of 10 x 1e-3 that only the growing member (l = 3, from
    # 1e-4; the other starts and stays at zero) passes
    monkeypatch.setattr(freeboundary, "equilibrium", lambda params: (1e-3, 1e-3))

    def initial(l):
        if l == 3.0:
            return initial_profile("tent", 1e-4, l), initial_profile("tent", 1e-4, l)
        return np.zeros(200), np.zeros(200)

    with pytest.raises(steady.BlowUpError, match=r"^l = 3: field norm exceeded"):
        steady.evolve_lengths([2.0, 3.0], p1, 40.0, initial)


def test_batch_refuses_moving_fronts_and_unequal_cell_counts(p1):
    with pytest.raises(ValueError, match="needs pinned fronts"):
        freeboundary._Master(p1, [0.01, 0.015], 264, [2.0, 3.0])
    pinned = params_with(mu1=0.0, mu2=0.0)
    with pytest.raises(ValueError, match=r"equal cell counts, got \[150, 200\]"):
        freeboundary._Master(pinned, [0.01, 0.02], 264, [2.0, 3.0])


def test_timestep_policy(p1):
    dt = steady.stability_timestep(p1)
    assert abs(dt - 0.4 / 8.0) < 1e-15


@settings(max_examples=40, derandomize=True, deadline=None)
@given(family=st.sampled_from(["laplace", "gaussian", "cauchy"]), d1=st.floats(0.1, 4.0),
       d2=st.floats(0.1, 4.0), hp=st.floats(1.0, 3.0), gp=st.floats(1.0, 3.0),
       l=st.floats(0.5, 10.0))
def test_steady_state_stays_below_the_equilibrium(family, d1, d2, hp, gp, l):
    # the squeeze descends from the constant equilibrium, so a positive
    # steady state never exceeds it
    kernel = Kernel(family, 1.0)
    p = params_with(kernel1=kernel, kernel2=kernel, d1=d1, d2=d2,
                    nonlinearity=Nonlinearity("saturating", hp, gp))
    assume(eigen.lambda1(l, p, num_cells=100) > 0.05)
    s = steady.solve_steady(l, p, num_cells=100)
    U, V = equilibrium(p)
    assert not s.is_zero
    assert np.all(s.u <= U + 1e-9) and np.all(s.v <= V + 1e-9)
