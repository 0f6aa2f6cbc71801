"""Moving-boundary dynamics: time integration, outcome classification,
the pathwise front bound, and the even-extension flux diagnostic.

The solver lives on a fixed master grid over [0, X_max) of cells of width
dx; the front position h cuts the last covered cell, whose quadrature
weight shrinks accordingly.  The grid never moves: when h approaches X_max
the arrays are extended in place (doubling), so fields are never
re-interpolated.  The front advances by the double-integral flux
mu1 *: (u mass escaping past h) + mu2 * (v mass escaping past h), with the
inner integral expressed through the kernel CDF complement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import eigen
from .eigen import SIGN_BAND
from .grids import CdfInterpolant, ConvolverStack, cell_nodes
from .model import (
    ModelParams,
    NoPositiveEquilibrium,
    derived_constants,
    equilibrium,
    initial_profile,
)
from .steady import BlowUpError, DecayEstimate, _linear_fit, stability_timestep

__all__ = [
    "SchemeError",
    "FreeBoundaryState",
    "Snapshot",
    "SimulationTrace",
    "Outcome",
    "initial_state",
    "step",
    "simulate",
    "classify",
    "vanishing_rate",
    "front_mass_bound",
    "MismatchRow",
    "symmetrization_mismatch",
]

NEGATIVITY_TOL = 1e-12
STALL_WINDOW = 10.0
STALL_TOL = 1e-6
MASS_TOL = 1e-6
DEFAULT_DX = 0.05
DEFAULT_T_MAX = 500.0


class SchemeError(RuntimeError):
    """The explicit update produced an inadmissible value (time step too large)."""


@dataclass(frozen=True)
class FreeBoundaryState:
    """Fields on the active cells at one instant.

    ``u`` and ``v`` hold one value per covered cell (node x_k = (k+1/2) dx);
    the last covered cell may be partial, with quadrature weight
    ``front_weight`` = h - k dx <= dx.  Everything beyond the front is zero.
    """

    t: float
    h: float
    dx: float
    u: np.ndarray
    v: np.ndarray
    front_weight: float


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled diagnostics of one run.

    ``mass`` is the weighted total  integral of u + H'(0) v / b over the
    covered region, the quantity whose decrease drives the front bound.
    M1 and M2 are the largest sup-norms observed over the whole run.
    """

    t: np.ndarray
    h: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    mass: np.ndarray
    snapshots: tuple[Snapshot, ...]
    M1: float
    M2: float
    dx: float
    dt: float
    final: FreeBoundaryState


@dataclass(frozen=True)
class Outcome:
    """Verdict of a classification run, with its certificate values."""

    verdict: str
    t_decided: float
    horizon: float
    h_front: float
    lambda_front: float | None
    mass: float
    stall_gap: float | None
    message: str = ""


def _active_count(h: float, dx: float) -> int:
    # cells [k dx, (k+1) dx) with positive coverage; the 1e-9 guard keeps a
    # front sitting on a cell edge (h = k dx) from opening a zero-width cell
    return max(1, int(math.ceil(h / dx - 1e-9)))


class _Master:
    """Mutable stepping engine on the master grid (internal)."""

    def __init__(self, params: ModelParams, dx: float, capacity: int):
        self.params = params
        self.dx = float(dx)
        self.nl = params.nonlinearity
        self.cap = 1 << max(9, int(capacity - 1).bit_length())
        self.t = 0.0
        self.h = params.h0
        self._stacks: dict[int, ConvolverStack] = {}
        self._alloc()
        k = _active_count(self.h, self.dx)
        self.u = np.zeros(self.cap)
        self.v = np.zeros(self.cap)
        self.u[:k] = np.asarray(params.u0(self.x[:k]), dtype=float)
        self.v[:k] = np.asarray(params.v0(self.x[:k]), dtype=float)

    def _alloc(self) -> None:
        self.x = cell_nodes(0.0, self.dx, self.cap)
        self.edges = np.arange(self.cap) * self.dx
        self.j1 = np.asarray(self.params.kernel1.cdf(self.x))
        self.j2 = np.asarray(self.params.kernel2.cdf(self.x))
        span = self.cap * self.dx + 1.0
        self.tail1 = CdfInterpolant(self.params.kernel1, span, self.dx / 8, x_min=-1.0)
        self.tail2 = CdfInterpolant(self.params.kernel2, span, self.dx / 8, x_min=-1.0)
        self.m1 = float(self.params.kernel1.mass)
        self.m2 = float(self.params.kernel2.mass)

    def grow(self) -> None:
        old = self.cap
        self.cap *= 2
        u, v = self.u, self.v
        self._alloc()
        self.u = np.zeros(self.cap)
        self.v = np.zeros(self.cap)
        self.u[:old] = u
        self.v[:old] = v

    def ensure(self, h: float) -> bool:
        grew = False
        while _active_count(h, self.dx) + 8 > self.cap:
            self.grow()
            grew = True
        return grew

    def _stack(self, size: int) -> ConvolverStack:
        stack = self._stacks.get(size)
        if stack is None:
            stack = ConvolverStack(
                (self.params.kernel1, self.params.kernel2), self.dx, size
            )
            self._stacks[size] = stack
        return stack

    def weights(self, h: float, k: int) -> np.ndarray:
        return np.clip(h - self.edges[:k], 0.0, self.dx)

    def rhs(self, u: np.ndarray, v: np.ndarray, h: float):
        """Field derivatives on the k cells covered at front h, plus h'."""
        p = self.params
        k = _active_count(h, self.dx)
        w = self.weights(h, k)
        size = 1 << max(8, int(k - 1).bit_length())
        size = min(size, self.cap)
        ua, va = u[:k], v[:k]

        scaled = np.empty((2, k))
        frac = w / self.dx
        np.multiply(ua, frac, out=scaled[0])
        np.multiply(va, frac, out=scaled[1])
        ku, kv = self._stack(size).apply(scaled)
        fu = p.d1 * (ku - self.j1[:k] * ua) if p.d1 > 0.0 else np.zeros(k)
        fv = p.d2 * (kv - self.j2[:k] * va) if p.d2 > 0.0 else np.zeros(k)
        fu += -p.a * ua + self.nl.H(va)
        fv += -p.b * va + self.nl.G(ua)

        flux = 0.0
        if p.mu1 > 0.0 or p.mu2 > 0.0:
            s = h - self.x[:k]
            acc = np.zeros(k)
            if p.mu1 > 0.0:
                acc += p.mu1 * ua * (self.m1 - self.tail1(s))
            if p.mu2 > 0.0:
                acc += p.mu2 * va * (self.m2 - self.tail2(s))
            flux = float(np.dot(w, acc))
        return fu, fv, flux

    def heun(self, dt: float) -> None:
        # the front never recedes (h' >= 0), so the predictor covers at
        # least the cells the first stage does and every update is confined
        # to the predictor's k2 cells; beyond them the fields are unchanged
        f1u, f1v, g1 = self.rhs(self.u, self.v, self.h)
        k1 = f1u.size
        h_star = self.h + dt * g1
        self.ensure(h_star)
        k2 = _active_count(h_star, self.dx)
        u_star = self.u[:k2].copy()
        v_star = self.v[:k2].copy()
        u_star[:k1] += dt * f1u
        v_star[:k1] += dt * f1v
        f2u, f2v, g2 = self.rhs(u_star, v_star, h_star)

        h_new = self.h + 0.5 * dt * (g1 + g2)
        self.ensure(h_new)
        f2u[:k1] = f1u + f2u[:k1]
        f2v[:k1] = f1v + f2v[:k1]
        u_new = self.u[:k2] + 0.5 * dt * f2u
        v_new = self.v[:k2] + 0.5 * dt * f2v
        low = min(float(u_new.min()), float(v_new.min()))
        if low < -NEGATIVITY_TOL:
            raise SchemeError(
                f"negative field value {low:.3e} at t={self.t:.6g}; "
                "reduce the time step"
            )
        np.maximum(u_new, 0.0, out=self.u[:k2])
        np.maximum(v_new, 0.0, out=self.v[:k2])
        self.h = h_new
        self.t += dt

    def mass(self) -> float:
        k = _active_count(self.h, self.dx)
        w = self.weights(self.h, k)
        return float(np.dot(w, self.u[:k] + (self.nl.hp0 / self.params.b) * self.v[:k]))

    def state(self) -> FreeBoundaryState:
        k = _active_count(self.h, self.dx)
        return FreeBoundaryState(
            t=self.t,
            h=self.h,
            dx=self.dx,
            u=self.u[:k].copy(),
            v=self.v[:k].copy(),
            front_weight=float(np.clip(self.h - (k - 1) * self.dx, 0.0, self.dx)),
        )

    def sups(self) -> tuple[float, float]:
        return float(self.u.max()), float(self.v.max())


def _master_from_state(state: FreeBoundaryState, params: ModelParams) -> _Master:
    k = state.u.size
    eng = _Master(params, state.dx, k + 64)
    eng.t = state.t
    eng.h = state.h
    eng.u[:] = 0.0
    eng.v[:] = 0.0
    eng.u[:k] = state.u
    eng.v[:k] = state.v
    return eng


def initial_state(params: ModelParams, dx: float = DEFAULT_DX) -> FreeBoundaryState:
    """Sample the initial data onto the master grid at front position h0."""
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    eng = _Master(params, dx, _active_count(params.h0, dx) + 16)
    return eng.state()


def step(state: FreeBoundaryState, params: ModelParams, dt: float) -> FreeBoundaryState:
    """One explicit (Heun) step of the moving-boundary system.

    The front advances by the flux of mass escaping past h; cells freshly
    covered by the moving front start at zero, matching the boundary
    condition u(t, h(t)) = 0.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = stability_timestep(params)
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"dt={dt:.3g} exceeds the stability bound {limit:.3g}")
    eng = _master_from_state(state, params)
    eng.heun(dt)
    return eng.state()


def _ceiling(params: ModelParams, su: float, sv: float) -> float:
    terms = [su, sv, 1e-12]
    try:
        cu, cv = equilibrium(params)
        terms += [cu, cv]
    except NoPositiveEquilibrium:
        pass
    return 10.0 * max(terms)


def simulate(
    params: ModelParams,
    horizon: float,
    dx: float = DEFAULT_DX,
    dt: float | None = None,
    sample_interval: float = 1.0,
    snapshot_times: Sequence[float] = (),
) -> SimulationTrace:
    """Integrate the moving-boundary system to time `horizon`.

    Samples h, sup-norms and the weighted mass every `sample_interval`
    time units; `snapshot_times` additionally record full field profiles
    at the nearest sample instant.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    step_limit = stability_timestep(params)
    if dt is None:
        dt = step_limit
    elif dt <= 0.0 or dt > step_limit * (1 + 1e-12):
        raise ValueError(f"dt must lie in (0, {step_limit:.3g}]")

    eng = _Master(params, dx, _active_count(params.h0, dx) + 16)
    stride = max(1, round(sample_interval / dt))
    n_steps = int(math.ceil(horizon / dt - 1e-12))

    want = sorted(float(s) for s in snapshot_times)
    shots: list[Snapshot] = []

    ts = [0.0]
    hs = [eng.h]
    su0, sv0 = eng.sups()
    sus = [su0]
    svs = [sv0]
    masses = [eng.mass()]
    ceiling = _ceiling(params, su0, sv0)

    def maybe_snapshot() -> None:
        while want and eng.t >= want[0] - 1e-9:
            want.pop(0)
            st = eng.state()
            shots.append(Snapshot(t=eng.t, x=eng.x[: st.u.size].copy(), u=st.u, v=st.v))

    maybe_snapshot()
    for i in range(1, n_steps + 1):
        eng.heun(dt)
        if i % stride == 0 or i == n_steps:
            su, sv = eng.sups()
            if max(su, sv) > ceiling:
                raise BlowUpError(
                    f"field norm exceeded its a-priori bound at t={eng.t:.6g}"
                )
            ts.append(eng.t)
            hs.append(eng.h)
            sus.append(su)
            svs.append(sv)
            masses.append(eng.mass())
            maybe_snapshot()

    return SimulationTrace(
        t=np.asarray(ts),
        h=np.asarray(hs),
        sup_u=np.asarray(sus),
        sup_v=np.asarray(svs),
        mass=np.asarray(masses),
        snapshots=tuple(shots),
        M1=float(max(sus)),
        M2=float(max(svs)),
        dx=dx,
        dt=dt,
        final=eng.state(),
    )


def _mass_front_bound(params: ModelParams, mass0: float) -> float:
    """h0 + mass0 / min(d1/mu1, H'(0) d2 / (b mu2)), infinite for a zero minimum.

    Entries with a zero expansion rate drop out of the minimum (that channel
    never moves the front).
    """
    cands = []
    if params.mu1 > 0.0:
        cands.append(params.d1 / params.mu1)
    if params.mu2 > 0.0:
        cands.append(params.nonlinearity.hp0 * params.d2 / (params.b * params.mu2))
    if not cands:
        return params.h0
    denom = min(cands)
    if denom == 0.0:
        return math.inf
    return params.h0 + mass0 / denom


def front_mass_bound(trace: SimulationTrace, params: ModelParams) -> float:
    """A-priori ceiling on the front position for runs with no net growth.

    h stays below h0 + M(0) / min(d1/mu1, H'(0) d2 / (b mu2)), with M(0) the
    trace's initial weighted mass.
    """
    return _mass_front_bound(params, float(trace.mass[0]))


def _lambda_front(params: ModelParams, l: float) -> float:
    return eigen.lambda1(l, params)


def classify(
    params: ModelParams,
    t_max: float = DEFAULT_T_MAX,
    dx: float = DEFAULT_DX,
    dt: float | None = None,
    sample_interval: float = 1.0,
) -> Outcome:
    """Decide spreading vs vanishing for one parameter set.

    Spreading is certified as soon as the front reaches a length where the
    principal eigenvalue is >= +1e-6 (the eigenvalue is increasing in l, so
    once positive it stays positive and the front cannot stall).  Vanishing
    is certified by a stalled front, near-zero mass and a negative
    eigenvalue at the final length.  Anything else is undecided.
    """
    lam0 = _lambda_front(params, params.h0)
    if lam0 >= SIGN_BAND:
        return Outcome(
            verdict="spreading",
            t_decided=0.0,
            horizon=0.0,
            h_front=params.h0,
            lambda_front=lam0,
            mass=math.nan,
            stall_gap=None,
            message="eigenvalue already positive at the initial length",
        )

    # length at which a positive-eigenvalue certificate becomes available;
    # none exists when the large-domain limit of the eigenvalue is <= 0
    watch: float | None = None
    if derived_constants(params).gammaA > 2 * SIGN_BAND:
        try:
            watch = eigen.critical_length(params, target=2 * SIGN_BAND).value
        except (ValueError, eigen.EigenConvergenceError):
            watch = None

    step_limit = stability_timestep(params)
    if dt is None:
        dt = step_limit
    elif dt <= 0.0 or dt > step_limit * (1 + 1e-12):
        raise ValueError(f"dt must lie in (0, {step_limit:.3g}]")
    eng = _Master(params, dx, _active_count(params.h0, dx) + 16)
    stride = max(1, round(sample_interval / dt))
    per_window = max(1, int(round(STALL_WINDOW / (stride * dt))))

    hist_t: list[float] = [0.0]
    hist_h: list[float] = [eng.h]
    su0, sv0 = eng.sups()
    ceiling = _ceiling(params, su0, sv0)
    offset = 1.0
    n_steps = int(math.ceil(t_max / dt - 1e-12))

    for i in range(1, n_steps + 1):
        eng.heun(dt)
        if i % stride and i != n_steps:
            continue
        su, sv = eng.sups()
        if max(su, sv) > ceiling:
            raise BlowUpError(f"field norm exceeded its a-priori bound at t={eng.t:.6g}")
        hist_t.append(eng.t)
        hist_h.append(eng.h)
        if len(hist_h) > per_window + 1:
            hist_t.pop(0)
            hist_h.pop(0)

        if watch is not None and eng.h >= watch * offset:
            lam = _lambda_front(params, eng.h)
            if lam >= SIGN_BAND:
                return Outcome(
                    verdict="spreading",
                    t_decided=eng.t,
                    horizon=eng.t,
                    h_front=eng.h,
                    lambda_front=lam,
                    mass=eng.mass(),
                    stall_gap=None,
                    message="front crossed the positive-eigenvalue length",
                )
            offset *= 1.02

        if eng.t >= STALL_WINDOW and len(hist_h) > per_window:
            gap = hist_h[-1] - hist_h[0]
            if gap < STALL_TOL:
                m = eng.mass()
                if m < MASS_TOL:
                    lam = _lambda_front(params, eng.h)
                    if lam < 0.0:
                        return Outcome(
                            verdict="vanishing",
                            t_decided=eng.t,
                            horizon=eng.t,
                            h_front=eng.h,
                            lambda_front=lam,
                            mass=m,
                            stall_gap=gap,
                            message="front stalled with vanishing mass",
                        )

    gap = hist_h[-1] - hist_h[0] if len(hist_h) > 1 else 0.0
    return Outcome(
        verdict="undecided",
        t_decided=eng.t,
        horizon=eng.t,
        h_front=eng.h,
        lambda_front=_lambda_front(params, eng.h),
        mass=eng.mass(),
        stall_gap=gap,
        message=f"no certificate reached by t={t_max:g}",
    )


def vanishing_rate(trace: SimulationTrace, lam_front: float) -> DecayEstimate:
    """Fit the temporal decay of a vanishing run's sup-norms.

    Exponential when the final-length eigenvalue is clearly negative,
    algebraic in the near-critical band.  Rejects traces that do not decay.
    """
    total = trace.sup_u + trace.sup_v
    if trace.t.size < 8:
        raise ValueError("trace too short to fit a decay rate")
    if not (trace.mass[-1] < 0.5 * trace.mass[0] and total[-1] < total[0]):
        raise ValueError(
            "not a vanishing trace: mass and sup-norms did not decay"
        )
    half = trace.t.size // 2
    t_w = trace.t[half:]
    y_w = np.log(np.maximum(total[half:], 1e-300))
    if lam_front < -SIGN_BAND:
        slope, r2 = _linear_fit(t_w, y_w)
        mode = "exponential"
    else:
        slope, r2 = _linear_fit(np.log1p(t_w), y_w)
        mode = "algebraic"
    return DecayEstimate(
        mode=mode,
        k=-slope,
        window=(float(t_w[0]), float(t_w[-1])),
        r_squared=r2,
        lambda1=lam_front,
    )


@dataclass(frozen=True)
class MismatchRow:
    """One length's worth of the even-extension diagnostic."""

    h0: float
    two_sided: float
    one_sided: float
    residual: float


def symmetrization_mismatch(
    params: ModelParams,
    h0_values: Sequence[float] | None = None,
    profile: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None = None,
    num_points: int = 20000,
) -> list[MismatchRow]:
    """Quantify why no even-extension surrogate reproduces the half-line flux.

    Matching the interior equations forces the surrogate diffusion to equal
    d and its kernel to equal J, while matching the front law forces the
    surrogate expansion rate down to mu/2; those requirements are mutually
    inconsistent by exactly the boundary overlap integral
    int_0^{h0} J(h0 - x) u0(x) dx, which is what each row reports: the
    doubled flux the calibrated surrogate would need (`two_sided`), the flux
    the one-sided law actually produces (`one_sided`), and their gap.
    """
    kernel = params.kernel1
    if h0_values is None:
        h0_values = (params.h0,)
    if profile is None:
        profile = lambda h0: initial_profile("tent", 1.0, h0)  # noqa: E731

    rows: list[MismatchRow] = []
    for h0 in h0_values:
        if h0 <= 0:
            raise ValueError("h0 values must be positive")
        u0 = profile(h0)
        xs = (np.arange(num_points) + 0.5) * (h0 / num_points)
        vals = np.asarray(u0(xs), dtype=float) * np.asarray(kernel.pdf(h0 - xs))
        overlap = float(np.sum(vals) * (h0 / num_points))
        rows.append(
            MismatchRow(
                h0=float(h0),
                two_sided=2.0 * overlap,
                one_sided=overlap,
                residual=overlap,
            )
        )
    return rows
