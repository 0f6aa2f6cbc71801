"""Moving-boundary dynamics: time integration, outcome classification
(eigenvalue and comparison-barrier certificates), the pathwise front bound,
and the even-extension flux diagnostic.

The solver lives on a fixed master grid over [0, X_max) of cells of width
dx; the front position h cuts the last covered cell, whose quadrature
weight shrinks accordingly.  The grid never moves: when h approaches X_max
the arrays are extended in place (doubling), so fields are never
re-interpolated.  The front advances by the double-integral flux
mu1 *: (u mass escaping past h) + mu2 * (v mass escaping past h), with the
inner integral expressed through the kernel CDF complement.

This engine is the package's only time integrator: the fixed-habitat
dynamics of `steady.evolve_fixed` are the same system with the front pinned
(mu1 = mu2 = 0, h = l).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import eigen
from .eigen import SIGN_BAND
from .grids import MAX_CELLS, Discretization, default_cells, stacked_convolution
from .model import (
    ModelParams,
    NoPositiveEquilibrium,
    derived_constants,
    equilibrium,
    initial_profile,
)

__all__ = [
    "SchemeError",
    "BlowUpError",
    "DecayEstimate",
    "FreeBoundaryState",
    "Snapshot",
    "SimulationTrace",
    "Outcome",
    "Barrier",
    "simulate",
    "classify",
    "front_mass_bound",
    "MismatchRow",
    "symmetrization_mismatch",
    "stability_timestep",
]

NEGATIVITY_TOL = 1e-12
BARRIER_WINDOW = 10.0
DEFAULT_DX = 0.05
DEFAULT_T_MAX = 500.0
# far more Heun steps than any run needs (well over an hour of stepping); a
# horizon beyond it is refused rather than run until killed
MAX_STEPS = 10**8


class _StepError(RuntimeError):
    """A failed time step; ``member`` indexes the batch member it arose in."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


class SchemeError(_StepError):
    """The explicit update produced an inadmissible value (time step too large)."""


class BlowUpError(_StepError):
    """Fields escaped the a-priori bound: a discretization bug, not dynamics."""


def stability_timestep(params: ModelParams) -> float:
    """Positivity-preserving explicit step for the reaction-dispersal system."""
    nl = params.nonlinearity
    return 0.4 / (params.d1 + params.d2 + params.a + params.b + nl.hp0 + nl.gp0)


def _schedule(params: ModelParams, horizon: float, dt: float | None,
              sample_interval: float | None, name: str = "horizon", *,
              equal: bool = False) -> tuple[float, int, int]:
    """Step, step count and sampling stride of a run to `horizon`.

    The step is `dt`, or the stability bound when None, and the last one
    may pass the horizon; with ``equal`` the horizon is instead split into
    equal steps (at least one) no longer than that.  A ``sample_interval``
    of None samples about 400 times.  ValueError unless the horizon is
    positive and finite, dt lies in (0, bound], the sample interval is
    positive, both counts are finite and the step count is at most
    MAX_STEPS.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    limit = stability_timestep(params)
    if dt is None:
        dt = limit
    elif not 0.0 < dt <= limit * (1 + 1e-12):
        raise ValueError(f"dt must lie in (0, {limit:.3g}]")
    if sample_interval is not None and sample_interval <= 0.0:
        raise ValueError(f"sample_interval must be positive, got {sample_interval:g}")
    count = horizon / dt
    if not math.isfinite(count):
        raise ValueError(f"{name} / dt = {horizon:g} / {dt:.3g} is not a finite step count")
    if count > MAX_STEPS:
        raise ValueError(f"{name} / dt = {horizon:g} / {dt:.3g} = {count:.3g} steps, "
                         f"above the ceiling of {MAX_STEPS:.0e}")
    n_steps = int(math.ceil(count - 1e-12))
    if equal:
        n_steps = max(1, n_steps)
        dt = horizon / n_steps
    if sample_interval is None:
        sample_interval = max(dt, horizon / 400.0)
    per_sample = sample_interval / dt
    if not math.isfinite(per_sample):
        raise ValueError(f"sample_interval / dt = {sample_interval:g} / {dt:.3g} "
                         "is not a finite step count")
    return dt, n_steps, max(1, round(per_sample))


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
    """

    t: np.ndarray
    h: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    mass: np.ndarray
    snapshots: tuple[Snapshot, ...]
    dx: float
    dt: float
    final: FreeBoundaryState


@dataclass(frozen=True)
class Barrier:
    """Comparison barrier on [0, h1], h1 = h (1 + eps), from front position h.

    ``delta`` = -lambda1(h1) is its decay rate, ``M`` scales the principal
    eigenfunction over the fields, ``flux_factor`` = m(h1) = max_r ∫_0^h1
    T_r, T_r kernel r's mass beyond a distance, bounds the mass a unit
    field can send past the front, and every mu1 + mu2 <= ``bound`` =
    eps delta h / (M m(h1)) keeps the front below h1 (see `_barrier`).
    ``enclosure`` encloses lambda1(h1) (`eigen.Eigenpair`).
    """

    eps: float
    delta: float
    M: float
    h1: float
    flux_factor: float
    bound: float
    enclosure: tuple[float, float]


@dataclass(frozen=True)
class Outcome:
    """Verdict of a classification run, with its certificate values.

    ``certificate`` names what decided it: ``eigenvalue`` (spreading: a
    positive principal eigenvalue at the front), ``barrier`` (vanishing: the
    comparison barrier, recorded in ``barrier``) or ``none`` (undecided).
    ``lambda_enclosure`` encloses ``lambda_front`` (`eigen.Eigenpair`).
    """

    verdict: str
    certificate: str
    t_decided: float
    h_front: float
    lambda_front: float | None
    mass: float
    message: str = ""
    barrier: Barrier | None = None
    lambda_enclosure: tuple[float, float] | None = None


def _check_dx(dx: float) -> None:
    """ValueError unless the master grid's cell width is positive and finite."""
    if not dx > 0.0:
        raise ValueError("dx must be positive")
    if dx == math.inf:
        raise ValueError("dx must be finite, got inf")


def _active_count(h: float, dx: float) -> int:
    # cells [k dx, (k+1) dx) with positive coverage; the 1e-9 guard keeps a
    # front sitting on a cell edge (h = k dx) from opening a zero-width cell
    return max(1, int(math.ceil(h / dx - 1e-9)))


def _front_weights(h: float, dx: float, k: int) -> np.ndarray:
    """Covered width of each of the k cells below front h, k =
    `_active_count(h, dx)`: np.clip(h - i dx, 0, dx) over i < k bit for
    bit.  `_active_count`'s 1e-9 guard puts h at least dx (1 + 1e-9) past
    edge k - 2, so the clip returns exactly dx on every cell but the last.
    Near MAX_CELLS the rounding of h / dx and of edge k - 2 can use that
    margin up, so the last two cells are clipped, as scalars (np.clip's
    own call costs more than a whole small front's clip)."""
    w = np.full(k, dx)
    for i in range(max(k - 2, 0), k):
        w[i] = min(max(h - i * dx, 0.0), dx)
    return w


class _Master:
    """Mutable stepping engine on the master grid (internal).

    The fields live in one (B, 2, cap) array ``uv``: B members, row r of a
    member species r.  Each member has its own cell width, grid and front;
    all share the params, and so every time step.  ``dx``, ``h`` and
    ``grid`` (with its nodes ``x`` and cell edges ``edges``) are member 0's,
    ``u`` and ``v`` its row views, and ``grids`` holds every member's grid.
    Fresh engines start at t = 0 and zero fields.

    `dx` and `h` (h0 when None) are one member's cell width and front, or
    one of each per member.  Only a lone member's front moves: a batch of
    several members must be pinned (mu1 = mu2 = 0) and cover equal cell
    counts, and each Heun stage then convolves all of them through one
    `grids.stacked_convolution` operator.
    """

    def __init__(self, params: ModelParams, dx, capacity: int, h=None):
        widths = np.atleast_1d(np.asarray(dx, dtype=float))
        fronts = np.broadcast_to(params.h0 if h is None else h, widths.shape)
        self.B = widths.size
        counts = {_active_count(float(f), float(w)) for f, w in zip(fronts, widths)}
        if self.B > 1 and (params.mu1 > 0.0 or params.mu2 > 0.0):
            raise ValueError("a batch of several members needs pinned fronts (mu1 = mu2 = 0)")
        if len(counts) > 1:
            raise ValueError(f"a batch's members must cover equal cell counts, got {sorted(counts)}")
        self.params = params
        self.dx = float(widths[0])
        self.h = float(fronts[0])
        self.nl = params.nonlinearity
        self.rates = np.array([[params.d1], [params.d2]])
        self.cap = 1 << max(9, int(capacity - 1).bit_length())
        self.t = 0.0
        kernels = (params.kernel1, params.kernel2)
        self.grids = [Discretization(kernels, float(w), self.cap) for w in widths]
        self.grid = self.grids[0]
        self._same_kernels = params.kernel1 == params.kernel2
        self._front_h: float | None = None
        self._alloc()
        if self.B > 1:
            # pinned fronts never move: each member's weights are built
            # once, here
            k = counts.pop()
            w = np.stack([_front_weights(float(f), float(d), k)
                          for f, d in zip(fronts, widths)])[:, None]
            self._front = (k, w, w / widths[:, None, None])
            self._front_h = self.h

    def _alloc(self) -> None:
        self.x = self.grid.x
        self.edges = np.arange(self.cap) * self.dx
        self.uv = np.zeros((self.B, 2, self.cap))
        self.u, self.v = self.uv[0]
        self._conv: tuple = (None, None)  # (k, stacked_convolution(self.grids, k))
        # every linear loss of a cell in one rate: d_r j_r from dispersal
        # plus the death rate (a for u, b for v)
        p = self.params
        j = np.stack([g.j for g in self.grids])
        self.loss = self.rates * j + np.array([[p.a], [p.b]])

    def grow(self, cells: int = 0) -> None:
        """Double the capacity (a power of two), or more, until it holds
        `cells`.  The grid is built once, at the final size, so a size above
        the grid-cell ceiling is refused before anything is allocated."""
        old = self.uv
        self.cap = max(2 * self.cap, 1 << (cells - 1).bit_length())
        self.grids = [g.extended(self.cap) for g in self.grids]
        self.grid = self.grids[0]
        self._alloc()
        self.uv[..., :old.shape[-1]] = old

    def ensure(self, h: float) -> None:
        cells = _active_count(h, self.dx) + 8
        if cells > self.cap:
            self.grow(cells)

    def front(self, h: float) -> tuple[int, np.ndarray, np.ndarray]:
        """Covered cell count k, cell weights w and covered fractions w / dx
        at front h, recomputed only when h changes (a pinned front never
        does).  w and w / dx are (k,) for a lone member and (B, 1, k) for a
        batch."""
        if h != self._front_h:
            k = _active_count(h, self.dx)
            w = _front_weights(h, self.dx, k)
            self._front = (k, w, w / self.dx)
            self._front_h = h
        return self._front

    def convolve(self, src: np.ndarray) -> np.ndarray:
        """K src for the (B, 2, k) fields src, each member on its own grid,
        through `grids.stacked_convolution`'s operator, kept until k or the
        grids change."""
        k = src.shape[-1]
        if self._conv[0] != k:
            self._conv = (k, stacked_convolution(self.grids, k))
        return self._conv[1](src)

    def rhs(self, uv: np.ndarray, h: float) -> tuple[np.ndarray, float]:
        """Field derivatives (B, 2, k) on the k cells covered at front h, plus h'."""
        p = self.params
        k, w, frac = self.front(h)
        act = uv[..., :k]
        f = self.rates * self.convolve(act * frac) - self.loss[..., :k] * act
        f[:, 0] += self.nl.H(act[:, 1])
        f[:, 1] += self.nl.G(act[:, 0])

        flux = 0.0
        if p.mu1 > 0.0 or p.mu2 > 0.0:  # a lone member
            s = h - float(self.x[k - 1])
            escape = None
            # only a species that moves the front asks for (and so builds) a
            # tail table; equal kernels share one escaping-mass evaluation.
            # The cells' h - x are 8 table steps apart, so the table is read
            # by stride from the last cell down, and only up to the table's
            # flat part: the cells beyond it lose exactly no mass
            for r, mu in enumerate((p.mu1, p.mu2)):
                if mu > 0.0:
                    if escape is None or not self._same_kernels:
                        escape = (self.grid.mass[r] - self.grid.tail(r).strided(s, 8, k))[::-1]
                    near = k - escape.size
                    flux += mu * float(np.dot(w[near:] * act[0, r, near:], escape))
        return f, flux

    def heun(self, dt: float) -> None:
        # the front never recedes (h' >= 0), so the predictor covers at
        # least the cells the first stage does and every update is confined
        # to the predictor's k2 cells; beyond them the fields are unchanged
        f1, g1 = self.rhs(self.uv, self.h)
        k1 = f1.shape[-1]
        h_star = self.h + dt * g1
        self.ensure(h_star)
        k2 = _active_count(h_star, self.dx)
        star = self.uv[..., :k2].copy()
        star[..., :k1] += dt * f1
        f2, g2 = self.rhs(star, h_star)

        h_new = self.h + 0.5 * dt * (g1 + g2)
        self.ensure(h_new)
        # uv + dt/2 (f1 + f2), combined in f2's buffer
        f2[..., :k1] += f1
        f2 *= 0.5 * dt
        f2 += self.uv[..., :k2]
        low = float(f2.min())
        if low < -NEGATIVITY_TOL:
            raise SchemeError(
                f"negative field value {low:.3e} at t={self.t:.6g}; "
                "reduce the time step",
                member=int(np.argmin(f2.min(axis=(1, 2)))),
            )
        np.maximum(f2, 0.0, out=self.uv[..., :k2])
        self.h = h_new
        self.t += dt

    def mass(self) -> float:
        k, w, _ = self.front(self.h)
        return float(np.dot(w, self.u[:k] + (self.nl.hp0 / self.params.b) * self.v[:k]))

    def state(self) -> FreeBoundaryState:
        k, w, _ = self.front(self.h)
        return FreeBoundaryState(
            t=self.t,
            h=self.h,
            dx=self.dx,
            u=self.u[:k].copy(),
            v=self.v[:k].copy(),
            front_weight=float(w[..., -1].flat[0]),  # member 0's last cell
        )

    def sups(self) -> np.ndarray:
        """(B, 2): each member's sup u and sup v."""
        return self.uv.max(axis=2)


def _start(params: ModelParams, dx: float) -> _Master:
    """Engine at t = 0 with the initial profiles sampled on the cells below
    h0; ValueError when h0 / dx is no finite cell count."""
    if not math.isfinite(params.h0 / dx):
        raise ValueError(f"h0 / dx = {params.h0:g} / {dx:.3g} is not a finite cell count")
    eng = _Master(params, dx, _active_count(params.h0, dx) + 16)
    k = _active_count(eng.h, eng.dx)
    eng.u[:k] = np.asarray(params.u0(eng.x[:k]), dtype=float)
    eng.v[:k] = np.asarray(params.v0(eng.x[:k]), dtype=float)
    return eng


def _march(eng: _Master, dt: float, n_steps: int, stride: int):
    """Heun-step `eng` n_steps times; after every stride-th step and the last
    yield (step index, `eng.sups()`).

    Raises BlowUpError when a member's sup-norm passes ten times the larger
    of its initial sup-norms and the positive equilibrium.
    """
    terms = [1e-12]
    try:
        terms += equilibrium(eng.params)
    except NoPositiveEquilibrium:
        pass
    ceiling = 10.0 * np.maximum(eng.sups().max(axis=1), max(terms))
    for i in range(1, n_steps + 1):
        eng.heun(dt)
        if i % stride == 0 or i == n_steps:
            sups = eng.sups()
            over = sups.max(axis=1) > ceiling
            if over.any():
                raise BlowUpError(f"field norm exceeded its a-priori bound at t={eng.t:.6g}",
                                  member=int(np.argmax(over)))
            yield i, sups


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
    dt, n_steps, stride = _schedule(params, horizon, dt, sample_interval)
    _check_dx(dx)
    eng = _start(params, dx)

    want = sorted(float(s) for s in snapshot_times)
    shots: list[Snapshot] = []

    ts = [0.0]
    hs = [eng.h]
    sups = [eng.sups()[0]]
    masses = [eng.mass()]

    def maybe_snapshot() -> None:
        while want and eng.t >= want[0] - 1e-9:
            want.pop(0)
            st = eng.state()
            shots.append(Snapshot(t=eng.t, x=eng.x[: st.u.size].copy(), u=st.u, v=st.v))

    maybe_snapshot()
    for _, row in _march(eng, dt, n_steps, stride):
        ts.append(eng.t)
        hs.append(eng.h)
        sups.append(row[0])
        masses.append(eng.mass())
        maybe_snapshot()

    sup_u, sup_v = np.array(sups).T
    return SimulationTrace(
        t=np.asarray(ts),
        h=np.asarray(hs),
        sup_u=sup_u,
        sup_v=sup_v,
        mass=np.asarray(masses),
        snapshots=tuple(shots),
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


def _cell_minima(pair: eigen.Eigenpair, x: np.ndarray, h: float) -> np.ndarray:
    """Minimum over each cell [x_k, x_{k+1}) (the last ending at h) of each
    eigenfunction, linearly interpolated between the eigen nodes; rows
    phi1, phi2.

    A piecewise-linear function takes its minimum over an interval at an
    end or at a breakpoint, so it is evaluated at the cell edges and at the
    eigen nodes between them.
    """
    pts = np.sort(np.concatenate([x, [h], pair.x[pair.x < h]]))
    first = np.searchsorted(pts, x)
    lows = []
    for phi in (pair.phi1, pair.phi2):
        vals = np.interp(pts, pair.x, phi)
        low = np.minimum.reduceat(vals, first)
        # each segment stops short of the next cell's left edge, its own right end
        np.minimum(low[:-1], vals[first[1:]], out=low[:-1])
        lows.append(low)
    return np.stack(lows)


def _barrier(params: ModelParams, h: float, ell: float, x: np.ndarray | None,
             u, v, *, m_floor: float = 0.0) -> Barrier | None:
    """The comparison barrier from front position h, below the length ell.

    With eps = min(0.05, (ell/h - 1)/2) (0.05 for ell = inf, where no length
    caps it), h1 = h (1 + eps), (phi1, phi2) the principal eigenpair on
    [0, h1] (sup-norm 1) and delta = -lambda1(h1) > 0, the pair

        ubar = M e^{-delta t} phi1,  vbar = M e^{-delta t} phi2,
        gbar(t) = h (1 + eps - eps e^{-delta t})

    is an upper solution whenever u <= M phi1 and v <= M phi2 on [0, h] and
    mu1 + mu2 <= bound = eps delta h / (M m(h1)), with T_r(s) = mass_r/2 -
    ∫_0^s J_r kernel r's mass beyond s and m(h1) = max_r ∫_0^h1 T_r
    (`Kernel.tail_integral`, h1 T_r(h1) plus the partial first moment):
    - interior: H(v) <= H'(0) v and G(u) <= G'(0) u, because H(z)/z and
      G(z)/z are nonincreasing with H(0) = G(0) = 0 (both `Nonlinearity`
      families are sublinear for every positive rate, by construction), so
      the linearization dominates; and cutting the kernel integral from
      [0, h1] down to [0, gbar] only lowers it for positive phi, so the
      eigen-equation on [0, h1] gives ubar_t >= the right-hand side;
    - front: the escaping flux is mu1 ∫_0^gbar ubar(x) T_1(gbar - x) dx
      plus the same with mu2, vbar and T_2; phi <= 1 bounds each integral
      by M e^{-delta t} ∫_0^gbar T_r <= M e^{-delta t} m(h1) (T_r >= 0,
      gbar < h1), so the flux is at most (mu1 + mu2) M e^{-delta t} m(h1),
      which is at most gbar' = eps delta h e^{-delta t} under the bound.
      Since m(h1) <= h1 mass/2 <= h1/2, the bound is at least twice the
      eps delta h / (M h1) of assuming that all kernel mass escapes.
    The system is autonomous, so this holds from any instant: h stays below
    h1 for all later time, and lambda1(h1) < 0 puts h1 below the critical
    length, so the population vanishes.

    ``u`` and ``v`` are either profiles (callables of position) when ``x``
    is None, checked at the eigen nodes as `criteria._seed_mu_lower` does
    for the initial data, or the stepper's cell values, with ``x`` the cells'
    left edges (the last cell ending at h); then M bounds u / phi over each
    covered cell, phi interpolated linearly between the eigen nodes
    (`_cell_minima`), not only at the nodes.  M is at least ``m_floor``.
    Returns None when there is no barrier: h >= ell, or lambda1(h1) >= 0.
    """
    eps = min(0.05, 0.5 * (ell / h - 1.0))
    if not eps > 0.0:
        return None
    h1 = h * (1.0 + eps)
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(h1, params, default_cells(h1)))
    if pair.lambda_p >= 0.0:
        return None
    delta = -pair.lambda_p
    if x is None:
        phi1, phi2 = pair.phi1, pair.phi2
        u, v = (np.asarray(f(pair.x), dtype=float) for f in (u, v))
    else:
        phi1, phi2 = _cell_minima(pair, x, h)
    big = max(float(np.max(u / phi1)), float(np.max(v / phi2)), m_floor)
    flux = max(float(k.tail_integral(h1)) for k in (params.kernel1, params.kernel2))
    bound = eps * delta * h / (big * flux) if big > 0.0 else math.inf
    return Barrier(eps=eps, delta=delta, M=big, h1=h1, flux_factor=flux, bound=bound,
                   enclosure=pair.enclosure)


def classify(
    params: ModelParams,
    t_max: float = DEFAULT_T_MAX,
    dx: float = DEFAULT_DX,
    dt: float | None = None,
    *,
    watch: float | None = None,
) -> Outcome:
    """Decide spreading vs vanishing for one parameter set.

    Spreading is certified as soon as the front reaches a length where the
    principal eigenvalue is >= +1e-6 (the eigenvalue is increasing in l, so
    once positive it stays positive and the front cannot stall).  Vanishing
    is certified only by the comparison barrier of `_barrier`, applied to
    the current state once per BARRIER_WINDOW of model time, below the
    length where the spreading certificate starts, or with eps = 0.05 where
    no such length exists (the large-domain rate is <= 2e-6, R0 <= 1
    included): the barrier's own check lambda1(h1) < 0 keeps h1 below the
    critical length either way.  Anything else is undecided.  The barrier
    rests on H and G being sublinear, which both `Nonlinearity` families
    are for every positive rate by construction;
    `Nonlinearity.check_hypotheses` does not sample it.

    The barrier's bound is eps delta h / (M m(h1)), with m(h1) =
    max_r ∫_0^h1 T_r the most kernel mass a unit field on [0, h1] can send
    past its front (`Barrier`); assuming that every cell loses all its mass
    would put h1 in its place and at most halve the bound.

    The barrier fires only when mu1 + mu2 <= bound / 2.  Its proof is for
    the continuous system, while delta and phi come from the discrete
    eigenpair (at least 200 cells on [0, h1]) and phi is extended as a
    constant over the half eigen cell at each end of [0, h1]; the factor
    2 lets delta / M be off by up to half before a verdict could be wrong.
    On P1 at d = 6, with laplace or gaussian kernels, refining the eigen
    grid fourfold lowers the bound by 0.22-0.24%, nearly all of it through M.

    The checks fall once per unit of model time.  ``watch`` is the length
    where the spreading certificate starts (`_watch_length`); None searches
    for it once the run gets past the initial eigenvalue check.  It does not
    depend on mu1, mu2, so a search over mu passes it to every probe.
    """
    _check_dx(dx)
    dt, n_steps, stride = _schedule(params, t_max, dt, 1.0, "t_max")

    def front(h: float) -> eigen.Eigenpair:
        return eigen.principal_eigenpair(eigen.lambda1_spec(h, params))

    pair = front(params.h0)
    if pair.lambda_p >= SIGN_BAND:
        return Outcome(verdict="spreading", certificate="eigenvalue", t_decided=0.0,
                       h_front=params.h0, lambda_front=pair.lambda_p, mass=math.nan,
                       lambda_enclosure=pair.enclosure,
                       message="eigenvalue already positive at the initial length")

    if watch is None:
        watch = _watch_length(params)
    eng = _start(params, dx)
    per_window = max(1, int(round(BARRIER_WINDOW / (stride * dt))))
    offset = 1.0

    def decided(verdict: str, certificate: str, pair: eigen.Eigenpair, message: str,
                barrier: Barrier | None = None) -> Outcome:
        return Outcome(verdict=verdict, certificate=certificate, t_decided=eng.t,
                       h_front=eng.h, lambda_front=pair.lambda_p, mass=eng.mass(), barrier=barrier,
                       message=message, lambda_enclosure=pair.enclosure)

    for samples, _ in enumerate(_march(eng, dt, n_steps, stride), start=1):
        if eng.h >= watch * offset:
            pair = front(eng.h)
            if pair.lambda_p >= SIGN_BAND:
                return decided("spreading", "eigenvalue", pair,
                               "front crossed the positive-eigenvalue length")
            offset *= 1.02

        if samples % per_window == 0:
            k = _active_count(eng.h, eng.dx)
            bar = _barrier(params, eng.h, watch, eng.edges[:k], eng.u[:k], eng.v[:k])
            if bar is not None and params.mu1 + params.mu2 <= 0.5 * bar.bound:
                return decided("vanishing", "barrier", front(eng.h),
                               "front held below the comparison barrier", barrier=bar)

    return decided("undecided", "none", front(eng.h), f"no certificate reached by t={t_max:g}")


def _watch_length(params: ModelParams) -> float:
    """Length at which a positive-eigenvalue certificate becomes available;
    inf when the large-domain limit gammaA of the eigenvalue clears the
    2e-6 target by at most RESIDUAL_TOL, or the search fails.
    It does not depend on mu1, mu2.

    The discrete lambda1(l) <= gammaA at every length, so within that
    margin lambda1 - 2e-6 is nowhere above what an eigen solve (residual
    below RESIDUAL_TOL) resolves, and the root lies where no grid reaches:
    for a margin of 6e-17 on P1 at d = 6, lambda1's approach to gammaA
    puts it near l = 5e8, and the search would double toward l = 4096
    first.  The test reads gammaA's closed form, so it adds no solve.  inf
    is sound: `classify` then forgoes only the eigenvalue certificate of
    spreading, and its barrier needs no watch length.
    """
    if derived_constants(params).gammaA - 2 * SIGN_BAND <= eigen.RESIDUAL_TOL:
        return math.inf
    try:
        return eigen.critical_length(params, target=2 * SIGN_BAND).value
    except (ValueError, RuntimeError):
        return math.inf


@dataclass(frozen=True)
class DecayEstimate:
    """Late-time behaviour of a fixed-domain run.

    mode ``exponential``: fitted rate k of exp(-k t); ``algebraic``: fitted
    power k of (1+t)^-k; ``none``: the run converges to the positive steady
    state instead of decaying.
    """

    mode: str
    k: float
    window: tuple[float, float]
    r_squared: float
    lambda1: float


def _decay_fit(t: np.ndarray, y: np.ndarray, lam: float) -> DecayEstimate:
    """Least-squares decay fit of log sup-norms y over times t.

    Exponential (y linear in t) when lam < -SIGN_BAND, algebraic (y linear
    in log(1 + t)) otherwise.
    """
    exponential = lam < -SIGN_BAND
    s = t if exponential else np.log1p(t)
    slope, intercept = np.polyfit(s, y, 1)
    ss_res = float(np.sum((y - (slope * s + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return DecayEstimate(
        mode="exponential" if exponential else "algebraic",
        k=-float(slope),
        window=(float(t[0]), float(t[-1])),
        r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        lambda1=lam,
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
    if len(h0_values) == 0:
        raise ValueError("h0_values must not be empty")
    if not 1 <= num_points <= MAX_CELLS:
        raise ValueError(f"num_points must lie in [1, {MAX_CELLS}], got {num_points}")
    if profile is None:
        profile = lambda h0: initial_profile("tent", 1.0, h0)  # noqa: E731

    rows: list[MismatchRow] = []
    for h0 in h0_values:
        if not 0.0 < h0 < math.inf:
            raise ValueError(f"h0 values must be positive and finite, got {h0:g}")
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
