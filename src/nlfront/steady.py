"""Fixed-domain steady states and dynamics.

On a fixed habitat [0, l] the system has at most one positive steady state,
reached by squeezing a monotone fixed-point iteration from above (constant
equilibrium) and below (a small multiple of the principal eigenfunction).
The time-dependent problem on the same domain runs on the moving-front
engine of `freeboundary` with the front pinned (mu1 = mu2 = 0, h = l) and
is classified by its decay behaviour against the sign of the principal
eigenvalue; where that eigenvalue is positive the run settles on the
steady state, so a decay report (`decay_rates`) does not step it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eigen, freeboundary
from .eigen import SIGN_BAND
from .freeboundary import BlowUpError, DecayEstimate, SchemeError, stability_timestep
from .grids import Discretization, cell_nodes, default_cells
from .model import ModelParams, NoPositiveEquilibrium, equilibrium, initial_profile

__all__ = [
    "SteadyState",
    "DecayEstimate",
    "EvolutionTrace",
    "FixedDomain",
    "SandwichError",
    "BlowUpError",
    "solve_steady",
    "evolve_fixed",
    "evolve_lengths",
    "decay_rates",
    "stability_timestep",
]

GAP_TOL = 1e-9
MAX_SANDWICH_ITERS = 100_000


class SandwichError(RuntimeError):
    """Two-sided iteration failed to meet; carries the last gap."""

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


class FixedDomain:
    """Discretization of the fixed-habitat system on [0, l]."""

    def __init__(self, l: float, params: ModelParams, num_cells: int | None = None):
        n = num_cells if num_cells is not None else default_cells(l)
        self.params = params
        self.n = n
        self.grid = Discretization((params.kernel1, params.kernel2), float(l) / n, n)
        self.x = self.grid.x
        self.rates = np.array([[params.d1], [params.d2]])
        self._decay = np.array([[params.a], [params.b]])
        self._den = self.rates * self.grid.j + self._decay

    def gamma(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """One step of the monotone fixed-point map: the (2, n) rows (u, v)."""
        nl = self.params.nonlinearity
        conv = self.grid.convolve(np.stack([u, v]))
        return (self.rates * conv + np.stack([nl.H(v), nl.G(u)])) / self._den

    def residual(self, u: np.ndarray, v: np.ndarray) -> float:
        """Sup-norm of the steady equations' right-hand side at (u, v)."""
        nl = self.params.nonlinearity
        uv = np.stack([u, v])
        f = (self.rates * (self.grid.convolve(uv) - self.grid.j * uv) - self._decay * uv
             + np.stack([nl.H(v), nl.G(u)]))
        return float(np.max(np.abs(f)))


def _sample(f, x: np.ndarray, name: str) -> np.ndarray:
    """A callable evaluated at the nodes x, or an array checked against them."""
    vals = np.asarray(f(x) if callable(f) else f, dtype=float)
    if vals.shape != x.shape:
        raise ValueError(f"{name} does not match the grid ({vals.shape} vs {x.shape})")
    return vals


@dataclass(frozen=True)
class SteadyState:
    l: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int
    lambda1: float

    @property
    def is_zero(self) -> bool:
        return float(np.max(self.u)) == 0.0 and float(np.max(self.v)) == 0.0


def solve_steady(l: float, params: ModelParams, num_cells: int | None = None) -> SteadyState:
    """Unique nonnegative steady state on [0, l].

    When the principal eigenvalue is positive the state is squeezed between
    the constant equilibrium from above and a small multiple of the principal
    eigenfunction from below; both sequences are monotone, and convergence
    means they agree within GAP_TOL.  A nonpositive eigenvalue certifies the
    zero state, which is returned directly.
    """
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(l, params, num_cells))
    dom = FixedDomain(l, params, num_cells)
    lam = pair.lambda_p
    if lam <= 0:
        z = np.zeros((2, dom.n))
        return SteadyState(l=l, x=dom.x, u=z[0], v=z[1], residual=0.0,
                           iterations=0, lambda1=lam)

    try:
        cap = equilibrium(params)
    except NoPositiveEquilibrium as exc:  # lambda1 > 0 forces R0 > 1
        raise SandwichError(f"inconsistent state: {exc}", math.inf, 0) from exc
    up = np.repeat(np.array(cap)[:, None], dom.n, axis=1)

    phi = np.stack([pair.phi1, pair.phi2])
    eps = 1e-3 * float(phi.min())  # sup norm of the pair is already 1
    lo = eps * phi
    for _ in range(200):
        if np.all(dom.gamma(*lo) >= lo - 1e-15):
            break
        eps *= 0.5
        lo = eps * phi
    else:
        raise SandwichError("could not seed a lower solution from the eigenfunction",
                            math.inf, 0)

    gap = math.inf
    iters = 0
    while iters < MAX_SANDWICH_ITERS:
        up = dom.gamma(*up)
        lo = dom.gamma(*lo)
        iters += 2
        gap = float(np.max(np.abs(up - lo)))
        if gap < GAP_TOL:
            break
    else:
        raise SandwichError(
            f"sequences fail to sandwich within {MAX_SANDWICH_ITERS} iterations "
            f"(gap {gap:.3e})", gap, iters,
        )

    res = dom.residual(*up)
    extra = 0
    while res >= GAP_TOL and extra < 500:
        up = dom.gamma(*up)
        res = dom.residual(*up)
        iters += 1
        extra += 1
    return SteadyState(l=l, x=dom.x, u=up[0], v=up[1], residual=res, iterations=iters,
                       lambda1=lam)


# ---------------------------------------------------------------------------
# fixed-domain dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionTrace:
    t: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    norm_sum: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dt: float
    num_cells: int


def evolve_fixed(l: float, params: ModelParams, u0, v0, horizon: float,
                 num_cells: int | None = None, dt: float | None = None,
                 sample_interval: float | None = None,
                 ) -> tuple[EvolutionTrace, DecayEstimate]:
    """Integrate the fixed-habitat system and classify its late-time decay.

    Runs the moving-front engine with the front pinned at h = l (mu1 = mu2
    = 0): Heun steps under the positivity CFL, the horizon split into equal
    steps no longer than `dt`, sampled sup norms.  Fields exceeding ten
    times the natural a-priori bound abort with BlowUpError.  The decay fit
    runs over the second half of the horizon.  The one-length case of
    `evolve_lengths`.
    """
    return evolve_lengths([l], params, horizon, lambda _: (u0, v0), num_cells, dt,
                          sample_interval)[0]


def _tents(l: float):
    return initial_profile("tent", 1.0, l), initial_profile("tent", 0.5, l)


def evolve_lengths(lengths, params: ModelParams, horizon: float, initial=_tents,
                   num_cells: int | None = None, dt: float | None = None,
                   sample_interval: float | None = None,
                   ) -> list[tuple[EvolutionTrace, DecayEstimate]]:
    """`evolve_fixed` on every length, one (trace, fit) pair per length in
    input order.

    ``initial(l)`` gives the initial fields (u0, v0) on [0, l], by default
    tents of amplitude 1 and 1/2.  Every length is checked, its principal
    eigenvalue computed and its initial fields sampled before any stepping.
    Every length is stepped, since each trace is returned.  That includes
    the lengths with lambda1 > SIGN_BAND, whose run settles on the unique,
    stable positive steady state (the paper's steady-state result), so
    that their fit is ``none`` from the eigenvalue alone; `decay_rates`,
    which returns fits only, does not step them.
    Lengths with the same cell count step together as one batch of the
    pinned engine, whose Heun stages convolve every member through one
    `grids.stacked_convolution` operator; all share the schedule, which
    does not depend on the length.
    A SchemeError or BlowUpError names the length it arose at.
    """
    return _fixed_runs(lengths, params, horizon, initial, num_cells, dt, sample_interval,
                       step_settled=True)


def decay_rates(lengths, params: ModelParams, horizon: float) -> list[DecayEstimate]:
    """The decay fit of `evolve_lengths` from tents on every length, in
    input order, stepping only the lengths whose fit needs a run.

    On a length with lambda1 > SIGN_BAND the positive steady state exists,
    is unique and is stable (the paper's steady-state result; `solve_steady`
    finds it), so the run settles on it and the fit is ``none`` whatever
    the trace: that estimate comes from the eigenvalue and the sampling
    schedule alone, equal to `evolve_lengths`' own, and the length is not
    stepped.  It can then raise no SchemeError or BlowUpError.  The other
    lengths step as in `evolve_lengths`, and batch members equal their
    one-member runs bit for bit, so every estimate is unchanged.
    """
    return [est for _, est in _fixed_runs(lengths, params, horizon, _tents, None, None, None,
                                          step_settled=False)]


def _fixed_runs(lengths, params, horizon, initial, num_cells, dt, sample_interval, *,
                step_settled: bool) -> list[tuple[EvolutionTrace | None, DecayEstimate]]:
    """(trace, fit) per length for `evolve_lengths` and `decay_rates`.  A
    length with lambda1 > SIGN_BAND is settled: its fit is ``none``, and it
    is stepped only with ``step_settled`` (its trace is None otherwise)."""
    for l in lengths:
        if not 0.0 < l < math.inf:
            raise ValueError("domain length must be positive and finite")
    step, n_steps, stride = freeboundary._schedule(params, horizon, dt, sample_interval,
                                                   equal=True)
    # t = 0 and the times of the steps `freeboundary._march` samples: every
    # stride-th and the last
    t_arr = step * np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    half = t_arr >= horizon / 2.0
    groups: dict[int, list[int]] = {}
    lams, starts, results = [], [], []
    for i, l in enumerate(lengths):
        n = num_cells if num_cells is not None else default_cells(l)
        # the eigen grid refuses too few cells
        lams.append(eigen.lambda1(l, params, num_cells=n))
        x = cell_nodes(0.0, l / n, n)
        u0, v0 = initial(l)
        u, v = _sample(u0, x, "u0"), _sample(v0, x, "v0")
        if np.any(u < 0) or np.any(v < 0):
            raise ValueError("initial fields must be nonnegative")
        starts.append((x, u, v))
        settled = lams[-1] > SIGN_BAND
        results.append((None, DecayEstimate(
            mode="none", k=math.nan, window=(float(t_arr[half][0]), float(t_arr[-1])),
            r_squared=math.nan, lambda1=lams[-1])) if settled else None)
        if step_settled or not settled:
            groups.setdefault(n, []).append(i)

    pinned = replace(params, mu1=0.0, mu2=0.0)
    for n, members in groups.items():
        ls = [float(lengths[i]) for i in members]
        eng = freeboundary._Master(pinned, [l / n for l in ls], n + 64, ls)
        for b, i in enumerate(members):
            eng.uv[b, :, :n] = starts[i][1:]
        sups = [eng.sups()]
        try:
            sups += [row for _, row in freeboundary._march(eng, step, n_steps, stride)]
        except (SchemeError, BlowUpError) as exc:
            raise type(exc)(f"l = {ls[exc.member]:g}: {exc}") from exc
        norms = np.array(sups)
        for b, i in enumerate(members):
            nu_arr, nv_arr = norms[:, b, 0].copy(), norms[:, b, 1].copy()
            trace = EvolutionTrace(t=t_arr, norm_u=nu_arr, norm_v=nv_arr,
                                   norm_sum=nu_arr + nv_arr, x=starts[i][0],
                                   u=eng.uv[b, 0, :n].copy(), v=eng.uv[b, 1, :n].copy(),
                                   dt=step, num_cells=n)
            est = results[i][1] if results[i] else freeboundary._decay_fit(
                t_arr[half], np.log(trace.norm_sum[half]), lams[i])
            results[i] = (trace, est)
    return results
