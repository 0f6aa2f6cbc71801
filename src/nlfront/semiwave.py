"""Semi-wave profiles and the asymptotic front speed.

The front of a spreading solution travels at the speed c of the semi-wave:
a pair of monotone profiles (p, q) on the half line behind a front at 0,
traveling with the front, whose loss term is the full kernel mass (the
half-line restriction disappears in the moving frame) and whose speed is
reproduced by the flux of mass crossing the front.  The solver discretizes
(-L, 0] with the far field frozen at the positive equilibrium, relaxes the
profiles at fixed c, and closes the loop with a secant on the speed gap
g(c) = F(c) - c, F(c) being the flux quadrature of the profiles relaxed at
c; where the secant is unusable the damped step c + g(c)/2 is taken.

The package's one finite-speed rule is `_accelerates`.  arXiv 2405.04268
proves that the spreading speed is finite if and only if a threshold
condition on the kernels holds; in the form Du and Ni give for cooperative
systems (J. Differential Equations 2022, as recalled), every kernel J_r whose
front response mu_r is positive has a finite first moment ∫_0^∞ x J_r(x) dx.
A kernel with mu_r = 0 sends no mass across the front, so its tail plays no
part.  When the condition fails the flux of the frozen far field diverges:
`solve_semiwave` raises `SpeedEscape` with c = inf before any relaxation, and
`speed_limits` reports the table as accelerated.  A finite c-iteration that
passes C_CAP raises `SpeedEscape` with that c.

Each relaxation is a monotone descent: one sweep T_c is monotone in the
profiles, and its result is clamped below its input, so every iterate is a
supersolution at its c.  On profiles that do not increase toward the front
T_c <= T_c' for c' <= c (the upwind term c (p_{i+1} - p_i)/dx only falls as
c grows), so an iterate at c' is a supersolution at every c >= c' too, and
a descent started from it converges to the same fixed point as one started
from the far-field constant.  Each solve keeps one profile, the one relaxed
at the largest speed c' not above the next c, and starts there (from the
constant while there is none).  Relaxations are inexact while the speed is
far off, in the manner of an inexact Newton forcing term (Eisenstat and
Walker, 1996): the first stops once a sweep moves the profiles by less than
LOOSE_TOL, relaxation k at max(RELAX_TOL, min(LOOSE_TOL, GAP_FORCING
|g_{k-1}|)).  Only a profile relaxed to RELAX_TOL is accepted: when a looser
one already closes the gap to C_TOL, the same descent goes on at the same c
to RELAX_TOL and the gap is tested again.  `outer_iterations` counts the
speeds tried, the accepted one included, and `sweeps` every sweep of every
relaxation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Discretization
from .model import Kernel, ModelParams, _equilibrium, first_moment

__all__ = [
    "SpeedEscape",
    "SemiWaveProfile",
    "SpeedRow",
    "SpeedTable",
    "solve_semiwave",
    "speed_limits",
]

C_CAP = 1e3
C_TOL = 1e-6
RELAX_TOL = 1e-9
LOOSE_TOL = 1e-4  # relaxation tolerance while the speed gap is unknown or large
GAP_FORCING = 1e-6  # relaxation tolerance per unit of the last speed gap
MAX_SWEEPS = 200_000
MAX_OUTER = 400
DEFAULT_DX = 0.05
DEFAULT_L = 60.0
BLOCK = 32  # nodes per block of the backward recurrence's batched product


class SpeedEscape(RuntimeError):
    """Speed escape: no finite speed.  ``c`` is inf when the solve's kernels
    break the finite-speed rule (`_accelerates`), else the speed at which the
    c-iteration passed C_CAP."""

    def __init__(self, message: str, c: float):
        super().__init__(message)
        self.c = c


@dataclass(frozen=True)
class SemiWaveProfile:
    """Converged semi-wave: speed, profiles, and closure residuals."""

    c: float
    x: np.ndarray
    p: np.ndarray
    q: np.ndarray
    sigma: float
    n: int | None
    L: float
    far_field: tuple[float, float]
    residual_profile: float
    residual_speed: float
    outer_iterations: int
    sweeps: int


def _kernels(params: ModelParams, n: int | None) -> tuple[Kernel, Kernel]:
    """Both kernels, truncated at n when n is given."""
    if n is None:
        return params.kernel1, params.kernel2
    return params.kernel1.truncate(n), params.kernel2.truncate(n)


def _accelerates(kernels: Sequence[Kernel], mus: Sequence[float]) -> bool:
    """The finite-speed rule (module docstring) fails: some kernel whose
    front response mu is positive has an infinite first moment."""
    return any(mu > 0.0 and math.isinf(first_moment(k)) for k, mu in zip(kernels, mus))


def _far_tail_integral(kernel: Kernel, s0: float) -> float:
    """∫_{s0}^∞ (mass − CDF(s)) ds, the far-field reach past distance s0, for
    a kernel with a finite first moment."""
    if s0 >= kernel.support_radius:
        return 0.0  # nothing reaches past the support (skips the moments)
    tail_mass = float(kernel.mass - kernel.cdf(s0))
    return first_moment(kernel) - float(kernel.partial_first_moment(s0)) - s0 * tail_mass


def _backward_recurrence(alpha: np.ndarray, n: int):
    """Solver of x_i = b_i + alpha_r x_{i+1} (i < n - 1), x_{n-1} = b_{n-1},
    for each row r of a (len(alpha), n) array b.

    The nodes, zero-padded on the far side to whole blocks of BLOCK, are
    solved block by block with no carry from the front side by one batched
    product with each row's matrix of powers alpha^(j - i), j >= i.  The
    value entering each block from the front side then obeys the same
    recurrence over the blocks with coefficient alpha^BLOCK, which the same
    construction solves one level up; it adds alpha^(BLOCK - i) times that
    value to node i of the block.  Each x_i = sum_j alpha^j b_{i+j} is
    exact to within a few ulps of sum_j alpha^j |b_{i+j}|, as for the
    direct recurrence, with O(n) work and memory and no Python loop over
    the nodes.  b is left as it is.
    """
    alpha = np.asarray(alpha, dtype=float)
    rows, blocks = alpha.size, -(-n // BLOCK)
    size = blocks * BLOCK
    lag = np.arange(BLOCK)[:, None] - np.arange(BLOCK)
    within = np.where(lag >= 0, alpha[:, None, None] ** np.maximum(lag, 0), 0.0)
    carry = alpha[:, None, None] ** (BLOCK - np.arange(BLOCK))
    entering = _backward_recurrence(alpha**BLOCK, blocks) if blocks > 1 else None
    pad = np.zeros((rows, size))

    def solve(b: np.ndarray) -> np.ndarray:
        pad[:, size - n:] = b
        x = np.matmul(pad.reshape(rows, blocks, BLOCK), within)
        if entering is not None:
            x[:, :-1] += carry * entering(x[:, :, 0])[:, 1:, None]
        return x.reshape(rows, size)[:, size - n:]

    return solve


def _check_grid(L: float, dx: float) -> None:
    """ValueError unless the profile grid on [-L, 0] is finite with 0 < dx < L."""
    if not 0.0 < dx < L < math.inf:
        raise ValueError(f"need 0 < dx < L < inf, got dx = {dx:g}, L = {L:g}")


def solve_semiwave(
    params: ModelParams,
    sigma: float = 0.0,
    n: int | None = None,
    L: float = DEFAULT_L,
    dx: float = DEFAULT_DX,
    c0: float | None = None,
) -> SemiWaveProfile:
    """Solve the traveling-front profile system for the speed c.

    `sigma` adds a uniform extra decay rate to both equations; `n` replaces
    the kernels by their compactly supported truncations.  The profile grid
    covers [-L, 0] with the true far-field equilibrium imposed beyond -L.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    _check_grid(L, dx)
    kernels = _kernels(params, n)
    if n is not None:
        L = max(L, 2.0 * n + 10.0)

    nl = params.nonlinearity
    # on a constant state a truncated kernel's missing mass 1 - mass acts as
    # extra decay d (1 - mass)
    far_field = _equilibrium(params.a + sigma + params.d1 * (1.0 - kernels[0].mass),
                             params.b + sigma + params.d2 * (1.0 - kernels[1].mass), nl)

    # flux of the frozen far field past the grid.  It is finite exactly when
    # the finite-speed rule holds for these kernels (truncated ones always
    # have a finite first moment); a species with mu = 0 sends nothing
    # across the front and is left out, its kernel's tail playing no part
    mus = (params.mu1, params.mu2)
    if _accelerates(kernels, mus):
        raise SpeedEscape("speed escape: far-field flux diverges (heavy-tailed kernel)",
                          c=math.inf)
    s0 = L + dx / 2.0
    far_flux = sum((mu * f * _far_tail_integral(k, s0)
                    for mu, f, k in zip(mus, far_field, kernels) if mu > 0.0), 0.0)

    m = int(round(L / dx))
    L = m * dx
    grid = Discretization(kernels, dx, m + 1)
    x = -L + np.arange(m + 1) * dx
    far = _far_reach(grid, far_field)
    # front-crossing tails for the speed quadrature (static, exact CDF)
    cross = np.stack([np.asarray(k.mass - k.cdf(-x)) for k in kernels])
    w = np.full(m + 1, dx)
    w[-1] = dx / 2.0
    rates = np.array([[params.d1], [params.d2]])
    decay = np.array([[params.a], [params.b]]) + sigma

    # the constant supersolution: the far-field state, clamped to 0 at the
    # front node, maps below itself for every c
    top = np.repeat(np.array(far_field)[:, None], m + 1, axis=1)
    top[:, -1] = 0.0

    def relax(c: float, pq: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
        # monotone descent at speed c from the supersolution pq until a
        # sweep moves the profiles by less than tol; forcing each sweep to
        # be a descent step keeps amplified roundoff from ever feeding back
        # (long grids at supercritical c amplify noise exponentially).  pq
        # is never written: every sweep makes new arrays
        den = rates + decay + c / dx
        recurrence = _backward_recurrence((c / dx) / den[:, 0], m + 1)
        for sweep in range(1, MAX_SWEEPS + 1):
            # with the convolution lagged, the transport + local part of a
            # row is a two-term backward recurrence from the clamped front
            # value 0; solving it exactly keeps the sweep count independent
            # of the grid length
            reaction = np.stack([nl.H(pq[1, :-1]), nl.G(pq[0, :-1])])
            rhs = np.zeros_like(pq)
            rhs[:, :-1] = (rates * (grid.convolve(pq) + far)[:, :-1] + reaction) / den
            new = recurrence(rhs)
            # profiles are nonnegative; without the clamp, roundoff noise is
            # amplified exponentially across long grids at supercritical c
            np.maximum(new, 0.0, out=new)
            np.minimum(new, pq, out=new)
            delta = float(np.max(pq - new))
            pq = new
            if delta < tol:
                return pq, sweep
        raise RuntimeError(
            f"profile relaxation failed to reach {tol:g} in {MAX_SWEEPS} sweeps"
        )

    def flux(pq: np.ndarray) -> float:
        acc = far_flux
        for mu, row in zip(mus, pq * cross):
            if mu > 0.0:
                acc += mu * float(np.dot(w, row))
        return acc

    c = c0 if c0 is not None else params.mu1 * far_field[0] + params.mu2 * far_field[1]
    if c < 0.0:
        raise ValueError("initial speed guess must be >= 0")
    sweeps = 0
    gap = math.inf
    tol = LOOSE_TOL
    # the one kept profile: (c', profile relaxed at c'), a supersolution at
    # every c >= c'
    kept: tuple[float, np.ndarray] | None = None
    # secant on g(c) = F(c) - c; the damped fixed-point step c + g/2 is taken
    # on the first update, when the secant is degenerate, non-finite or
    # negative, and when it would leave the bracket where g changed sign
    prev: tuple[float, float] | None = None
    pos = neg = None  # latest c with g > 0, latest c with g < 0
    for outer in range(1, MAX_OUTER + 1):
        pq, used = relax(c, top if kept is None else kept[1], tol)
        sweeps += used
        c_new = flux(pq)
        if abs(c_new - c) < C_TOL and tol > RELAX_TOL:
            # only a profile relaxed to RELAX_TOL is accepted: carry the
            # same descent on at the same c and test again
            pq, used = relax(c, pq, RELAX_TOL)
            sweeps += used
            c_new = flux(pq)
        g = c_new - c
        gap = abs(g)
        if gap < C_TOL:
            c = c_new
            break
        if g > 0.0:
            pos = c
        else:
            neg = c
        step = 0.5 * g
        if prev is not None and g != prev[1]:
            secant = -g * (c - prev[0]) / (g - prev[1])
            target = c + secant
            inside = (
                pos is None or neg is None
                or min(pos, neg) < target < max(pos, neg)
            )
            if math.isfinite(target) and target >= 0.0 and inside:
                step = secant
        prev = (c, g)
        # of the kept profile and this one, keep the one relaxed at the
        # largest speed not above the next
        kept = max((one for one in (kept, (c, pq)) if one is not None and one[0] <= c + step),
                   key=lambda one: one[0], default=None)
        c = c + step
        tol = max(RELAX_TOL, min(LOOSE_TOL, GAP_FORCING * gap))
        if c > C_CAP:
            raise SpeedEscape(f"speed escape: c exceeded {C_CAP:g} after {outer} updates", c=c)
    else:
        raise RuntimeError(
            f"speed iteration failed: |Δc|={gap:.3e} after {MAX_OUTER} updates"
        )

    return SemiWaveProfile(
        c=float(c),
        x=x,
        p=pq[0],
        q=pq[1],
        sigma=float(sigma),
        n=n,
        L=float(L),
        far_field=far_field,
        residual_profile=_residual(params, float(c), float(sigma), pq,
                                   grid.convolve(pq) + far, dx),
        residual_speed=float(gap),
        outer_iterations=outer,
        sweeps=sweeps,
    )


def _residual(params: ModelParams, c: float, sigma: float, own: np.ndarray,
              conv: np.ndarray, dx: float) -> float:
    """Sup-norm of the profile equations at speed c for the (2, m + 1)
    profile rows ``own`` on nodes spaced dx, given their convolutions (far
    field included)."""
    nl = params.nonlinearity
    # row r: d_r (conv - own) + c own' - (decay_r + sigma) own + reaction
    f = (np.array([[params.d1], [params.d2]]) * (conv[:, :-1] - own[:, :-1])
         + c * (np.diff(own) / dx)
         - (np.array([[params.a], [params.b]]) + sigma) * own[:, :-1]
         + np.stack([nl.H(own[1, :-1]), nl.G(own[0, :-1])]))
    return float(np.max(np.abs(f)))


def _far_reach(grid: Discretization, far_field: tuple[float, float]) -> np.ndarray:
    """Mass beyond -L seen at each node, per species: the frozen far field
    times each kernel's mass escaping past the grid's left cell edge."""
    return np.array(far_field)[:, None] * (np.array(grid.mass)[:, None] - grid.j)


@dataclass(frozen=True)
class SpeedRow:
    sigma: float
    n: int | None
    c: float
    escaped: bool


@dataclass(frozen=True)
class SpeedTable:
    """Truncated-kernel speeds, one row per (sigma, n), and the finite-speed
    rule's answer for the untruncated kernels: ``accelerated`` is
    `_accelerates` of them, whatever the rows read."""

    rows: tuple[SpeedRow, ...]
    accelerated: bool

    def speeds(self, sigma: float) -> list[float]:
        return [r.c for r in self.rows if r.sigma == sigma]


def speed_limits(
    params: ModelParams,
    sigmas: Sequence[float],
    ns: Sequence[int],
    L: float = DEFAULT_L,
    dx: float = DEFAULT_DX,
) -> SpeedTable:
    """Tabulate truncated-kernel speeds over (sigma, n) schedules.

    Every row is solved; a row whose solve escapes past C_CAP records
    c = inf.  For thin-tailed kernels the column over n stabilizes below the
    untruncated speed, and for a heavy tail it grows with n; the table is
    evidence only.  ``accelerated`` is the finite-speed rule (`_accelerates`)
    applied to the untruncated kernels of params, the answer `solve_semiwave`
    gives on them.
    """
    if not sigmas or not ns:
        raise ValueError("sigma and n schedules must be nonempty")
    rows: list[SpeedRow] = []
    warm: float | None = None
    for sigma in sigmas:
        for n in ns:
            try:
                prof = solve_semiwave(params, sigma=sigma, n=n, L=L, dx=dx, c0=warm)
                rows.append(SpeedRow(sigma=float(sigma), n=int(n), c=prof.c, escaped=False))
                warm = prof.c
            except SpeedEscape:
                rows.append(
                    SpeedRow(sigma=float(sigma), n=int(n), c=math.inf, escaped=True)
                )
                warm = None
    return SpeedTable(rows=tuple(rows), accelerated=_accelerates(
        (params.kernel1, params.kernel2), (params.mu1, params.mu2)))

