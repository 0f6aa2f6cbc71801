"""Semi-wave profiles and the asymptotic front speed.

The front of a spreading solution travels at the speed c of the semi-wave:
a pair of monotone profiles (p, q) on the half line behind a front at 0,
traveling with the front, whose loss term is the full kernel mass (the
half-line restriction disappears in the moving frame) and whose speed is
reproduced by the flux of mass crossing the front.  The solver discretizes
(-L, 0] with the far field frozen at the positive equilibrium, relaxes the
profiles at fixed c, and closes the loop with a secant on the speed gap
g(c) = F(c) - c, F(c) being the flux quadrature of the profiles relaxed at
c; where the secant is unusable the damped step c + g(c)/2 is taken.  When
a kernel's first moment diverges no finite speed exists; the c-iteration
escapes upward and the condition is reported rather than fought.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import signal

from .grids import ConvolverStack
from .model import (
    Kernel,
    ModelParams,
    MomentUndetermined,
    _positive_root,
    first_moment,
)

__all__ = [
    "SpeedEscape",
    "SemiWaveProfile",
    "SpeedRow",
    "SpeedTable",
    "solve_semiwave",
    "profile_residual",
    "speed_limits",
    "predicted_speed",
    "PredictedSpeed",
]

C_CAP = 1e3
C_TOL = 1e-6
RELAX_TOL = 1e-9
MAX_SWEEPS = 200_000
MAX_OUTER = 400
DEFAULT_DX = 0.05
DEFAULT_L = 60.0


class SpeedEscape(RuntimeError):
    """Speed escape: the c-iteration grows past its cap (no finite speed)."""

    def __init__(self, message: str, c: float, sigma: float, n: int | None):
        super().__init__(message)
        self.c = c
        self.sigma = sigma
        self.n = n


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


def _effective_rates(params: ModelParams, sigma: float, k1: Kernel, k2: Kernel):
    a_eff = params.a + sigma + params.d1 * (1.0 - k1.mass)
    b_eff = params.b + sigma + params.d2 * (1.0 - k2.mass)
    return a_eff, b_eff


def _far_tail_integral(kernel: Kernel, s0: float) -> float:
    """∫_{s0}^∞ (mass − CDF(s)) ds, the far-field reach past distance s0."""
    fm = first_moment(kernel)
    if math.isinf(fm):
        return math.inf
    tail_mass = float(kernel.mass - kernel.cdf(s0))
    return fm - float(kernel.partial_first_moment(s0)) - s0 * tail_mass


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
    if dx <= 0.0 or L <= dx:
        raise ValueError("need 0 < dx < L")
    k1 = params.kernel1 if n is None else params.kernel1.truncate(n)
    k2 = params.kernel2 if n is None else params.kernel2.truncate(n)
    if n is not None:
        L = max(L, 2.0 * n + 10.0)

    nl = params.nonlinearity
    a_eff, b_eff = _effective_rates(params, sigma, k1, k2)
    ratio = nl.hp0 * nl.gp0 / (a_eff * b_eff)
    if ratio <= 1.0:
        raise ValueError(
            f"perturbed reproduction number {ratio:.4g} is not above 1; "
            "no positive far field exists"
        )
    v_far = _positive_root(a_eff, b_eff, nl)
    u_far = float(nl.H(v_far)) / a_eff

    # flux reach of the frozen far field past the grid; infinite reach means
    # infinite flux and there is no finite speed to find
    s0 = L + dx / 2.0
    try:
        t1, t2 = _far_tail_integral(k1, s0), _far_tail_integral(k2, s0)
    except MomentUndetermined:
        t1 = t2 = math.inf
    far_flux = 0.0
    if params.mu1 > 0.0:
        far_flux += params.mu1 * u_far * t1
    if params.mu2 > 0.0:
        far_flux += params.mu2 * v_far * t2
    if math.isinf(far_flux) or math.isnan(far_flux):
        raise SpeedEscape(
            "speed escape: far-field flux diverges (heavy-tailed kernel)",
            c=math.inf,
            sigma=sigma,
            n=n,
        )

    m = int(round(L / dx))
    L = m * dx
    x = -L + np.arange(m + 1) * dx
    stack = ConvolverStack((k1, k2), dx, m + 1)
    s_nodes = (np.arange(m + 1) + 0.5) * dx
    # mass beyond -L seen at node i, per species
    far = np.stack([
        u_far * np.asarray(k1.mass - k1.cdf(s_nodes)),
        v_far * np.asarray(k2.mass - k2.cdf(s_nodes)),
    ])
    # front-crossing tails for the speed quadrature (static, exact CDF)
    cross1 = np.asarray(k1.mass - k1.cdf(-x))
    cross2 = np.asarray(k2.mass - k2.cdf(-x))
    w = np.full(m + 1, dx)
    w[-1] = dx / 2.0

    def sweep_once(conv_far: np.ndarray, d: float, decay: float,
                   forcing: np.ndarray, c: float) -> np.ndarray:
        # with the convolution lagged, the transport + local part is a
        # two-term backward recurrence from the clamped front value; solving
        # it exactly keeps the sweep count independent of the grid length
        den = d + decay + c / dx
        alpha = (c / dx) / den
        rhs = (d * conv_far[:-1] + forcing) / den
        out = np.empty(m + 1)
        out[-1] = 0.0
        rev = signal.lfilter([1.0], [1.0, -alpha], rhs[::-1])
        out[:-1] = rev[::-1]
        # profiles are nonnegative; without the clamp, roundoff noise is
        # amplified exponentially across long grids at supercritical c
        np.maximum(out, 0.0, out=out)
        return out

    def relax(c: float) -> tuple[np.ndarray, int]:
        # monotone descent from the constant supersolution: the far-field
        # state maps below itself for every c, and forcing each sweep to
        # be a descent step keeps amplified roundoff from ever feeding back
        # (long grids at supercritical c amplify noise exponentially)
        pq = np.empty((2, m + 1))
        pq[0] = u_far
        pq[1] = v_far
        pq[:, -1] = 0.0
        for sweep in range(1, MAX_SWEEPS + 1):
            p, q = pq
            cp, cq = stack.apply(pq) + far
            new = np.empty_like(pq)
            np.minimum(
                sweep_once(cp, params.d1, params.a + sigma, nl.H(q[:-1]), c),
                p, out=new[0],
            )
            np.minimum(
                sweep_once(cq, params.d2, params.b + sigma, nl.G(p[:-1]), c),
                q, out=new[1],
            )
            delta = float(np.max(pq - new))
            pq = new
            if delta < RELAX_TOL:
                return pq, sweep
        raise RuntimeError(
            f"profile relaxation failed to reach {RELAX_TOL:g} in {MAX_SWEEPS} sweeps"
        )

    def flux(pq: np.ndarray) -> float:
        p, q = pq
        acc = far_flux
        if params.mu1 > 0.0:
            acc += params.mu1 * float(np.dot(w, p * cross1))
        if params.mu2 > 0.0:
            acc += params.mu2 * float(np.dot(w, q * cross2))
        return acc

    c = c0 if c0 is not None else params.mu1 * u_far + params.mu2 * v_far
    if c < 0.0:
        raise ValueError("initial speed guess must be >= 0")
    sweeps = 0
    gap = math.inf
    # secant on g(c) = F(c) - c; the damped fixed-point step c + g/2 is taken
    # on the first update, when the secant is degenerate, non-finite or
    # negative, and when it would leave the bracket where g changed sign
    prev: tuple[float, float] | None = None
    pos = neg = None  # latest c with g > 0, latest c with g < 0
    for outer in range(1, MAX_OUTER + 1):
        pq, used = relax(c)
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
        c = c + step
        if c > C_CAP:
            raise SpeedEscape(
                f"speed escape: c exceeded {C_CAP:g} after {outer} updates",
                c=c,
                sigma=sigma,
                n=n,
            )
    else:
        raise RuntimeError(
            f"speed iteration failed: |Δc|={gap:.3e} after {MAX_OUTER} updates"
        )

    prof = SemiWaveProfile(
        c=float(c),
        x=x,
        p=pq[0],
        q=pq[1],
        sigma=float(sigma),
        n=n,
        L=float(L),
        far_field=(u_far, v_far),
        residual_profile=0.0,
        residual_speed=float(gap),
        outer_iterations=outer,
        sweeps=sweeps,
    )
    return replace(prof, residual_profile=profile_residual(prof, params))


def profile_residual(
    profile: SemiWaveProfile,
    params: ModelParams,
    quadrature: str = "cells",
) -> float:
    """Sup-norm of the discrete profile equations at the converged triple.

    `quadrature="cells"` reuses the solver's exact per-cell kernel masses;
    `"trapezoid"` rebuilds the convolution from pointwise kernel values
    with trapezoid weights, an independent check that the answer is not an
    artifact of the solver's own quadrature.
    """
    k1 = params.kernel1 if profile.n is None else params.kernel1.truncate(profile.n)
    k2 = params.kernel2 if profile.n is None else params.kernel2.truncate(profile.n)
    nl = params.nonlinearity
    x, p, q = profile.x, profile.p, profile.q
    m = x.size - 1
    dx = float(x[1] - x[0])
    u_far, v_far = profile.far_field
    if quadrature == "cells":
        s_nodes = (np.arange(m + 1) + 0.5) * dx
        cp, cq = ConvolverStack((k1, k2), dx, m + 1).apply(np.stack([p, q]))
        cp += u_far * np.asarray(k1.mass - k1.cdf(s_nodes))
        cq += v_far * np.asarray(k2.mass - k2.cdf(s_nodes))
    elif quadrature == "trapezoid":
        diffs = np.subtract.outer(x, x)
        wt = np.full(m + 1, dx)
        wt[0] = wt[-1] = dx / 2.0
        cp = np.asarray(k1.pdf(np.abs(diffs))) @ (wt * p)
        cq = np.asarray(k2.pdf(np.abs(diffs))) @ (wt * q)
        # the node quadrature spans [-L, 0] exactly, so the frozen far field
        # starts at -L here (not at the cell-partition cut -L - dx/2)
        cp += u_far * np.asarray(k1.mass - k1.cdf(x + profile.L))
        cq += v_far * np.asarray(k2.mass - k2.cdf(x + profile.L))
    else:
        raise ValueError("quadrature must be 'cells' or 'trapezoid'")

    c = profile.c
    dp = (p[1:] - p[:-1]) / dx
    dq = (q[1:] - q[:-1]) / dx
    f1 = (
        params.d1 * (cp[:-1] - p[:-1])
        + c * dp
        - (params.a + profile.sigma) * p[:-1]
        + nl.H(q[:-1])
    )
    f2 = (
        params.d2 * (cq[:-1] - q[:-1])
        + c * dq
        - (params.b + profile.sigma) * q[:-1]
        + nl.G(p[:-1])
    )
    return float(max(np.max(np.abs(f1)), np.max(np.abs(f2))))


@dataclass(frozen=True)
class SpeedRow:
    sigma: float
    n: int | None
    c: float
    escaped: bool


@dataclass(frozen=True)
class SpeedTable:
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

    For thin-tailed kernels the column over n stabilizes below the
    untruncated speed; a heavy tail shows up as growth without saturation,
    flagged as acceleration when a column escapes the cap or more than
    triples across the schedule.
    """
    if not sigmas or not ns:
        raise ValueError("sigma and n schedules must be nonempty")
    rows: list[SpeedRow] = []
    accelerated = False
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
                accelerated = True
                warm = None
    for sigma in sigmas:
        col = [r.c for r in rows if r.sigma == sigma and math.isfinite(r.c)]
        if len(col) >= 2 and col[0] > 0 and col[-1] / col[0] > 3.0:
            accelerated = True
    return SpeedTable(rows=tuple(rows), accelerated=accelerated)


@dataclass(frozen=True)
class PredictedSpeed:
    c: float | None
    accelerated: bool
    profile: SemiWaveProfile | None


def predicted_speed(
    params: ModelParams,
    L: float = DEFAULT_L,
    dx: float = DEFAULT_DX,
) -> PredictedSpeed:
    """Asymptotic front speed, or the accelerated-spreading flag.

    A finite speed requires both kernels to have a finite first moment;
    otherwise the front outruns every linear-in-time bound.
    """
    fm1 = first_moment(params.kernel1)
    fm2 = first_moment(params.kernel2)
    if math.isinf(fm1) or math.isinf(fm2):
        return PredictedSpeed(c=None, accelerated=True, profile=None)
    prof = solve_semiwave(params, sigma=0.0, n=None, L=L, dx=dx)
    return PredictedSpeed(c=prof.c, accelerated=False, profile=prof)
