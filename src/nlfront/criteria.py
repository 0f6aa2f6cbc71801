"""Threshold finders for the spreading/vanishing dichotomy.

Every regime boundary the theory provides is located here: the critical
front length, the critical front-response rate along a link mu2 = f(mu1),
and the dispersal-rate thresholds in their four regimes, plus a decision
tree that reports the verdict closed forms alone can settle.

Eigenvalue-backed thresholds are roots of a principal eigenvalue, found
like every closed-form root by `model._brentq`, and are cheap; the mu
threshold has no spectral characterization and is bracketed by verdict
bisection over full simulations, so it is the only expensive search.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import eigen, freeboundary
from .grids import default_cells
from .model import ModelParams, _brentq, derived_constants

WIDTH_FRAC = 1e-4          # bracket width <= WIDTH_FRAC * max(1, value)
MU_BOUNDS = (1e-4, 1e3)    # search limits for the front-response threshold
MU_MAX_ITERS = 20

THRESHOLD_NAMES = ("ell_star", "mu1_star", "d1_star", "d1_hat", "d1_tilde", "d2_under")
D_MODES = ("linked", "fixed_d2_small", "fixed_d2_mid", "fixed_d2_large")


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    """A located regime boundary with its bracket and flip certificate."""

    name: str
    value: float
    bracket: tuple[float, float]
    certificate: dict

    def __post_init__(self):
        if self.name not in THRESHOLD_NAMES:
            raise ValueError(f"unknown threshold name {self.name!r}")
        lo, hi = self.bracket
        if not (lo <= self.value <= hi):
            raise ValueError("threshold value must lie inside its bracket")

    @property
    def width_ok(self) -> bool:
        lo, hi = self.bracket
        return (hi - lo) <= WIDTH_FRAC * max(1.0, abs(self.value))

    def to_dict(self) -> dict:
        return {**asdict(self), "bracket": list(self.bracket), "width_ok": self.width_ok}


@dataclass(frozen=True)
class DThresholdReport:
    """Outcome of a dispersal-rate threshold search in one regime mode."""

    mode: str
    thresholds: tuple[ThresholdResult, ...]
    extras: dict
    note: str
    samples: tuple[tuple[float, float], ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "thresholds": [t.to_dict() for t in self.thresholds]}


# ---------------------------------------------------------------------------
# elementary searches
# ---------------------------------------------------------------------------

def _validate_link(link: Callable[[float], float] | None) -> Callable[[float], float]:
    """The link, or the identity when None, checked to fix 0 and increase."""
    if link is None:
        return lambda s: s
    if abs(float(link(0.0))) > 0.0:
        raise ValueError("link must map 0 to 0")
    probes = [float(link(s)) for s in (0.5, 1.0, 2.0)]
    if not (0.0 < probes[0] < probes[1] < probes[2]):
        raise ValueError("link must be strictly increasing and positive")
    return link


# ---------------------------------------------------------------------------
# critical front length
# ---------------------------------------------------------------------------

def find_ell_star(params: ModelParams) -> ThresholdResult:
    """Critical initial length: the root of the principal eigenvalue in l.

    ``below`` and ``above`` in the certificate are lambda1 at the ends of
    the final bracket, and ``bracket_enclosures`` enclose it there.  Only
    defined in the squeeze regime (Rstar < 1 < R0); outside it the
    eigenvalue has one sign for every length and the search refuses to run.
    """
    cons = derived_constants(params)
    if cons.Rstar >= 1.0:
        raise ValueError("no threshold, spreading for all h0")
    if cons.R0 <= 1.0:
        raise ValueError("no threshold, vanishing")
    crit = eigen.critical_length(params, lam_tol=5e-7)
    cert = {
        "kind": "eigenvalue",
        "quantity": "lambda1(l)",
        "at_value": crit.lam_at_value,
        "bracket_enclosures": crit.bracket_enclosures,
        "below": crit.bracket_lambdas[0],
        "above": crit.bracket_lambdas[1],
        "num_cells": crit.num_cells,
    }
    return ThresholdResult("ell_star", crit.value, crit.bracket, cert)


# ---------------------------------------------------------------------------
# front-response threshold (simulation-backed)
# ---------------------------------------------------------------------------

def _with_mu(params: ModelParams, mu1: float, link: Callable[[float], float]) -> ModelParams:
    return replace(params, mu1=mu1, mu2=float(link(mu1)))


def _seed_mu_lower(params: ModelParams, ell: float, link: Callable[[float], float]) -> float:
    """Constructive lower bound on the response sum that forces retreat.

    The comparison barrier `freeboundary._barrier` over the initial data:
    with eps keeping h1 = h0(1+eps) below the critical length, decay rate
    delta from the (negative) eigenvalue there, M scaling the eigenfunction
    over the initial data and m(h1) = max_r ∫_0^h1 T_r bounding the kernel
    mass a field below M can send past the front (T_r the mass beyond a
    distance), any mu1 + mu2 below eps*delta*h0 / (M*m(h1)) keeps the
    front trapped.  M is taken at least 1, which only lowers the seed.
    """
    bar = freeboundary._barrier(params, params.h0, ell, None, params.u0, params.v0,
                                m_floor=1.0)
    if bar is None:
        raise RuntimeError("barrier construction needs a negative eigenvalue above h0")
    mu_sum = bar.bound
    if float(link(mu_sum)) <= 0.0:
        raise ValueError("link must be positive on positive inputs")
    # split the sum bound along the link: largest mu1 with mu1 + f(mu1) <= bound
    return _brentq(lambda m: m + float(link(m)) - mu_sum, 0.0, mu_sum, xtol=1e-13)[0]


def find_mu_star(params: ModelParams, link: Callable[[float], float] | None = None,
                 *, t_max: float = freeboundary.DEFAULT_T_MAX,
                 dx: float = freeboundary.DEFAULT_DX,
                 ell: ThresholdResult | None = None) -> ThresholdResult:
    """Critical front response along mu2 = link(mu1), by verdict bisection.

    Requires h0 below the critical length (otherwise spreading happens for
    every positive response and no threshold exists).  Classification runs
    are the only oracle; probes that stay undecided at t_max stop the
    shrink and leave the honest, wider bracket in the result.  The
    certificate lists every classification run in ``probes``, in order.

    ``below``, ``above``, ``t_decided``, ``certificates`` and ``barriers``
    describe the certified verdicts at the bracket ends lo (vanishing) and
    hi (spreading), and no probe runs after the search.  They settle every
    mu1 outside the bracket: by the comparison principle the solution,
    front included, is monotone in the response rates (arXiv 2405.04268,
    after Cao, Du, Li and Li, J. Funct. Anal. 2019), and the link
    increases, so every mu1 <= lo vanishes and every mu1 >= hi spreads.

    ``ell`` is ``find_ell_star(params)`` when the caller has it already;
    None locates it here.
    """
    link = _validate_link(link)
    if ell is None:
        ell = find_ell_star(params)
    if params.h0 >= ell.value:
        raise ValueError(
            "threshold undefined: h0 at or above the critical length, "
            "spreading for every positive front response"
        )

    probes: list[dict] = []
    # lambda1 does not depend on mu, so every probe shares one watch length
    watch = freeboundary._watch_length(params)

    def verdict(mu1: float) -> freeboundary.Outcome:
        probe = _with_mu(params, mu1, link)
        out = freeboundary.classify(probe, t_max, dx, watch=watch)
        probes.append({"mu1": mu1, "verdict": out.verdict,
                       "t_decided": out.t_decided, "certificate": out.certificate})
        return out

    lo = max(MU_BOUNDS[0], _seed_mu_lower(params, ell.value, link))
    out_lo = verdict(lo)
    while out_lo.verdict != "vanishing":
        if lo <= MU_BOUNDS[0]:
            raise RuntimeError(
                "bracket failure: no vanishing verdict down to the lower search "
                f"bound {MU_BOUNDS[0]:g} (last verdict {out_lo.verdict!r} at "
                f"mu1={lo:g}: {out_lo.message})"
            )
        lo = max(MU_BOUNDS[0], lo / 4.0)
        out_lo = verdict(lo)

    hi = max(1.0, 4.0 * lo)
    out_hi = verdict(hi)
    while out_hi.verdict != "spreading":
        hi *= 2.0
        if hi > MU_BOUNDS[1]:
            raise RuntimeError(
                "bracket failure: no spreading verdict up to the upper search "
                f"bound {MU_BOUNDS[1]:g} (last verdict {out_hi.verdict!r} at "
                f"mu1={hi / 2.0:g}: {out_hi.message})"
            )
        out_hi = verdict(hi)

    undecided = None
    for _ in range(MU_MAX_ITERS):
        if (hi - lo) <= WIDTH_FRAC * max(1.0, 0.5 * (lo + hi)):
            break
        mid = 0.5 * (lo + hi)
        out = verdict(mid)
        if out.verdict == "spreading":
            hi, out_hi = mid, out
        elif out.verdict == "vanishing":
            lo, out_lo = mid, out
        else:
            undecided = mid
            break

    ends = (out_lo, out_hi)
    cert = {
        "kind": "verdicts",
        "below": out_lo.verdict,
        "above": out_hi.verdict,
        "t_decided": tuple(out.t_decided for out in ends),
        "certificates": tuple(out.certificate for out in ends),
        "barriers": tuple(None if out.barrier is None else asdict(out.barrier)
                          for out in ends),
        "probes": probes,
        "t_max": t_max,
    }
    if undecided is not None:
        cert["undecided_at"] = undecided
    return ThresholdResult("mu1_star", 0.5 * (lo + hi), (lo, hi), cert)


# ---------------------------------------------------------------------------
# dispersal-rate thresholds
# ---------------------------------------------------------------------------

def nu1(d2: float, params: ModelParams, h0: float | None = None) -> float:
    """Small-d1 limit of the principal eigenvalue, as a function of d2.

    Closed form through the scalar leakage eigenvalue kappa1 of the second
    kernel on [0, h0]; strictly decreasing in d2 with limit -a.
    """
    if d2 <= 0:
        raise ValueError("d2 must be positive")
    l = params.h0 if h0 is None else h0
    kappa = eigen.scalar_principal(1.0, 0.0, params.kernel2, l)
    return _nu1_from_kappa(d2, kappa, params)


def _nu1_from_kappa(d2: float, kappa: float, params: ModelParams) -> float:
    """Larger root of nu^2 + s nu + c = 0, s = a + b - d2 kappa,
    c = a (b - d2 kappa) - H'(0) G'(0), as -2c / (s + sqrt(s^2 - 4c)):
    kappa < 0 makes s > 0, so the form does not cancel, and c, whose two
    terms cancel at the root, is rounded once from exact rationals.  In
    floats c is a multiple of about 4e-16 there and exactly 0 at an
    interpolated root, which stopped the d2 search with a wide bracket."""
    a, b = params.a, params.b
    nl = params.nonlinearity
    s = a + b - d2 * kappa
    c = float(Fraction(a) * (Fraction(b) - Fraction(d2) * Fraction(kappa))
              - Fraction(nl.hp0) * Fraction(nl.gp0))
    return -2.0 * c / (s + math.sqrt(s * s - 4.0 * c))


def _rstar(d1: float, d2: float, params: ModelParams) -> float:
    nl = params.nonlinearity
    return nl.hp0 * nl.gp0 / ((params.a + d1 / 2.0) * (params.b + d2 / 2.0))


def _reproduction_root(params: ModelParams, d2_of: Callable[[float], float]) -> float:
    """Unique d1 with perturbed reproduction ratio exactly 1 (R0 > 1 assumed)."""
    g = lambda d: _rstar(d, float(d2_of(d)), params) - 1.0
    hi = 1.0
    while g(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("reproduction ratio failed to cross 1")
    return _brentq(g, 0.0, hi, xtol=1e-13)[0]


def _lambda2_pair(params: ModelParams, d1: float, d2: float) -> eigen.Eigenpair:
    spec = eigen.lambda2_spec(params.h0, replace(params, d1=d1, d2=d2), default_cells(params.h0))
    return eigen.principal_eigenpair(spec)


def _d1_eigen_threshold(params: ModelParams, name: str, lo: float,
                        d2_of: Callable[[float], float],
                        lo_pair: eigen.Eigenpair | None = None) -> ThresholdResult:
    """Root in d1 of the slope-normalized eigenvalue at fixed length h0;
    ``lo_pair`` is its eigenpair at d1 = lo when the caller holds it."""
    enclosures = {}

    def lam2(d1: float, pair: eigen.Eigenpair | None = None) -> float:
        pair = pair or _lambda2_pair(params, d1, float(d2_of(d1)))
        enclosures[d1] = pair.enclosure
        return pair.lambda_p

    f_lo = lam2(lo, lo_pair)
    if f_lo <= 0.0:
        raise RuntimeError(
            f"no positive eigenvalue at the lower end d1={lo:g}; threshold {name} undefined"
        )
    hi = max(1.0, 2.0 * lo)
    while (f_hi := lam2(hi)) >= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("eigenvalue failed to turn negative at large d1")
    value, f_mid, bracket, f_lo, f_hi = _brentq(lam2, lo, hi, eigen.ROOT_XTOL,
                                                fa=f_lo, fb=f_hi)
    if abs(f_mid) > eigen.SIGN_BAND:
        raise RuntimeError(
            f"threshold certificate out of tolerance: |lambda2| = {abs(f_mid):.3e}"
        )
    cert = {
        "kind": "eigenvalue",
        "quantity": "lambda2(h0, d1)",
        "at_value": f_mid,
        "below": f_lo,
        "above": f_hi,
        "bracket_enclosures": (enclosures[bracket[0]], enclosures[bracket[1]]),
        "num_cells": default_cells(params.h0),
    }
    return ThresholdResult(name, value, bracket, cert)


def _d2_under_threshold(params: ModelParams, kappa: float, Lam: float) -> ThresholdResult:
    """Root of the small-d1 eigenvalue limit in d2, above Lambda."""
    g = lambda d2: _nu1_from_kappa(d2, kappa, params)
    if g(Lam) <= 0.0:
        raise RuntimeError("expected a positive small-d1 limit at d2 = Lambda")
    hi = 2.0 * max(Lam, 1.0)
    while g(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("small-d1 eigenvalue limit failed to turn negative")
    root, g_root, bracket, g_lo, g_hi = _brentq(g, Lam, hi, xtol=1e-13)
    cert = {
        "kind": "eigenvalue",
        "quantity": "nu1(d2)",
        "at_value": g_root,
        "below": g_lo,
        "above": g_hi,
        "kappa1": kappa,
    }
    return ThresholdResult("d2_under", root, bracket, cert)


_ROOT_NOTE = "spreading up to the eigenvalue root; beyond it the front response rates decide"


def _d1_root_report(params: ModelParams, mode: str, name: str, Lam: float,
                    d2_of: Callable[[float], float]) -> DThresholdReport:
    """Reproduction boundary in d1 along d2 = d2_of(d1), then the eigenvalue root above it."""
    d1_repro = _reproduction_root(params, d2_of)
    root = _d1_eigen_threshold(params, name, d1_repro, d2_of)
    return DThresholdReport(mode=mode, thresholds=(root,),
                            extras={"d1_reproduction": d1_repro, "Lambda": Lam},
                            note=_ROOT_NOTE)


def find_d_thresholds(params: ModelParams, mode: str,
                      link: Callable[[float], float] | None = None) -> DThresholdReport:
    """Dispersal-rate thresholds in one of the four regime modes.

    linked: d2 = link(d1); locate the reproduction boundary in d1, then the
    eigenvalue root above it.  fixed_d2_small / _mid / _large: d2 is taken
    from params and must sit in the regime the mode names (below Lambda,
    between Lambda and the root of the small-d1 limit, or above that root);
    a mismatch raises an error naming the correct mode.
    """
    if mode not in D_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {D_MODES}")
    cons = derived_constants(params)
    if cons.R0 <= 1.0:
        raise ValueError("dispersal thresholds need reproduction ratio above 1")
    Lam = cons.Lambda
    if mode == "linked":
        return _d1_root_report(params, mode, "d1_star", Lam, _validate_link(link))
    d2 = params.d2
    if mode == "fixed_d2_small" and d2 < Lam:
        return _d1_root_report(params, mode, "d1_hat", Lam, lambda _d: d2)

    # every other fixed-mode outcome, a mismatch included, needs d2_under
    kappa = eigen.principal_eigenpair(eigen.scalar_spec(1.0, 0.0, params.kernel2, params.h0))
    under = _d2_under_threshold(params, kappa.lambda_p, Lam)
    regime = ("fixed_d2_small" if d2 < Lam
              else "fixed_d2_mid" if d2 < under.value else "fixed_d2_large")
    if mode != regime:
        needs = {"fixed_d2_small": f"d2 < {Lam:.6g}",
                 "fixed_d2_mid": f"{Lam:.6g} <= d2 < {under.value:.6g}",
                 "fixed_d2_large": f"d2 >= {under.value:.6g}"}[mode]
        raise ValueError(f"mode {mode} needs {needs}, got d2 = {d2:g}; use {regime}")
    extras = {"Lambda": Lam, "kappa1": kappa.lambda_p, "kappa1_enclosure": kappa.enclosure}
    if mode == "fixed_d2_mid":
        lo = 1e-3
        while (lo_pair := _lambda2_pair(params, lo, d2)).lambda_p <= 0.0:
            lo /= 10.0
            if lo < 1e-8:
                raise RuntimeError("no positive eigenvalue at small d1")
        tilde = _d1_eigen_threshold(params, "d1_tilde", lo, lambda _d: d2, lo_pair)
        return DThresholdReport(mode=mode, thresholds=(under, tilde), extras=extras,
                                note=_ROOT_NOTE)
    samples = tuple(
        (d1, eigen.lambda1(params.h0, replace(params, d1=d1)))
        for d1 in (0.01, 1.0, 100.0)
    )
    return DThresholdReport(
        mode=mode,
        thresholds=(under,),
        extras=extras,
        note="eigenvalue negative for all d1; outcome governed by the front "
             "response rates",
        samples=samples,
    )


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def _front_bound(params: ModelParams) -> dict:
    """Closed-form ceiling on the front position in the subcritical regime.

    The initial weighted mass (integral of u0 + (H'(0)/b) v0 on [0, h0]) is
    taken by the midpoint rule on 20000 cells.
    """
    dx = params.h0 / 20000
    x = (np.arange(20000) + 0.5) * dx
    u0 = np.asarray(params.u0(x), dtype=float)
    v0 = np.asarray(params.v0(x), dtype=float)
    mass0 = float(np.sum(u0 + params.nonlinearity.hp0 / params.b * v0) * dx)
    return {"kind": "front_bound", "mass_initial": mass0,
            "h_limit": freeboundary._mass_front_bound(params, mass0)}


def decision_tree(params: ModelParams) -> dict:
    """Regime report from closed forms and eigenvalue signs alone.

    Deterministic and total: every valid parameter set maps to a verdict
    of vanishing, spreading, or mu_dependent, with the certificates the
    verdict rests on.  No time-stepping is run.
    """
    cons = derived_constants(params)
    report: dict = {
        "verdict": None,
        "R0": float(cons.R0),
        "Rstar": float(cons.Rstar),
        "gammaA": float(cons.gammaA),
        "gammaB": float(cons.gammaB),
        "thresholds": [],
        "certificates": [],
    }
    if cons.R0 <= 1.0:
        report["verdict"] = "vanishing"
        report["certificates"].append(_front_bound(params))
        return report
    if cons.Rstar >= 1.0:
        report["verdict"] = "spreading"
        report["certificates"].append(
            {"kind": "reproduction", "Rstar": float(cons.Rstar),
             "gammaB": float(cons.gammaB)}
        )
        return report
    ell = find_ell_star(params)
    report["ell_star"] = float(ell.value)
    report["thresholds"].append(ell.to_dict())
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(params.h0, params))
    report["certificates"].append({"kind": "eigenvalue", "quantity": "lambda1(h0)",
                                   "value": pair.lambda_p, "enclosure": pair.enclosure})
    report["verdict"] = "spreading" if pair.lambda_p >= 0.0 else "mu_dependent"
    return report
