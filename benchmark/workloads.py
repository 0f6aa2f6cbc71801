"""Seeded scenario generator and answer checks for the three workloads.

A workload is an ordered list of scenarios; each scenario is one nlfront
config, run through ``nlfront.cli.run``, plus a check of the artifacts it
writes.  Seed 0 gives the preset parameters verbatim.  Other seeds jitter
rates, lengths and initial amplitudes by up to 1%, inside the regime each
scenario is meant to exercise; ``assert_regime`` verifies that regime before
anything is timed.

Generating configs needs only the standard library.  Regime asserts and
checks import nlfront and run outside every timed region.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# The eigen-asymptotics preset's 30-point log grid on [0.01, 200]; the
# workload sweeps 8 of its lengths: both ends, the small lengths where power
# iteration runs out its budget, and the Arnoldi sizes above l = 30.
_LOG_GRID = [
    0.01, 0.0140706, 0.0197981, 0.027857, 0.0391963, 0.0551514, 0.0776012,
    0.109189, 0.153635, 0.216173, 0.304168, 0.427982, 0.602194, 0.847321,
    1.19223, 1.67753, 2.36038, 3.32119, 4.6731, 6.57531, 9.25183, 13.0178,
    18.3168, 25.7728, 36.2638, 51.0252, 71.7953, 101.02, 142.141, 200.0,
]
SWEEP_LENGTHS = [_LOG_GRID[i] for i in (0, 6, 12, 18, 21, 24, 27, 29)]

MU_VANISH = 0.02   # well below mu1* ~ 0.11 of P1-dichotomy
MU_SPREAD = 0.25   # well above it
SIGN_TOL = 1e-6
SWEEP_TOL = 0.01   # |lambda(200) - gammaA| and |lambda(0.01) - gammaB|


@dataclass
class Scenario:
    name: str
    config: dict
    check: Callable[[Path, dict], list[str]]
    regime: Callable[[object], list[str]]


def p1_params(**over) -> dict:
    """The presets' P1 parameter block, with fields replaced."""
    block = {
        "d1": 1.0, "d2": 1.0, "a": 1.0, "b": 1.0,
        "mu1": 1.0, "mu2": 1.0, "h0": 2.0,
        "kernel1": {"family": "laplace", "scale": 1.0},
        "kernel2": {"family": "laplace", "scale": 1.0},
        "nonlinearity": {"family": "saturating", "alpha": 2.0, "beta": 2.0},
        "u0": {"kind": "tent", "amplitude": 1.0},
        "v0": {"kind": "tent", "amplitude": 0.5},
    }
    block.update(over)
    return block


class _Jitter:
    """Multiplicative jitter; the identity for seed 0."""

    def __init__(self, workload: str, seed: int):
        self.active = seed != 0
        self.rng = random.Random(f"{workload}/{seed}")

    def __call__(self, value: float, lo: float, hi: float) -> float:
        if not self.active:
            return value
        return float(f"{value * (1.0 + self.rng.uniform(lo, hi)):.6g}")

    def profiles(self) -> dict:
        return {"u0": {"kind": "tent", "amplitude": self(1.0, -0.01, 0.01)},
                "v0": {"kind": "tent", "amplitude": self(0.5, -0.01, 0.01)}}


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _rows(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _params(config: dict):
    from nlfront.cli import build_params
    return build_params(config["params"])


# ---------------------------------------------------------------------------
# regime asserts (run on the built ModelParams before timing)
# ---------------------------------------------------------------------------

def _squeeze(params) -> list[str]:
    """Rstar < 1 < R0 and h0 below the critical length (lambda1(h0) < 0)."""
    from nlfront import eigen
    from nlfront.model import derived_constants
    cons = derived_constants(params)
    bad = []
    if not cons.Rstar < 1.0 < cons.R0:
        bad.append(f"need Rstar < 1 < R0, got {cons.Rstar:.4g}, {cons.R0:.4g}")
    elif eigen.lambda1(params.h0, params) >= 0.0:
        bad.append("need h0 below the critical length")
    return bad


def _spreading(params) -> list[str]:
    from nlfront.model import derived_constants
    cons = derived_constants(params)
    return [] if cons.Rstar > 1.0 else [f"need Rstar > 1, got {cons.Rstar:.4g}"]


def _dying(params) -> list[str]:
    from nlfront.model import derived_constants
    cons = derived_constants(params)
    return [] if cons.R0 < 1.0 else [f"need R0 < 1, got {cons.R0:.4g}"]


def _heavy_tail(params) -> list[str]:
    from nlfront.model import first_moment
    bad = _spreading(params)
    if math.isfinite(first_moment(params.kernel1)):
        bad.append("need a kernel with infinite first moment")
    return bad


# ---------------------------------------------------------------------------
# answer checks: (artifact dir, config) -> problems
# ---------------------------------------------------------------------------

def _certified(res: dict, what: str) -> list[str]:
    bad = []
    at = res["certificate"]["at_value"]
    if not abs(at) < SIGN_TOL:
        bad.append(f"{what} certificate |lambda| = {abs(at):.3e}")
    if not res["width_ok"]:
        bad.append(f"{what} bracket too wide: {res['bracket']}")
    return bad


def check_ell_star(out: Path, config: dict) -> list[str]:
    return _certified(_json(out, "threshold.json"), "ell*")


def check_d_star(out: Path, config: dict) -> list[str]:
    (star,) = _json(out, "threshold.json")["thresholds"]
    return _certified(star, "d1*")


def _verdict(expected: str) -> Callable[[Path, dict], list[str]]:
    def check(out: Path, config: dict) -> list[str]:
        got = _json(out, "outcome.json")["verdict"]
        return [] if got == expected else [f"verdict {got!r}, expected {expected!r}"]
    return check


def check_sweep(out: Path, config: dict) -> list[str]:
    from nlfront.model import derived_constants
    summary = _json(out, "sweep.json")
    bad = [f"violation: {v}" for v in summary["violations"]]
    bad += [f"error at l={v}: {msg}" for v, msg in summary["errors"]]
    lam = {float(r["value"]): float(r["lambda_p"]) for r in _rows(out, "sweep.csv")}
    cons = derived_constants(_params(config))
    # the limits are met to within 0.003 at these lengths
    for l, limit, name in ((200.0, cons.gammaA, "gammaA"), (0.01, cons.gammaB, "gammaB")):
        if l not in lam or not abs(lam[l] - limit) < SWEEP_TOL:
            bad.append(f"lambda({l:g}) = {lam.get(l)} not within {SWEEP_TOL} of {name} = {limit:.6g}")
    return bad


def check_decay(out: Path, config: dict) -> list[str]:
    """The fitted decay rate k of exp(-k t) against -lambda1 where lambda1 < -0.05."""
    rows = [r for r in _rows(out, "decay_rates.csv") if float(r["lambda1"]) < -0.05]
    if not rows:
        return ["no length with lambda1 < -0.05 to check a decay rate on"]
    bad = []
    for r in rows:
        rate = -float(r["lambda1"])
        if not abs(float(r["k"]) - rate) < 0.1 * rate:
            bad.append(f"l={r['l']}: decay rate {r['k']} not within 10% of {rate:.4g}")
    return bad


def check_steady(out: Path, config: dict) -> list[str]:
    st = _json(out, "steady.json")
    bad = [] if st["residual"] < 1e-9 else [f"steady residual {st['residual']:.3e}"]
    if st["is_zero"]:
        bad.append("steady state is zero")
    return bad


def check_spread(out: Path, config: dict) -> list[str]:
    from nlfront.model import equilibrium
    rows = _rows(out, "trace.csv")
    u_eq, v_eq = equilibrium(_params(config))
    last = rows[-1]
    bad = []
    if not float(last["h"]) > float(rows[0]["h"]):
        bad.append("front did not advance")
    for key, eq in (("sup_u", u_eq), ("sup_v", v_eq)):
        if not abs(float(last[key]) - eq) < 0.01 * eq:
            bad.append(f"{key} = {last[key]} not within 1% of equilibrium {eq:.6g}")
    return bad


def check_vanish(out: Path, config: dict) -> list[str]:
    from nlfront.freeboundary import front_mass_bound
    rows = _rows(out, "trace.csv")
    bound = front_mass_bound(SimpleNamespace(mass=[float(rows[0]["mass"])]), _params(config))
    top = max(float(r["h"]) for r in rows)
    bad = [] if top <= bound else [f"front {top:.6g} above its mass bound {bound:.6g}"]
    if _json(out, "regime.json")["verdict"] != "vanishing":
        bad.append("decision tree did not report vanishing")
    return bad


def check_speed(out: Path, config: dict) -> list[str]:
    c = _json(out, "semiwave.json")["c"]
    late = [float(r["front_speed"]) for r in _rows(out, "front_compare.csv")
            if float(r["t_start"]) >= 150.0 - 1e-6]
    if not late:
        return ["no front speed samples after t = 150"]
    observed = sum(late) / len(late)
    return [] if abs(observed - c) < 0.05 * c else [
        f"observed speed {observed:.6g} not within 5% of semi-wave c {c:.6g}"]


def check_accelerate(out: Path, config: dict) -> list[str]:
    return [] if _json(out, "semiwave.json")["accelerated"] else ["acceleration not flagged"]


def check_mismatch(out: Path, config: dict) -> list[str]:
    rows = _rows(out, "mismatch.csv")
    bad = [r["h0"] for r in rows if not float(r["residual"]) > 0.0]
    return [f"mismatch not positive at h0 = {', '.join(bad)}"] if bad else []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _threshold_search(j: _Jitter) -> list[Scenario]:
    d = j(6.0, 0.0, 0.01)
    base = p1_params(d1=d, d2=d, h0=j(2.0, -0.01, 0.01), **j.profiles())
    mu_lo, mu_hi = j(MU_VANISH, -0.01, 0.01), j(MU_SPREAD, -0.01, 0.01)
    return [
        Scenario("ell_star", {"command": "threshold", "params": base,
                              "threshold": {"name": "ell_star"}},
                 check_ell_star, _squeeze),
        Scenario("d1_star", {"command": "threshold", "params": base,
                             "threshold": {"name": "d_thresholds", "mode": "linked",
                                           "link": {"type": "identity"}}},
                 check_d_star, _squeeze),
        Scenario("probe_vanish", {"command": "classify",
                                  "params": {**base, "mu1": mu_lo, "mu2": mu_lo}},
                 _verdict("vanishing"), _squeeze),
        Scenario("probe_spread", {"command": "classify",
                                  "params": {**base, "mu1": mu_hi, "mu2": mu_hi}},
                 _verdict("spreading"), _squeeze),
    ]


def _fixed_habitat(j: _Jitter) -> list[Scenario]:
    d1 = j(1.0, -0.01, 0.01)
    p1 = p1_params(d1=d1, d2=d1)
    d6 = j(6.0, 0.0, 0.01)
    return [
        Scenario("eigen-asymptotics", {"command": "sweep", "params": p1,
                                       "sweep": {"variable": "l", "values": SWEEP_LENGTHS}},
                 check_sweep, _spreading),
        Scenario("decay-rates", {"command": "report", "params": p1_params(d1=d6, d2=d6),
                                 "report": {"decay_rates": {"lengths": [1.7742, 2.18704, 4.0],
                                                            "horizon": 150.0}}},
                 check_decay, _squeeze),
        Scenario("steady-10", {"command": "steady", "params": p1, "numeric": {"l": 10.0}},
                 check_steady, _spreading),
        Scenario("steady-100", {"command": "steady", "params": p1, "numeric": {"l": 100.0}},
                 check_steady, _spreading),
    ]


def _front_dynamics(j: _Jitter) -> list[Scenario]:
    d = j(1.0, -0.01, 0.01)
    p1 = p1_params(d1=d, d2=d, **j.profiles())
    ab = j(2.0, -0.01, 0.01)
    cauchy = {"family": "cauchy", "scale": 1.0, "exponent": 1.3}
    return [
        Scenario("P1-spread", {"command": "simulate", "params": p1,
                               "numeric": {"T": 100.0, "dx": 0.05, "sample_interval": 1.0,
                                           "snapshot_times": [50.0, 100.0]}},
                 check_spread, _spreading),
        Scenario("P1-vanish", {"command": "simulate",
                               "params": p1_params(a=ab, b=ab, nonlinearity={
                                   "family": "saturating", "alpha": 1.0, "beta": 1.0}),
                               "numeric": {"T": 80.0, "dx": 0.05, "sample_interval": 1.0}},
                 check_vanish, _dying),
        Scenario("speed-match", {"command": "semiwave", "params": p1,
                                 "numeric": {"sigma": 0.0, "L": 60.0, "dx": 0.05},
                                 "front_compare": {"horizon": 200.0, "window": 25.0,
                                                   "dx": 0.05}},
                 check_speed, _spreading),
        Scenario("accelerate", {"command": "semiwave",
                                "params": p1_params(d1=d, d2=d, kernel1=cauchy,
                                                    kernel2=dict(cauchy)),
                                "numeric": {"sigmas": [0.01], "ns": [20, 40, 80, 160],
                                            "L": 60.0, "dx": 0.05}},
                 check_accelerate, _heavy_tail),
        Scenario("appendixA", {"command": "report", "params": p1,
                               "report": {"mismatch": {"h0_values": [0.5, 1.0, 2.0, 4.0, 8.0],
                                                       "num_points": 20000}}},
                 check_mismatch, _spreading),
    ]


_BUILDERS = {
    "threshold-search": _threshold_search,
    "fixed-habitat": _fixed_habitat,
    "front-dynamics": _front_dynamics,
}


def generate(workload: str, seed: int) -> list[Scenario]:
    """The workload's scenarios for one seed (seed 0: preset parameters)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(_BUILDERS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _BUILDERS[workload](_Jitter(workload, seed))


def assert_regime(scenarios: list[Scenario]) -> None:
    """Raise if a jittered scenario left the regime it is meant to exercise."""
    for sc in scenarios:
        bad = sc.regime(_params(sc.config))
        if bad:
            raise ValueError(f"scenario {sc.name} left its regime: {'; '.join(bad)}")
