"""Configuration-driven scenario runner.

JSON config in, CSV/JSON artifacts out.  Every module is a subcommand, and
eight built-in presets cover the qualitative regimes end to end: spreading,
vanishing, the dichotomy searches, speed matching, accelerated fronts,
eigenvalue asymptotics, decay-rate fits, and the symmetrization mismatch
diagnostic.

Exit codes: 0 success, 2 configuration or regime validation error, 3 solver
failure, 4 classification still undecided at its horizon.  Every error path
prints a machine-readable JSON diagnostic.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import criteria, eigen, freeboundary, semiwave, steady
from .grids import default_cells
from .model import (
    Kernel,
    ModelError,
    ModelParams,
    Nonlinearity,
    initial_profile,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_UNDECIDED = 4

COMMANDS = (
    "eigen", "steady", "evolve", "simulate", "classify",
    "semiwave", "threshold", "sweep", "report",
)

_TOP_KEYS = {
    "command", "preset", "params", "numeric", "output",
    "threshold", "sweep", "report", "front_compare", "seed",
}
_PARAM_KEYS = {
    "d1", "d2", "a", "b", "mu1", "mu2", "h0",
    "kernel1", "kernel2", "nonlinearity", "u0", "v0",
}
_KERNEL_KEYS = {"family", "scale", "exponent", "points"}
_NONLINEARITY_KEYS = {"family", "alpha", "beta", "c"}
_PROFILE_KEYS = {"kind", "amplitude"}
_NUMERIC_KEYS = {
    "N", "dx", "dt", "T", "L", "l", "sigma", "n", "sigmas", "ns",
    "t_max", "sample_interval", "snapshot_times", "c0", "multi_start",
}
_OUTPUT_KEYS = {"directory", "formats", "sample_schedule"}
_THRESHOLD_KEYS = {"name", "mode", "link", "t_max", "dx"}
_LINK_KEYS = {"type", "factor"}
_SWEEP_KEYS = {"variable", "values"}
_REPORT_KEYS = {"mismatch", "decision_tree", "decay_rates"}
_MISMATCH_KEYS = {"h0_values", "num_points"}
_DECAY_KEYS = {"lengths", "horizon"}
_FRONT_COMPARE_KEYS = {"horizon", "window", "dx"}


class ConfigError(ValueError):
    """Configuration rejected before any computation ran."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _build_kernel(block: dict, where: str) -> Kernel:
    _check_keys(block, _KERNEL_KEYS, where)
    kw = {}
    if "exponent" in block:
        kw["exponent"] = float(block["exponent"])
    if "points" in block:
        kw["points"] = tuple((float(x), float(j)) for x, j in block["points"])
    return Kernel(str(block.get("family", "laplace")), float(block.get("scale", 1.0)), **kw)


def _build_nonlinearity(block: dict) -> Nonlinearity:
    _check_keys(block, _NONLINEARITY_KEYS, "params.nonlinearity")
    return Nonlinearity(
        str(block.get("family", "saturating")),
        alpha=float(block.get("alpha", 2.0)),
        beta=float(block.get("beta", 2.0)),
        c=float(block.get("c", 1.0)),
    )


def _build_profile(block: dict, h0: float, where: str):
    _check_keys(block, _PROFILE_KEYS, where)
    return initial_profile(
        str(block.get("kind", "tent")), float(block.get("amplitude", 1.0)), h0
    )


def build_params(block: dict) -> ModelParams:
    """ModelParams from the config's params block (P1 baseline defaults)."""
    _check_keys(block, _PARAM_KEYS, "params")
    h0 = float(block.get("h0", 2.0))
    return ModelParams(
        d1=float(block.get("d1", 1.0)),
        d2=float(block.get("d2", 1.0)),
        a=float(block.get("a", 1.0)),
        b=float(block.get("b", 1.0)),
        mu1=float(block.get("mu1", 1.0)),
        mu2=float(block.get("mu2", 1.0)),
        h0=h0,
        kernel1=_build_kernel(block.get("kernel1", {}), "params.kernel1"),
        kernel2=_build_kernel(block.get("kernel2", {}), "params.kernel2"),
        nonlinearity=_build_nonlinearity(block.get("nonlinearity", {})),
        u0=_build_profile(block.get("u0", {"amplitude": 1.0}), h0, "params.u0"),
        v0=_build_profile(block.get("v0", {"amplitude": 0.5}), h0, "params.v0"),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    command: str
    params: ModelParams
    numeric: dict
    output: dict
    threshold: dict | None
    sweep: dict | None
    report: dict | None
    front_compare: dict | None
    seed: int | None
    preset: str | None


def _merge_preset(cfg: dict) -> dict:
    name = cfg.get("preset")
    if name is None:
        return cfg
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    merged = copy.deepcopy(_PRESETS[name])
    for key, value in cfg.items():
        if key == "preset":
            continue
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    merged["preset"] = name
    return merged


def validate_config(cfg: dict, command: str | None = None) -> ScenarioConfig:
    """Strict-key validation of a raw config dict, presets already merged."""
    _check_keys(cfg, _TOP_KEYS, "config")
    cfg = _merge_preset(cfg)
    declared = cfg.get("command")
    if declared is not None and declared not in COMMANDS:
        raise ConfigError(f"unknown command {declared!r}; choose one of {', '.join(COMMANDS)}")
    if command is not None and declared is not None and command != declared:
        raise ConfigError(
            f"command line says {command!r} but the config declares {declared!r}"
        )
    resolved = command or declared
    if resolved is None:
        raise ConfigError("no command given on the command line or in the config")

    numeric = cfg.get("numeric", {})
    _check_keys(numeric, _NUMERIC_KEYS, "numeric")
    output = cfg.get("output", {})
    _check_keys(output, _OUTPUT_KEYS, "output")
    formats = output.get("formats", ["csv", "json"])
    bad = sorted(set(formats) - {"csv", "json"})
    if bad:
        raise ConfigError(f"unknown output formats: {', '.join(bad)}")

    threshold = cfg.get("threshold")
    if threshold is not None:
        _check_keys(threshold, _THRESHOLD_KEYS, "threshold")
        if "link" in threshold:
            _check_keys(threshold["link"], _LINK_KEYS, "threshold.link")
    sweep = cfg.get("sweep")
    if sweep is not None:
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
    report = cfg.get("report")
    if report is not None:
        _check_keys(report, _REPORT_KEYS, "report")
        if "mismatch" in report:
            _check_keys(report["mismatch"], _MISMATCH_KEYS, "report.mismatch")
        if "decay_rates" in report:
            _check_keys(report["decay_rates"], _DECAY_KEYS, "report.decay_rates")
    front_compare = cfg.get("front_compare")
    if front_compare is not None:
        _check_keys(front_compare, _FRONT_COMPARE_KEYS, "front_compare")

    seed = cfg.get("seed")
    if seed is not None:
        seed = int(seed)
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    return ScenarioConfig(
        command=resolved,
        params=build_params(cfg.get("params", {})),
        numeric=dict(numeric),
        output=dict(output),
        threshold=copy.deepcopy(threshold),
        sweep=copy.deepcopy(sweep),
        report=copy.deepcopy(report),
        front_compare=copy.deepcopy(front_compare),
        seed=seed,
        preset=cfg.get("preset"),
    )


def _require(numeric: dict, key: str, command: str) -> float:
    if key not in numeric:
        raise ConfigError(f"command {command!r} needs numeric.{key}")
    return float(numeric[key])


def _build_link(block: dict | None) -> Callable[[float], float]:
    if block is None or block.get("type", "identity") == "identity":
        return lambda s: s
    if block["type"] == "scale":
        factor = float(block.get("factor", 1.0))
        if factor <= 0:
            raise ConfigError("threshold.link.factor must be positive")
        return lambda s: factor * s
    raise ConfigError(f"unknown link type {block['type']!r}")


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _finite(obj):
    """Copy of obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    # strict JSON: NaN and Infinity are not JSON values, so they are written
    # as null (an unbounded front limit, an unmeasured mass, an escaped speed)
    text = json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


class _Sink:
    """Format-filtered artifact writer rooted at the output directory."""

    def __init__(self, out_dir: Path, formats):
        self.dir = out_dir
        self.formats = set(formats)
        self.written: list[str] = []

    def csv(self, name: str, header: str, rows) -> None:
        if "csv" in self.formats:
            _write_csv(self.dir / name, header, rows)
            self.written.append(name)

    def json(self, name: str, obj) -> None:
        if "json" in self.formats:
            _write_json(self.dir / name, obj)
            self.written.append(name)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_eigen(cfg: ScenarioConfig, sink: _Sink) -> int:
    l = _require(cfg.numeric, "l", "eigen")
    cells = int(cfg.numeric.get("N", default_cells(l)))
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(l, cfg.params, cells))
    lam2 = eigen.lambda2(l, cfg.params, num_cells=cells)
    sink.json("eigen.json", {
        "l": l, "num_cells": cells,
        "lambda1": pair.lambda_p, "lambda2": lam2,
        "iterations": pair.iterations, "residual": pair.residual,
    })
    sink.csv("eigenfunction.csv", "x,phi1,phi2",
             zip(pair.x, pair.phi1, pair.phi2))
    return EXIT_OK


def _cmd_steady(cfg: ScenarioConfig, sink: _Sink) -> int:
    l = _require(cfg.numeric, "l", "steady")
    cells = cfg.numeric.get("N")
    st = steady.solve_steady(l, cfg.params, None if cells is None else int(cells))
    sink.csv("steady_state.csv", "x,u,v", zip(st.x, st.u, st.v))
    sink.json("steady.json", {
        "l": st.l, "lambda1": st.lambda1, "residual": st.residual,
        "iterations": st.iterations, "is_zero": st.is_zero,
    })
    return EXIT_OK


def _cmd_evolve(cfg: ScenarioConfig, sink: _Sink) -> int:
    l = _require(cfg.numeric, "l", "evolve")
    horizon = _require(cfg.numeric, "T", "evolve")
    cells = cfg.numeric.get("N")
    dt = cfg.numeric.get("dt")
    trace, decay = steady.evolve_fixed(
        l, cfg.params, cfg.params.u0, cfg.params.v0, horizon,
        num_cells=None if cells is None else int(cells),
        dt=None if dt is None else float(dt),
        sample_interval=cfg.numeric.get("sample_interval"),
    )
    sink.csv("trajectory.csv", "t,norm_u,norm_v,norm_sum",
             zip(trace.t, trace.norm_u, trace.norm_v, trace.norm_sum))
    sink.csv("final_state.csv", "x,u,v", zip(trace.x, trace.u, trace.v))
    sink.json("decay.json", {
        "mode": decay.mode, "k": decay.k, "window": list(decay.window),
        "r_squared": decay.r_squared, "lambda1": decay.lambda1,
    })
    return EXIT_OK


def _snapshot_times(cfg: ScenarioConfig):
    times = cfg.numeric.get("snapshot_times")
    if times is None:
        times = cfg.output.get("sample_schedule", ())
    return tuple(float(t) for t in times)


def _cmd_simulate(cfg: ScenarioConfig, sink: _Sink) -> int:
    horizon = _require(cfg.numeric, "T", "simulate")
    dt = cfg.numeric.get("dt")
    trace = freeboundary.simulate(
        cfg.params, horizon,
        dx=float(cfg.numeric.get("dx", freeboundary.DEFAULT_DX)),
        dt=None if dt is None else float(dt),
        sample_interval=float(cfg.numeric.get("sample_interval", 1.0)),
        snapshot_times=_snapshot_times(cfg),
    )
    sink.csv("trace.csv", "t,h,sup_u,sup_v,mass",
             zip(trace.t, trace.h, trace.sup_u, trace.sup_v, trace.mass))
    if trace.snapshots:
        rows = []
        for snap in trace.snapshots:
            rows.extend(zip([snap.t] * len(snap.x), snap.x, snap.u, snap.v))
        sink.csv("snapshots.csv", "t,x,u,v", rows)
    sink.json("regime.json", criteria.decision_tree(cfg.params))
    return EXIT_OK


def _cmd_classify(cfg: ScenarioConfig, sink: _Sink) -> int:
    dt = cfg.numeric.get("dt")
    outcome = freeboundary.classify(
        cfg.params,
        t_max=float(cfg.numeric.get("t_max", freeboundary.DEFAULT_T_MAX)),
        dx=float(cfg.numeric.get("dx", freeboundary.DEFAULT_DX)),
        dt=None if dt is None else float(dt),
        sample_interval=float(cfg.numeric.get("sample_interval", 1.0)),
    )
    sink.json("outcome.json", {
        "verdict": outcome.verdict, "t_decided": outcome.t_decided,
        "horizon": outcome.horizon, "h_front": outcome.h_front,
        "lambda_front": outcome.lambda_front, "mass": outcome.mass,
        "stall_gap": outcome.stall_gap, "message": outcome.message,
    })
    return EXIT_UNDECIDED if outcome.verdict == "undecided" else EXIT_OK


def _front_compare_rows(cfg: ScenarioConfig, c_ref: float):
    block = cfg.front_compare
    horizon = float(block.get("horizon", 200.0))
    window = float(block.get("window", 25.0))
    trace = freeboundary.simulate(
        cfg.params, horizon, dx=float(block.get("dx", freeboundary.DEFAULT_DX))
    )
    rows = []
    start = 0.0
    while start + window <= horizon + 1e-9:
        i0 = int(np.argmin(np.abs(trace.t - start)))
        i1 = int(np.argmin(np.abs(trace.t - (start + window))))
        speed = (trace.h[i1] - trace.h[i0]) / (trace.t[i1] - trace.t[i0])
        rows.append((trace.t[i0], trace.t[i1], speed, c_ref))
        start += window
    return rows


def _cmd_semiwave(cfg: ScenarioConfig, sink: _Sink) -> int:
    num = cfg.numeric
    L = float(num.get("L", semiwave.DEFAULT_L))
    dx = float(num.get("dx", semiwave.DEFAULT_DX))

    if "sigmas" in num or "ns" in num:
        table = semiwave.speed_limits(
            cfg.params,
            sigmas=[float(s) for s in num.get("sigmas", [0.0])],
            ns=[int(n) for n in num.get("ns", [])],
            L=L, dx=dx,
        )
        sink.csv("convergence.csv", "sigma,n,c",
                 ((r.sigma, r.n, r.c) for r in table.rows))
        sink.json("semiwave.json", {
            "accelerated": table.accelerated,
            "rows": [{"sigma": r.sigma, "n": r.n, "c": r.c, "escaped": r.escaped}
                     for r in table.rows],
        })
        return EXIT_OK

    sigma = float(num.get("sigma", 0.0))
    n = num.get("n")
    if sigma == 0.0 and n is None:
        predicted = semiwave.predicted_speed(cfg.params, L=L, dx=dx)
        if predicted.accelerated:
            sink.json("semiwave.json", {"accelerated": True, "c": None})
            return EXIT_OK
        prof = predicted.profile
    else:
        prof = semiwave.solve_semiwave(
            cfg.params, sigma=sigma, n=None if n is None else int(n),
            L=L, dx=dx, c0=num.get("c0"),
        )
    result = {
        "accelerated": False, "c": prof.c, "sigma": prof.sigma, "n": prof.n,
        "L": prof.L, "far_field": list(prof.far_field),
        "residual_profile": prof.residual_profile,
        "residual_speed": prof.residual_speed,
        "outer_iterations": prof.outer_iterations, "sweeps": prof.sweeps,
    }
    starts = int(num.get("multi_start", 0))
    if starts > 0:
        rng = np.random.default_rng(cfg.seed or 0)
        speeds = [prof.c]
        for factor in rng.uniform(0.2, 3.0, size=starts):
            speeds.append(semiwave.solve_semiwave(
                cfg.params, sigma=sigma, n=None if n is None else int(n),
                L=L, dx=dx, c0=prof.c * float(factor),
            ).c)
        result["multi_start"] = {
            "speeds": speeds, "spread": max(speeds) - min(speeds),
        }
    sink.csv("profile.csv", "x,p,q", zip(prof.x, prof.p, prof.q))
    sink.json("semiwave.json", result)
    if cfg.front_compare is not None:
        sink.csv("front_compare.csv", "t_start,t_end,front_speed,c_tilde",
                 _front_compare_rows(cfg, prof.c))
    return EXIT_OK


def _cmd_threshold(cfg: ScenarioConfig, sink: _Sink) -> int:
    block = cfg.threshold
    if block is None or "name" not in block:
        raise ConfigError("command 'threshold' needs a threshold block with a name")
    name = block["name"]
    link = _build_link(block.get("link"))
    t_max = float(block.get("t_max", 500.0))
    dx = float(block.get("dx", freeboundary.DEFAULT_DX))
    if name == "ell_star":
        payload = criteria.find_ell_star(cfg.params).to_dict()
    elif name == "mu1_star":
        payload = criteria.find_mu_star(
            cfg.params, link, t_max=t_max, dx=dx
        ).to_dict()
    elif name == "d_thresholds":
        mode = block.get("mode")
        if mode is None:
            raise ConfigError("threshold name 'd_thresholds' needs a mode")
        payload = criteria.find_d_thresholds(cfg.params, mode, link).to_dict()
    elif name == "dichotomy":
        payload = {
            "ell_star": criteria.find_ell_star(cfg.params).to_dict(),
            "mu1_star": criteria.find_mu_star(
                cfg.params, link, t_max=t_max, dx=dx
            ).to_dict(),
        }
    else:
        raise ConfigError(
            f"unknown threshold name {name!r}; choose ell_star, mu1_star, "
            "d_thresholds, or dichotomy"
        )
    sink.json("threshold.json", payload)
    return EXIT_OK


def _cmd_sweep(cfg: ScenarioConfig, sink: _Sink) -> int:
    block = cfg.sweep
    if block is None or "variable" not in block or "values" not in block:
        raise ConfigError("command 'sweep' needs a sweep block with variable and values")
    l = float(cfg.numeric.get("l", cfg.params.h0))
    cells = cfg.numeric.get("N")
    spec = eigen.lambda1_spec(l, cfg.params, None if cells is None else int(cells))
    result = eigen.sweep(spec, str(block["variable"]),
                         [float(v) for v in block["values"]])
    sink.csv("sweep.csv", "variable,value,lambda_p,iterations,residual",
             ((p.variable, p.value, p.lambda_p, p.iterations, p.residual)
              for p in result.points))
    sink.json("sweep.json", {
        "variable": result.variable,
        "violations": list(result.violations),
        "errors": [[v, msg] for v, msg in result.errors],
    })
    return EXIT_OK


def _cmd_report(cfg: ScenarioConfig, sink: _Sink) -> int:
    block = cfg.report
    if not block:
        raise ConfigError("command 'report' needs a report block")
    summary = {}
    if "mismatch" in block:
        sub = block["mismatch"]
        h0_values = sub.get("h0_values")
        rows = freeboundary.symmetrization_mismatch(
            cfg.params,
            h0_values=None if h0_values is None else [float(v) for v in h0_values],
            num_points=int(sub.get("num_points", 20000)),
        )
        sink.csv("mismatch.csv", "h0,two_sided,one_sided,residual",
                 ((r.h0, r.two_sided, r.one_sided, r.residual) for r in rows))
        summary["mismatch"] = {
            "rows": len(rows),
            "min_residual": min(r.residual for r in rows),
        }
    if block.get("decision_tree"):
        tree = criteria.decision_tree(cfg.params)
        sink.json("regime.json", tree)
        summary["decision_tree"] = tree["verdict"]
    if "decay_rates" in block:
        sub = block["decay_rates"]
        if "lengths" not in sub:
            raise ConfigError("report.decay_rates needs lengths")
        horizon = float(sub.get("horizon", 150.0))
        rows = []
        for l in [float(v) for v in sub["lengths"]]:
            _, est = steady.evolve_fixed(
                l, cfg.params,
                initial_profile("tent", 1.0, l),
                initial_profile("tent", 0.5, l),
                horizon,
            )
            rows.append((l, est.lambda1, est.mode, est.k, est.r_squared))
        sink.csv("decay_rates.csv", "l,lambda1,mode,k,r_squared",
                 ((l, lam, mode, k, r2) for l, lam, mode, k, r2 in rows))
        summary["decay_rates"] = {"rows": len(rows)}
    if not summary:
        raise ConfigError("report block names no known section")
    sink.json("report.json", summary)
    return EXIT_OK


_HANDLERS = {
    "eigen": _cmd_eigen,
    "steady": _cmd_steady,
    "evolve": _cmd_evolve,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "semiwave": _cmd_semiwave,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _p1_params(**over) -> dict:
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


_LOG_GRID = [float(f"{v:.6g}") for v in np.logspace(-2.0, math.log10(200.0), 30)]

_PRESETS: dict[str, dict] = {
    "P1-spread": {
        "command": "simulate",
        "params": _p1_params(),
        "numeric": {"T": 100.0, "dx": 0.05, "sample_interval": 1.0,
                    "snapshot_times": [50.0, 100.0]},
    },
    "P1-vanish": {
        "command": "simulate",
        "params": _p1_params(
            a=2.0, b=2.0,
            nonlinearity={"family": "saturating", "alpha": 1.0, "beta": 1.0},
        ),
        "numeric": {"T": 80.0, "dx": 0.05, "sample_interval": 1.0},
    },
    "P1-dichotomy": {
        "command": "threshold",
        "params": _p1_params(d1=6.0, d2=6.0),
        "threshold": {"name": "dichotomy", "link": {"type": "identity"}},
    },
    "speed-match": {
        "command": "semiwave",
        "params": _p1_params(),
        "numeric": {"sigma": 0.0, "L": 60.0, "dx": 0.05},
        "front_compare": {"horizon": 200.0, "window": 25.0, "dx": 0.05},
    },
    "accelerate": {
        "command": "semiwave",
        "params": _p1_params(
            kernel1={"family": "cauchy", "scale": 1.0, "exponent": 1.3},
            kernel2={"family": "cauchy", "scale": 1.0, "exponent": 1.3},
        ),
        "numeric": {"sigmas": [0.01], "ns": [20, 40, 80, 160],
                    "L": 60.0, "dx": 0.05},
    },
    "eigen-asymptotics": {
        "command": "sweep",
        "params": _p1_params(),
        "sweep": {"variable": "l", "values": _LOG_GRID},
    },
    "decay-rates": {
        "command": "report",
        "params": _p1_params(d1=6.0, d2=6.0),
        "report": {"decay_rates": {"lengths": [1.7742, 2.18704, 4.0],
                                   "horizon": 150.0}},
    },
    "appendixA": {
        "command": "report",
        "params": _p1_params(),
        "report": {"mismatch": {"h0_values": [0.5, 1.0, 2.0, 4.0, 8.0],
                                "num_points": 20000}},
    },
}


def presets() -> list[str]:
    """Names of the built-in scenarios, in their defined order."""
    return list(_PRESETS)


def preset_config(name: str) -> dict:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    cfg = copy.deepcopy(_PRESETS[name])
    cfg["preset"] = name
    return cfg


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config_path: str | Path, command: str | None = None,
        out_dir: str | Path | None = None, seed: int | None = None) -> int:
    """Execute one scenario; returns the exit status, artifacts on disk."""
    try:
        raw = json.loads(Path(config_path).read_text())
    except FileNotFoundError as exc:
        return _fail(EXIT_CONFIG, exc)
    except json.JSONDecodeError as exc:
        return _fail(EXIT_CONFIG, exc)
    try:
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        if seed is not None:
            raw["seed"] = seed
        cfg = validate_config(raw, command)
    except (ConfigError, ModelError, ValueError) as exc:
        return _fail(EXIT_CONFIG, exc)

    target = Path(out_dir) if out_dir is not None else Path(cfg.output.get("directory", "."))
    target.mkdir(parents=True, exist_ok=True)
    sink = _Sink(target, cfg.output.get("formats", ["csv", "json"]))
    try:
        code = _HANDLERS[cfg.command](cfg, sink)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except (ModelError, ValueError) as exc:
        return _fail(EXIT_CONFIG, exc)
    except (steady.BlowUpError, freeboundary.SchemeError, semiwave.SpeedEscape,
            eigen.EigenConvergenceError, RuntimeError) as exc:
        return _fail(EXIT_SOLVER, exc)
    print(json.dumps({"status": "ok", "exit_code": code,
                      "artifacts": sink.written, "directory": str(target)}))
    return code


def _fail(code: int, exc: Exception) -> int:
    print(json.dumps({"error": {
        "type": exc.__class__.__name__,
        "message": str(exc),
        "exit_code": code,
    }}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlfront",
        description="Nonlocal front dynamics: scenario runner",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON scenario config")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    args = parser.parse_args(argv)
    return run(args.config, command=args.command, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
