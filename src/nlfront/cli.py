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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import criteria, eigen, freeboundary, semiwave, steady
from .model import Kernel, ModelParams, Nonlinearity, initial_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_UNDECIDED = 4


class ConfigError(ValueError):
    """Configuration rejected before any computation ran."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _list_of(cast: Callable) -> Callable[[object], list]:
    def typed(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"expected a JSON list, got {value!r}")
        return [cast(v) for v in value]
    return typed


def _integer(value) -> int:
    """int(value), refusing a number with a fractional part: 200 and 200.0
    mean 200, and 200.7 is no cell count."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_floats = _list_of(float)


def _points(value) -> tuple:
    return tuple((x, j) for x, j in _list_of(_floats)(value))


# every config key: the function that types its value, or a nested block's table
_KERNEL = {"family": _string, "scale": float, "exponent": float, "points": _points}
_PROFILE = {"kind": _string, "amplitude": float}
_SCHEMA: dict = {
    "command": _string, "preset": _string,
    "params": {
        "d1": float, "d2": float, "a": float, "b": float,
        "mu1": float, "mu2": float, "h0": float,
        "kernel1": _KERNEL, "kernel2": _KERNEL,
        "nonlinearity": {"family": _string, "alpha": float, "beta": float, "c": float},
        "u0": _PROFILE, "v0": _PROFILE,
    },
    "numeric": {
        "N": _integer, "dx": float, "dt": float, "T": float, "L": float, "l": float,
        "sigma": float, "n": _integer, "sigmas": _floats, "ns": _list_of(_integer),
        "t_max": float, "sample_interval": float, "snapshot_times": _floats,
        "c0": float,
    },
    "output": {"directory": _string},
    "threshold": {"name": _string, "mode": _string, "t_max": float, "dx": float,
                  "link": {"type": _string, "factor": float}},
    "sweep": {"variable": _string, "values": _floats},
    "report": {
        "mismatch": {"h0_values": _floats, "num_points": _integer},
        "decision_tree": _flag,
        "decay_rates": {"lengths": _floats, "horizon": float},
    },
    "front_compare": {"horizon": float, "window": float, "dx": float},
}


def _typed(block, schema: dict, where: str = "config") -> dict:
    """Copy of block with unknown keys rejected and every value typed."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    typed = {}
    for key, value in block.items():
        path = key if where == "config" else f"{where}.{key}"
        cast = schema[key]
        try:
            typed[key] = _typed(value, cast, path) if isinstance(cast, dict) else cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {path}: {exc}") from None
    return typed


def build_params(block: dict) -> ModelParams:
    """ModelParams from a typed params block; the P1 baseline fills the rest."""
    p = _p1_params()
    for key, value in block.items():
        p[key] = {**p[key], **value} if isinstance(value, dict) else value
    scalars = {k: p[k] for k in ("d1", "d2", "a", "b", "mu1", "mu2", "h0")}
    return ModelParams(
        **scalars,
        kernel1=Kernel(**p["kernel1"]),
        kernel2=Kernel(**p["kernel2"]),
        nonlinearity=Nonlinearity(**p["nonlinearity"]),
        u0=initial_profile(p["u0"]["kind"], p["u0"]["amplitude"], p["h0"]),
        v0=initial_profile(p["v0"]["kind"], p["v0"]["amplitude"], p["h0"]),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    command: str
    params: ModelParams
    numeric: dict
    output: dict
    block: dict | None  # the one block the command reads


def _merge_preset(cfg: dict) -> dict:
    if "preset" not in cfg:
        return cfg
    merged = preset_config(cfg["preset"])
    for key, value in cfg.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return merged


def validate_config(cfg: dict, command: str | None = None) -> ScenarioConfig:
    """Strict-key, typed validation of a raw config dict; merges its preset,
    then makes every refusal of the command table, so that a ConfigError
    always comes before any output is written."""
    cfg = _merge_preset(_typed(cfg, _SCHEMA))
    declared = cfg.get("command")
    for name in (declared, command):
        if name is not None and name not in _COMMANDS:
            raise ConfigError(f"unknown command {name!r}; choose one of {', '.join(COMMANDS)}")
    if command is not None and declared is not None and command != declared:
        raise ConfigError(
            f"command line says {command!r} but the config declares {declared!r}"
        )
    resolved = command or declared
    if resolved is None:
        raise ConfigError("no command given on the command line or in the config")
    reads = _COMMANDS[resolved]
    numeric = cfg.get("numeric", {})
    unread = sorted(set(numeric) - set(reads.numeric))
    if unread:
        raise ConfigError(f"command {resolved!r} does not read numeric keys: {', '.join(unread)}")
    unread = sorted(set(cfg) & ({c.block for c in _COMMANDS.values()} - {reads.block}))
    if unread:
        raise ConfigError(f"command {resolved!r} does not read blocks: {', '.join(unread)}")
    for key in reads.needs:
        if key not in numeric:
            raise ConfigError(f"command {resolved!r} needs numeric.{key}")
    block = cfg.get(reads.block) if reads.block else None
    if reads.block:
        reads.check(numeric, block)
    return ScenarioConfig(command=resolved, params=build_params(cfg.get("params", {})),
                          numeric=numeric, output=cfg.get("output", {}), block=block)


def _check_semiwave(numeric: dict, block: dict | None) -> None:
    if "sigmas" in numeric or "ns" in numeric:
        unread = sorted(set(numeric) & {"sigma", "n", "c0"})
        if block is not None:
            unread.append("front_compare")
        if unread:
            raise ConfigError("the semiwave table (sigmas, ns) does not read: "
                              + ", ".join(unread))
    # a window that is not positive never advances; the default is positive
    if block is not None and "window" in block and not block["window"] > 0.0:
        raise ConfigError("front_compare.window must be positive")


# the threshold block's keys that each search reads
_THRESHOLD_READS = {
    "ell_star": ("name",),
    "mu1_star": ("name", "link", "t_max", "dx"),
    "dichotomy": ("name", "link", "t_max", "dx"),
    "d_thresholds": ("name", "mode", "link"),
}


def _check_threshold(_numeric: dict, block: dict | None) -> None:
    if block is None or "name" not in block:
        raise ConfigError("command 'threshold' needs a threshold block with a name")
    link = block.get("link", {})
    kind = link.get("type", "identity")
    if kind == "scale" and link.get("factor", 1.0) <= 0:
        raise ConfigError("threshold.link.factor must be positive")
    if kind not in ("identity", "scale"):
        raise ConfigError(f"unknown link type {kind!r}")
    name = block["name"]
    if name not in _THRESHOLD_READS:
        raise ConfigError(f"unknown threshold name {name!r}; choose ell_star, mu1_star, "
                          "d_thresholds, or dichotomy")
    unread = sorted(set(block) - set(_THRESHOLD_READS[name]))
    if unread:
        raise ConfigError(f"threshold {name!r} does not read: {', '.join(unread)}")
    if name == "d_thresholds" and "mode" not in block:
        raise ConfigError("threshold name 'd_thresholds' needs a mode")


def _check_sweep(_numeric: dict, block: dict | None) -> None:
    if block is None or "variable" not in block or "values" not in block:
        raise ConfigError("command 'sweep' needs a sweep block with variable and values")


def _check_report(_numeric: dict, block: dict | None) -> None:
    if not block:
        raise ConfigError("command 'report' needs a report block")
    if "decay_rates" in block and "lengths" not in block["decay_rates"]:
        raise ConfigError("report.decay_rates needs lengths")
    if not ("mismatch" in block or block.get("decision_tree") or "decay_rates" in block):
        raise ConfigError("report block names no known section")


def _given(block: dict, *keys: str) -> dict:
    """The entries of block among keys; the callee's defaults fill the rest."""
    return {key: block[key] for key in keys if key in block}


def _build_link(block: dict | None) -> Callable[[float], float] | None:
    """The configured link; None stands for the identity."""
    if block is None or block.get("type", "identity") == "identity":
        return None
    factor = block.get("factor", 1.0)
    return lambda s: factor * s


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


def _scalars(record) -> dict:
    """A result record's fields without its arrays (vars: no copy is made)."""
    return {k: v for k, v in vars(record).items() if not isinstance(v, np.ndarray)}


class _Sink:
    """Artifact writer rooted at the output directory."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.written: list[str] = []

    def csv(self, name: str, header: str, rows) -> None:
        _write_csv(self.dir / name, header, rows)
        self.written.append(name)

    def json(self, name: str, obj) -> None:
        _write_json(self.dir / name, obj)
        self.written.append(name)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_eigen(cfg: ScenarioConfig, sink: _Sink) -> int:
    l = cfg.numeric["l"]
    spec = eigen.lambda1_spec(l, cfg.params, cfg.numeric.get("N"))
    pair = eigen.principal_eigenpair(spec)
    lam2 = eigen.lambda2(l, cfg.params, num_cells=spec.num_cells)
    sink.json("eigen.json", {
        "l": l, "num_cells": spec.num_cells,
        "lambda1": pair.lambda_p, "lambda2": lam2,
        "iterations": pair.iterations, "residual": pair.residual,
        "lambda1_enclosure": pair.enclosure,
    })
    sink.csv("eigenfunction.csv", "x,phi1,phi2",
             zip(pair.x, pair.phi1, pair.phi2))
    return EXIT_OK


def _cmd_steady(cfg: ScenarioConfig, sink: _Sink) -> int:
    st = steady.solve_steady(cfg.numeric["l"], cfg.params, cfg.numeric.get("N"))
    sink.csv("steady_state.csv", "x,u,v", zip(st.x, st.u, st.v))
    sink.json("steady.json", {**_scalars(st), "is_zero": st.is_zero})
    return EXIT_OK


def _cmd_evolve(cfg: ScenarioConfig, sink: _Sink) -> int:
    trace, decay = steady.evolve_fixed(
        cfg.numeric["l"], cfg.params, cfg.params.u0, cfg.params.v0, cfg.numeric["T"],
        num_cells=cfg.numeric.get("N"), dt=cfg.numeric.get("dt"),
        sample_interval=cfg.numeric.get("sample_interval"),
    )
    sink.csv("trajectory.csv", "t,norm_u,norm_v,norm_sum",
             zip(trace.t, trace.norm_u, trace.norm_v, trace.norm_sum))
    sink.csv("final_state.csv", "x,u,v", zip(trace.x, trace.u, trace.v))
    sink.json("decay.json", asdict(decay))
    return EXIT_OK


def _cmd_simulate(cfg: ScenarioConfig, sink: _Sink) -> int:
    trace = freeboundary.simulate(
        cfg.params, cfg.numeric["T"],
        **_given(cfg.numeric, "dx", "dt", "sample_interval", "snapshot_times"))
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
    outcome = freeboundary.classify(cfg.params, **_given(cfg.numeric, "t_max", "dx", "dt"))
    sink.json("outcome.json", asdict(outcome))
    return EXIT_UNDECIDED if outcome.verdict == "undecided" else EXIT_OK


_FRONT_COMPARE = {"horizon": 200.0, "window": 25.0}


def _front_compare_rows(params: ModelParams, block: dict, c_ref: float):
    """Front speed over consecutive windows of a simulation, next to c_ref."""
    horizon, window = block["horizon"], block["window"]
    trace = freeboundary.simulate(params, horizon, **_given(block, "dx"))
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
    grid = _given(num, "L", "dx")

    if "sigmas" in num or "ns" in num:
        table = semiwave.speed_limits(
            cfg.params, sigmas=num.get("sigmas", [0.0]), ns=num.get("ns", []), **grid)
        sink.csv("convergence.csv", "sigma,n,c",
                 ((r.sigma, r.n, r.c) for r in table.rows))
        sink.json("semiwave.json", {"accelerated": table.accelerated,
                                    "rows": [asdict(r) for r in table.rows]})
        return EXIT_OK

    try:
        prof = semiwave.solve_semiwave(cfg.params, sigma=num.get("sigma", 0.0), n=num.get("n"),
                                       c0=num.get("c0"), **grid)
    except semiwave.SpeedEscape as exc:
        if math.isfinite(exc.c):
            raise
        # the far-field flux diverged: the finite-speed rule fails
        sink.json("semiwave.json", {"accelerated": True, "c": None})
        return EXIT_OK
    sink.csv("profile.csv", "x,p,q", zip(prof.x, prof.p, prof.q))
    sink.json("semiwave.json", {"accelerated": False, **_scalars(prof)})
    if cfg.block is not None:
        sink.csv("front_compare.csv", "t_start,t_end,front_speed,c_tilde",
                 _front_compare_rows(cfg.params, {**_FRONT_COMPARE, **cfg.block}, prof.c))
    return EXIT_OK


def _cmd_threshold(cfg: ScenarioConfig, sink: _Sink) -> int:
    block = cfg.block
    name = block["name"]
    link = _build_link(block.get("link"))
    if name == "ell_star":
        payload = criteria.find_ell_star(cfg.params).to_dict()
    elif name == "d_thresholds":
        payload = criteria.find_d_thresholds(cfg.params, block["mode"], link).to_dict()
    else:
        # the dichotomy reports the critical length its mu1* search needs
        ell = criteria.find_ell_star(cfg.params) if name == "dichotomy" else None
        payload = criteria.find_mu_star(cfg.params, link, ell=ell,
                                        **_given(block, "t_max", "dx")).to_dict()
        if ell is not None:
            payload = {"ell_star": ell.to_dict(), "mu1_star": payload}
    sink.json("threshold.json", payload)
    return EXIT_OK


def _cmd_sweep(cfg: ScenarioConfig, sink: _Sink) -> int:
    spec = eigen.lambda1_spec(cfg.numeric.get("l", cfg.params.h0), cfg.params,
                              cfg.numeric.get("N"))
    result = eigen.sweep(spec, cfg.block["variable"], cfg.block["values"])
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
    block = cfg.block
    summary = {}
    if "mismatch" in block:
        sub = block["mismatch"]
        rows = freeboundary.symmetrization_mismatch(
            cfg.params, **_given(sub, "h0_values", "num_points"))
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
        lengths = sub["lengths"]
        fits = steady.decay_rates(lengths, cfg.params, sub.get("horizon", 150.0))
        sink.csv("decay_rates.csv", "l,lambda1,mode,k,r_squared",
                 ((l, est.lambda1, est.mode, est.k, est.r_squared)
                  for l, est in zip(lengths, fits)))
        summary["decay_rates"] = {"rows": len(fits)}
    sink.json("report.json", summary)
    return EXIT_OK


@dataclass(frozen=True)
class _Command:
    """What one command reads: its ``numeric`` keys, of which it ``needs``
    some, and at most one ``block``.  ``check`` is passed the numeric block
    and the command's own block, None when absent; it refuses an unusable or
    missing required block, and any key the block's mode does not read.
    validate_config refuses every other key and block."""
    handler: Callable[[ScenarioConfig, _Sink], int]
    numeric: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    block: str | None = None
    check: Callable[[dict, dict | None], None] | None = None


_COMMANDS = {
    "eigen": _Command(_cmd_eigen, ("l", "N"), needs=("l",)),
    "steady": _Command(_cmd_steady, ("l", "N"), needs=("l",)),
    "evolve": _Command(_cmd_evolve, ("l", "T", "N", "dt", "sample_interval"),
                       needs=("l", "T")),
    "simulate": _Command(_cmd_simulate, ("T", "dx", "dt", "sample_interval", "snapshot_times"),
                         needs=("T",)),
    "classify": _Command(_cmd_classify, ("t_max", "dx", "dt")),
    "semiwave": _Command(_cmd_semiwave, ("L", "dx", "sigma", "n", "c0", "sigmas", "ns"),
                         block="front_compare", check=_check_semiwave),
    "threshold": _Command(_cmd_threshold, block="threshold", check=_check_threshold),
    "sweep": _Command(_cmd_sweep, ("l", "N"), block="sweep", check=_check_sweep),
    "report": _Command(_cmd_report, block="report", check=_check_report),
}
COMMANDS = tuple(_COMMANDS)


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
        out_dir: str | Path | None = None) -> int:
    """Execute one scenario; returns the exit status, artifacts on disk."""
    try:
        raw = json.loads(Path(config_path).read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = validate_config(raw, command)
        target = Path(out_dir if out_dir is not None else cfg.output.get("directory", "."))
        target.mkdir(parents=True, exist_ok=True)
        sink = _Sink(target)
        code = _COMMANDS[cfg.command].handler(cfg, sink)
    except (FileNotFoundError, ValueError) as exc:  # ConfigError and ModelError too
        return _fail(EXIT_CONFIG, exc)
    except RuntimeError as exc:  # the base of every solver failure type
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
    args = parser.parse_args(argv)
    return run(args.config, command=args.command, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
