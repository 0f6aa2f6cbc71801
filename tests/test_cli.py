"""Config handling, command dispatch, artifacts, exit codes."""
import importlib.util
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nlfront import cli, criteria, eigen, freeboundary, semiwave
from nlfront.grids import default_cells


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_into(tmp_path, doc, sub="out", **kw):
    cfg = write_config(tmp_path, doc, name=f"{sub}.json")
    out = tmp_path / sub
    code = cli.run(cfg, out_dir=out, **kw)
    return code, out


def test_preset_catalogue():
    names = cli.presets()
    assert sorted(names) == sorted([
        "P1-spread", "P1-vanish", "P1-dichotomy", "speed-match",
        "accelerate", "eigen-asymptotics", "decay-rates", "appendixA",
    ])
    for name in names:
        cli.validate_config(cli.preset_config(name))
    with pytest.raises(cli.ConfigError):
        cli.preset_config("P1-unknown")


def test_eigen_command(tmp_path, capsys):
    code, out = run_into(tmp_path, {"command": "eigen", "numeric": {"l": 2.0}})
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "ok"
    payload = json.loads((out / "eigen.json").read_text())
    assert abs(payload["lambda1"] - 0.8192) < 5e-4
    assert payload["lambda2"] == pytest.approx(payload["lambda1"] / 2.0, abs=1e-6)
    lines = (out / "eigenfunction.csv").read_text().splitlines()
    assert lines[0] == "x,phi1,phi2"
    assert len(lines) > 100


def test_eigen_accepts_a_steep_linear_nonlinearity(tmp_path):
    # H(z) = c z is sublinear for every c > 0, though c z / z rounds above c
    # at some z once c is about 50 or more
    steep = {"family": "linear", "beta": 2.0, "c": 100.0}
    assert cli.build_params({"nonlinearity": steep}).nonlinearity.hp0 == 100.0
    code, out = run_into(tmp_path, {"command": "eigen", "numeric": {"l": 2.0},
                                    "params": {"nonlinearity": steep}})
    assert code == 0
    assert (out / "eigen.json").is_file()


def test_eigen_reruns_are_byte_identical(tmp_path):
    doc = {"command": "eigen", "numeric": {"l": 3.0}}
    _, out_a = run_into(tmp_path, doc, sub="a")
    _, out_b = run_into(tmp_path, doc, sub="b")
    for name in ("eigen.json", "eigenfunction.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_steady_command(tmp_path):
    code, out = run_into(tmp_path, {"command": "steady", "numeric": {"l": 6.0}})
    assert code == 0
    assert (out / "steady_state.csv").read_text().splitlines()[0] == "x,u,v"
    payload = json.loads((out / "steady.json").read_text())
    assert payload["residual"] < 1e-9


def test_evolve_command(tmp_path):
    code, out = run_into(
        tmp_path, {"command": "evolve", "numeric": {"l": 2.0, "T": 5.0}})
    assert code == 0
    assert (out / "trajectory.csv").read_text().splitlines()[0] == "t,norm_u,norm_v,norm_sum"
    assert (out / "final_state.csv").read_text().splitlines()[0] == "x,u,v"
    assert "mode" in json.loads((out / "decay.json").read_text())


def test_evolve_rejects_unstable_timestep(tmp_path, capsys):
    # 1.0 is twenty times P1's stability bound of 0.05
    code, out = run_into(
        tmp_path, {"command": "evolve", "numeric": {"l": 4.0, "T": 20.0, "dt": 1.0}})
    assert code == cli.EXIT_CONFIG == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError" and "dt must lie in" in error["message"]
    assert not (out / "decay.json").exists()


@pytest.mark.parametrize("l", [0.0, -1.0, math.inf])
def test_evolve_rejects_nonpositive_or_infinite_length(tmp_path, capsys, l):
    code, out = run_into(tmp_path, {"command": "evolve", "numeric": {"l": l, "T": 5.0}})
    assert code == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError",
                     "message": "domain length must be positive and finite", "exit_code": 2}
    assert not (out / "decay.json").exists()


@pytest.mark.parametrize("command, artifact", [
    ("eigen", "eigen.json"), ("steady", "steady.json"),
])
def test_eigen_and_steady_reject_infinite_length(tmp_path, capsys, command, artifact):
    code, out = run_into(tmp_path, {"command": command, "numeric": {"l": math.inf}})
    assert code == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "EigenGridError", "exit_code": 2,
                     "message": "domain length must be positive and finite"}
    assert not (out / artifact).exists()


@pytest.mark.parametrize("command, artifact", [
    ("evolve", "decay.json"), ("simulate", "trace.csv"),
])
@pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf])
def test_rejects_nonpositive_or_infinite_horizon(tmp_path, capsys, command, artifact,
                                                 horizon):
    # json writes inf as Infinity, which the config reader accepts
    numeric = {"l": 2.0, "T": horizon} if command == "evolve" else {"T": horizon}
    code, out = run_into(tmp_path, {"command": command, "numeric": numeric})
    assert code == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError", "message": "horizon must be positive and finite",
                     "exit_code": 2}
    assert not (out / artifact).exists()


@pytest.mark.parametrize("numeric, message", [
    ({"dx": 0.0}, "dx must be positive"),
    ({"dx": -0.05}, "dx must be positive"),
    ({"t_max": 0.0}, "t_max must be positive and finite"),
    ({"t_max": -10.0}, "t_max must be positive and finite"),
    ({"t_max": math.inf}, "t_max must be positive and finite"),
], ids=["dx-zero", "dx-negative", "t_max-zero", "t_max-negative", "t_max-infinite"])
def test_classify_rejects_invalid_grid_and_horizon(tmp_path, capsys, numeric, message):
    code, out = run_into(tmp_path, {"command": "classify", "numeric": numeric})
    assert code == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError", "message": message, "exit_code": 2}
    assert not (out / "outcome.json").exists()


def test_classify_reports_its_certificate(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "classify",
        "params": {"d1": 6.0, "d2": 6.0, "mu1": 0.02, "mu2": 0.02},
    })
    assert code == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["verdict"] == "vanishing" and outcome["certificate"] == "barrier"
    barrier = outcome["barrier"]
    assert sorted(barrier) == ["M", "bound", "delta", "enclosure", "eps", "flux_factor", "h1"]
    assert outcome["h_front"] < barrier["h1"] and 0.04 <= 0.5 * barrier["bound"]
    # lambda1(h1) = -delta and lambda1 at the front each lie in their enclosure, below 0
    lo, hi = barrier["enclosure"]
    assert lo <= -barrier["delta"] <= hi < 0.0
    lo, hi = outcome["lambda_enclosure"]
    assert lo <= outcome["lambda_front"] <= hi < 0.0


def test_simulate_command(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "simulate",
        "numeric": {"T": 5.0, "snapshot_times": [2.0, 4.0]},
    })
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,h,sup_u,sup_v,mass"
    hs = [float(line.split(",")[1]) for line in trace[1:]]
    assert hs == sorted(hs) and hs[-1] > hs[0]
    assert (out / "snapshots.csv").read_text().splitlines()[0] == "t,x,u,v"
    assert json.loads((out / "regime.json").read_text())["verdict"] == "spreading"


def test_classify_command_and_undecided_exit(tmp_path):
    code, out = run_into(tmp_path, {"command": "classify", "numeric": {"t_max": 100.0}})
    assert code == 0
    assert json.loads((out / "outcome.json").read_text())["verdict"] == "spreading"
    # near-critical response with a tiny horizon cannot decide
    code, out = run_into(tmp_path, {
        "command": "classify",
        "params": {"d1": 6.0, "d2": 6.0, "mu1": 0.11, "mu2": 0.11},
        "numeric": {"t_max": 5.0},
    }, sub="undecided")
    assert code == cli.EXIT_UNDECIDED
    assert json.loads((out / "outcome.json").read_text())["verdict"] == "undecided"


def test_semiwave_single_profile(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "semiwave",
        "numeric": {"sigma": 0.0, "L": 30.0, "dx": 0.1},
    })
    assert code == 0
    assert (out / "profile.csv").read_text().splitlines()[0] == "x,p,q"
    payload = json.loads((out / "semiwave.json").read_text())
    assert abs(payload["c"] - 0.4546) < 5e-3


def test_semiwave_table_mode(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "semiwave",
        "numeric": {"sigmas": [0.1], "ns": [20, 40], "L": 30.0, "dx": 0.1},
    })
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "sigma,n,c"
    assert len(lines) == 3
    assert json.loads((out / "semiwave.json").read_text())["accelerated"] is False


def test_semiwave_table_acceleration_follows_the_rule(tmp_path):
    # P1's column rises 3.1x over these cutoffs, but laplace kernels have a
    # finite first moment: not accelerated, and both rows are written
    code, out = run_into(tmp_path, {
        "command": "semiwave",
        "numeric": {"sigmas": [0.0], "ns": [1, 8], "L": 20.0, "dx": 0.1},
    })
    assert code == cli.EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "sigma,n,c" and [line.split(",")[1] for line in lines[1:]] == ["1", "8"]
    assert json.loads((out / "semiwave.json").read_text())["accelerated"] is False


HEAVY = {"family": "cauchy", "scale": 1.0, "exponent": 1.3}


@pytest.mark.parametrize("params, numeric", [
    ({}, {"L": 20.0, "dx": 0.1}),
    # a kernel with mu1 = 0 sends nothing across the front, so its heavy tail
    # leaves the speed finite
    ({"kernel1": HEAVY, "mu1": 0.0}, {"L": 20.0}),
], ids=["thin", "heavy-off-front"])
def test_semiwave_matches_solve_semiwave(tmp_path, params, numeric):
    code, out = run_into(tmp_path, {"command": "semiwave", "params": params, "numeric": numeric})
    assert code == cli.EXIT_OK
    payload = json.loads((out / "semiwave.json").read_text())
    assert payload["accelerated"] is False
    assert payload["c"] == semiwave.solve_semiwave(cli.build_params(params), **numeric).c


@pytest.mark.parametrize("params, numeric", [
    ({"kernel1": HEAVY, "kernel2": HEAVY}, {}),
    ({"kernel2": HEAVY}, {}),
    ({"kernel1": HEAVY, "kernel2": HEAVY}, {"sigma": 0.01}),
], ids=["both-heavy", "mixed", "sigma"])
def test_semiwave_accelerates_when_the_far_flux_diverges(tmp_path, params, numeric):
    # a kernel with mu > 0 and an infinite first moment: the far-field flux
    # diverges before any relaxation, with or without the extra decay sigma
    code, out = run_into(tmp_path, {"command": "semiwave", "params": params, "numeric": numeric})
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["semiwave.json"]
    assert json.loads((out / "semiwave.json").read_text()) == {"accelerated": True, "c": None}


def test_semiwave_heavy_tail_without_equilibrium_exits_2(tmp_path, capsys):
    # R0 = 4/9: nothing spreads, so there is no speed to find or to call infinite
    code, out = run_into(tmp_path, {"command": "semiwave",
                                    "params": {"kernel1": HEAVY, "a": 3.0, "b": 3.0}})
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NoPositiveEquilibrium"
    assert not out.exists() or not any(out.iterdir())


def test_threshold_command(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "threshold",
        "params": {"d1": 6.0, "d2": 6.0},
        "threshold": {"name": "ell_star"},
    })
    assert code == 0
    payload = json.loads((out / "threshold.json").read_text())
    assert abs(payload["value"] - 2.187040) < 5e-6


def test_threshold_link_from_the_config(tmp_path, capsys):
    doc = {"command": "threshold", "params": {"d1": 6.0, "d2": 6.0},
           "threshold": {"name": "d_thresholds", "mode": "linked",
                         "link": {"type": "scale", "factor": 2.0}}}
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_OK
    capsys.readouterr()
    direct = criteria.find_d_thresholds(cli.build_params(doc["params"]), "linked",
                                        lambda s: 2 * s)
    assert json.loads((out / "threshold.json").read_text()) == json.loads(
        json.dumps(direct.to_dict()))
    for link, message in (({"type": "scale", "factor": 0.0},
                           "threshold.link.factor must be positive"),
                          ({"type": "cubic"}, "unknown link type 'cubic'")):
        doc["threshold"]["link"] = link
        code, _ = run_into(tmp_path, doc, sub="bad")
        assert code == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"]["message"] == message


@pytest.mark.parametrize("d2, mode, num_samples", [
    (10.0, "fixed_d2_mid", 0),
    (20.0, "fixed_d2_large", 3),
])
def test_fixed_mode_d_thresholds_through_the_cli(tmp_path, d2, mode, num_samples):
    doc = {"command": "threshold", "params": {"d1": 6.0, "d2": d2},
           "threshold": {"name": "d_thresholds", "mode": mode}}
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_OK
    payload = json.loads((out / "threshold.json").read_text())
    direct = criteria.find_d_thresholds(cli.build_params(doc["params"]), mode)
    assert payload == json.loads(json.dumps(direct.to_dict()))
    assert len(payload["samples"]) == num_samples
    assert all(isinstance(s, list) and len(s) == 2 for s in payload["samples"])
    lo, hi = payload["extras"]["kappa1_enclosure"]
    assert lo <= payload["extras"]["kappa1"] <= hi


def test_lost_bracket_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # at d = 20 the doubling ends at l = 8, pinned to 320 cells, so the lower
    # end (200 cells) is solved again; that re-solve loses the sign change
    solve = eigen.principal_eigenpair

    def pinned_positive(spec):
        pair = solve(spec)
        if spec.num_cells == default_cells(spec.l):
            return pair
        return replace(pair, lambda_p=abs(pair.lambda_p))

    monkeypatch.setattr(eigen, "principal_eigenpair", pinned_positive)
    code, out = run_into(tmp_path, {
        "command": "threshold",
        "params": {"d1": 20.0, "d2": 20.0},
        "threshold": {"name": "ell_star"},
    })
    assert code == cli.EXIT_SOLVER == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "RuntimeError", "exit_code": 3,
                     "message": "bracket lost after pinning the resolution"}
    assert not (out / "threshold.json").exists()


def test_sweep_command(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "sweep",
        "sweep": {"variable": "l", "values": [1.0, 2.0, 4.0]},
    })
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "variable,value,lambda_p,iterations,residual"
    assert len(lines) == 4
    assert json.loads((out / "sweep.json").read_text())["violations"] == []


def test_report_command(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "report",
        "report": {"mismatch": {"h0_values": [0.5, 1.0], "num_points": 2000},
                   "decision_tree": True},
    })
    assert code == 0
    lines = (out / "mismatch.csv").read_text().splitlines()
    assert lines[0] == "h0,two_sided,one_sided,residual"
    assert len(lines) == 3
    assert json.loads((out / "regime.json").read_text())["verdict"] == "spreading"


def test_preset_with_overrides(tmp_path):
    code, out = run_into(tmp_path, {
        "preset": "P1-vanish",
        "numeric": {"T": 20.0, "snapshot_times": [10.0]},
    })
    assert code == 0
    assert json.loads((out / "regime.json").read_text())["verdict"] == "vanishing"


def test_preset_without_first_dispersal_reports_unbounded_front(tmp_path, capsys):
    code, out = run_into(tmp_path, {
        "preset": "P1-vanish",
        "params": {"d1": 0.0},
        "numeric": {"T": 5.0},
    })
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    regime = json.loads((out / "regime.json").read_text())
    assert regime["verdict"] == "vanishing"
    # the unbounded limit (math.inf in memory) is written as JSON null
    assert regime["certificates"][0]["h_limit"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def test_non_finite_results_are_written_as_strict_json(tmp_path):
    # an unbounded front limit (d1 = 0, mu1 > 0), the unmeasured mass of a
    # run decided at t = 0, and an escaped truncated speed are all non-finite
    cases = [
        ({"preset": "P1-vanish", "params": {"d1": 0.0}, "numeric": {"T": 5.0}},
         "regime.json", lambda doc: doc["certificates"][0]["h_limit"]),
        ({"command": "classify", "numeric": {}},
         "outcome.json", lambda doc: doc["mass"]),
        ({"command": "semiwave", "params": {"mu1": 1e4, "mu2": 1e4},
          "numeric": {"sigmas": [0.01], "ns": [20]}},
         "semiwave.json", lambda doc: doc["rows"][0]["c"]),
    ]
    for i, (doc, name, field) in enumerate(cases):
        code, out = run_into(tmp_path, doc, sub=f"case{i}")
        assert code == cli.EXIT_OK
        parsed = json.loads((out / name).read_text(), parse_constant=_reject_constant)
        assert field(parsed) is None


def test_config_rejections(tmp_path, capsys):
    cases = [
        ({"command": "eigen", "numeric": {"l": 2.0}, "bogus": 1}, "unknown keys"),
        ({"command": "eigen", "numeric": {"l": 2.0, "cells": 4}}, "unknown keys"),
        ({"command": "eigen", "numeric": {"l": 2.0}, "seed": 0}, "unknown keys"),
        ({"command": "semiwave", "numeric": {"multi_start": 2}}, "unknown keys"),
        ({"command": "eigen"}, "l"),
        ({"command": "simulate", "numeric": {"T": 5.0},
          "params": {"d1": 0.0, "d2": 0.0}}, "d1 + d2 must be positive"),
        ({"command": "warp", "numeric": {}}, "command"),
    ]
    for doc, needle in cases:
        code, _ = run_into(tmp_path, doc, sub=f"rej{cases.index((doc, needle))}")
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().out)["error"]
        assert needle in err["message"]
        assert err["exit_code"] == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, numeric, unread", [
    ("classify", {"sample_interval": -1.0}, "sample_interval"),
    ("eigen", {"l": 2.0, "c0": -5.0, "T": -1.0}, "T, c0"),
], ids=["classify", "eigen"])
def test_numeric_keys_a_command_does_not_read_exit_2(tmp_path, capsys, command, numeric,
                                                      unread):
    code, out = run_into(tmp_path, {"command": command, "numeric": numeric})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {
        "type": "ConfigError", "exit_code": cli.EXIT_CONFIG,
        "message": f"command {command!r} does not read numeric keys: {unread}"}
    assert not out.exists()


def test_command_mismatch_and_missing_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "eigen", "numeric": {"l": 2.0}})
    code = cli.run(cfg, command="steady", out_dir=tmp_path / "x")
    assert code == cli.EXIT_CONFIG
    msg = json.loads(capsys.readouterr().out)["error"]["message"]
    assert "steady" in msg and "eigen" in msg
    assert cli.run(tmp_path / "nope.json", out_dir=tmp_path / "y") == cli.EXIT_CONFIG


def test_main_entry_point(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "eigen", "numeric": {"l": 2.0}})
    code = cli.main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "m")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert (tmp_path / "m" / "eigen.json").exists()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["eigen", "--config", str(cfg), "--seed", "7"])
    assert exit_.value.code == cli.EXIT_CONFIG


def _schema_leaves(schema, path=()):
    for key, cast in schema.items():
        if isinstance(cast, dict):
            yield from _schema_leaves(cast, path + (key,))
        else:
            yield path + (key,), cast


def test_every_wrong_typed_config_value_exits_2(tmp_path, capsys):
    # one wrong-typed value per schema leaf, on an otherwise valid eigen
    # config: typing refuses each before any solver runs
    failures = []
    for i, (path, cast) in enumerate(_schema_leaves(cli._SCHEMA)):
        wrong = [None, {}, [None]] + ([] if cast is cli._string else ["not a number"])
        for j, value in enumerate(wrong):
            doc = {"command": "eigen", "numeric": {"l": 2.0}}
            block = doc
            for key in path[:-1]:
                block = block.setdefault(key, {})
            block[path[-1]] = value
            code, _ = run_into(tmp_path, doc, sub=f"fuzz{i}_{j}")
            lines = capsys.readouterr().out.splitlines()
            error = json.loads(lines[0]).get("error", {}) if len(lines) == 1 else {}
            if code != cli.EXIT_CONFIG or ".".join(path) not in error.get("message", ""):
                failures.append((".".join(path), value, code, lines))
    assert failures == []


def _one_line_error(capsys) -> dict:
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("window", [0.0, -25.0])
def test_front_compare_rejects_nonpositive_window(tmp_path, capsys, monkeypatch, window):
    # such a window never advances; the refusal comes before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(freeboundary, "simulate", no_solve)
    code, out = run_into(tmp_path, {
        "command": "semiwave", "numeric": {"L": 20.0, "dx": 0.1},
        "front_compare": {"horizon": 2.0, "window": window, "dx": 0.1}})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ConfigError", "exit_code": 2,
                                       "message": "front_compare.window must be positive"}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mismatch, key", [
    ({"num_points": 0}, "num_points"), ({"h0_values": []}, "h0_values"),
])
def test_mismatch_rejects_empty_samples(tmp_path, capsys, mismatch, key):
    code, out = run_into(tmp_path, {"command": "report", "report": {"mismatch": mismatch}})
    assert code == cli.EXIT_CONFIG
    error = _one_line_error(capsys)
    assert error["type"] == "ValueError" and key in error["message"]
    assert not (out / "mismatch.csv").exists()


@pytest.mark.parametrize("doc, message", [
    ({"command": "simulate", "numeric": {"T": 1e308}}, "horizon / dt"),
    ({"command": "evolve", "numeric": {"l": 2.0, "T": 1e308}}, "horizon / dt"),
    ({"command": "threshold", "params": {"d1": 6.0, "d2": 6.0},
      "threshold": {"name": "mu1_star", "t_max": 1e308}}, "t_max / dt"),
    ({"command": "simulate", "numeric": {"T": 5.0, "sample_interval": math.inf}},
     "sample_interval / dt"),
], ids=["simulate-T", "evolve-T", "mu1_star-t_max", "simulate-sample_interval"])
def test_rejects_horizon_beyond_a_finite_step_count(tmp_path, capsys, doc, message):
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    error = _one_line_error(capsys)
    assert error["type"] == "ValueError"
    assert error["message"].startswith(message)
    assert error["message"].endswith("is not a finite step count")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("cells", [0, 3])
def test_evolve_refuses_a_coarse_grid_before_stepping(tmp_path, capsys, monkeypatch, cells):
    def no_steps(*args, **kwargs):
        raise AssertionError("stepping ran")

    monkeypatch.setattr(freeboundary, "_march", no_steps)
    code, out = run_into(tmp_path, {"command": "evolve",
                                    "numeric": {"l": 2.0, "T": 5.0, "N": cells}})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {
        "type": "EigenGridError", "exit_code": 2,
        "message": f"refusing to assemble: num_cells={cells} is below the minimum of 8"}
    assert not (out / "decay.json").exists()


@pytest.mark.parametrize("params, message", [
    ({"d1": math.nan}, "d1 must be finite, got nan"),
    ({"d2": math.inf}, "d2 must be finite, got inf"),
    ({"a": math.inf}, "a must be finite, got inf"),
    ({"b": math.inf}, "b must be finite, got inf"),
    ({"mu1": math.nan}, "mu1 must be finite, got nan"),
    ({"mu2": math.inf}, "mu2 must be finite, got inf"),
    ({"h0": math.inf}, "h0 must be finite, got inf"),
    ({"kernel1": {"family": "cauchy", "exponent": math.nan}}, "exponent must be finite, got nan"),
    ({"nonlinearity": {"alpha": math.nan}}, "alpha must be finite, got nan"),
    ({"nonlinearity": {"beta": math.inf}}, "beta must be finite, got inf"),
], ids=["d1", "d2", "a", "b", "mu1", "mu2", "h0", "exponent", "alpha", "beta"])
def test_rejects_non_finite_model_values(tmp_path, capsys, params, message):
    code, out = run_into(tmp_path, {"command": "simulate", "params": params,
                                    "numeric": {"T": 5.0}})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ModelError", "message": message,
                                       "exit_code": 2}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("doc, message", [
    ({"command": "simulate", "numeric": {"T": 5.0, "dx": math.inf}},
     "dx must be finite, got inf"),
    ({"command": "classify", "numeric": {"dx": math.inf}}, "dx must be finite, got inf"),
    ({"command": "sweep", "sweep": {"variable": "l", "values": [1.0, math.nan]}},
     "sweep values must be finite, got nan"),
    ({"command": "sweep", "numeric": {"l": 2.0},
      "sweep": {"variable": "d1", "values": [math.inf]}},
     "sweep values must be finite, got inf"),
    ({"command": "semiwave", "numeric": {"L": math.inf}},
     "need 0 < dx < L < inf, got dx = 0.05, L = inf"),
    ({"command": "semiwave", "numeric": {"L": math.inf},
      "params": {"kernel1": {"family": "cauchy"}, "kernel2": {"family": "cauchy"}}},
     "need 0 < dx < L < inf, got dx = 0.05, L = inf"),
    ({"command": "simulate", "numeric": {"T": 1e300}},
     "horizon / dt = 1e+300 / 0.05 = 2e+301 steps, above the ceiling of 1e+08"),
    ({"command": "report", "report": {"mismatch": {"h0_values": [1.0, math.inf]}}},
     "h0 values must be positive and finite, got inf"),
], ids=["simulate-dx", "classify-dx", "sweep-l-nan", "sweep-d1-inf", "semiwave-L",
        "semiwave-L-heavy-tail", "simulate-T-ceiling", "mismatch-h0"])
def test_rejects_non_finite_numeric_settings(tmp_path, capfd, monkeypatch, doc, message):
    # refused before any stepping, with one JSON line and nothing else on
    # either stream: no warning and no solver chatter
    def no_steps(*args, **kwargs):
        raise AssertionError("stepping ran")

    monkeypatch.setattr(freeboundary, "_march", no_steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capfd) == {"type": "ValueError", "message": message,
                                      "exit_code": 2}
    assert capfd.readouterr().err == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("doc, message", [
    ({"command": "sweep", "sweep": {"variable": "l", "values": [-1.0, 0.0]}},
     "domain length must be positive and finite"),
    ({"command": "sweep", "numeric": {"l": 2.0},
      "sweep": {"variable": "d1", "values": [-1.0]}},
     "need d1, d2 >= 0 and d1 + d2 > 0"),
], ids=["l", "d1"])
def test_sweep_with_every_value_refused_exits_2(tmp_path, capsys, doc, message):
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "EigenGridError", "message": message,
                                       "exit_code": 2}
    assert not (out / "sweep.csv").exists()


def test_sweep_with_every_solve_failed_exits_3(tmp_path, capsys, monkeypatch):
    def fail(spec):
        raise eigen.EigenConvergenceError(f"no solve at l = {spec.l:g}", math.nan,
                                          None, 0, math.inf)

    monkeypatch.setattr(eigen, "principal_eigenpair", fail)
    code, out = run_into(tmp_path, {"command": "sweep",
                                    "sweep": {"variable": "l", "values": [1.0, 2.0]}})
    assert code == cli.EXIT_SOLVER
    assert _one_line_error(capsys) == {"type": "EigenConvergenceError",
                                       "message": "no solve at l = 1", "exit_code": 3}
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("doc, cells", [
    ({"command": "eigen", "numeric": {"l": 2.0, "N": 1_000_000_000}}, "1000000000"),
    ({"command": "evolve", "numeric": {"l": 2.0, "T": 1.0, "N": 1_000_000_000}},
     "1000000000"),
    ({"command": "eigen", "numeric": {"l": 1e300}}, "4e+301"),
    ({"command": "simulate", "numeric": {"T": 1.0, "dx": 1e-300}}, "2.68e+300"),
    ({"command": "simulate", "params": {"h0": 1e300}, "numeric": {"T": 1.0}}, "2.14e+301"),
    ({"command": "simulate", "params": {"u0": {"amplitude": 1e300}},
      "numeric": {"T": 1.0}}, "1.67e+299"),
    ({"command": "semiwave", "numeric": {"dx": 1e-300}}, "6e+301"),
], ids=["eigen-N", "evolve-N", "eigen-l", "simulate-dx", "simulate-h0",
        "simulate-amplitude", "semiwave-dx"])
def test_grids_above_the_cell_ceiling_exit_2(tmp_path, capsys, doc, cells):
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {
        "type": "ValueError", "exit_code": 2,
        "message": f"a grid of {cells} cells is above the ceiling of 4194304"}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("doc, message", [
    ({"command": "simulate", "numeric": {"T": 1.0, "dx": 1e-308}},
     "h0 / dx = 2 / 1e-308 is not a finite cell count"),
    ({"command": "threshold", "params": {"a": 1e200}, "threshold": {"name": "ell_star"}},
     "no threshold, vanishing"),
    ({"command": "report", "report": {"mismatch": {"num_points": 10**9}}},
     "num_points must lie in [1, 4194304], got 1000000000"),
], ids=["simulate-dx", "ell_star-a", "mismatch-num_points"])
def test_overflowing_settings_exit_2(tmp_path, capsys, doc, message):
    # each overflowed (or, for num_points, exhausted memory) with a traceback
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ValueError", "message": message,
                                       "exit_code": 2}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("path", [
    ("numeric", "N"), ("numeric", "n"), ("numeric", "ns"),
    ("report", "mismatch", "num_points"),
], ids=".".join)
@pytest.mark.parametrize("value", [200.7, 0.5])
def test_integer_keys_refuse_a_fractional_part(tmp_path, capsys, path, value):
    doc = {"command": "eigen", "numeric": {"l": 2.0}}
    block = doc
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = [value] if path[-1] == "ns" else value
    code, _ = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    error = _one_line_error(capsys)
    assert error["type"] == "ConfigError"
    assert error["message"] == f"bad value for {'.'.join(path)}: expected an integer, got {value!r}"


def test_integral_float_is_an_integer(tmp_path):
    code, out = run_into(tmp_path, {"command": "eigen", "numeric": {"l": 2.0, "N": 200.0}})
    assert code == cli.EXIT_OK
    assert json.loads((out / "eigen.json").read_text())["num_cells"] == 200


@pytest.mark.parametrize("command, numeric", [
    ("simulate", {"T": 1.0, "sample_interval": 0.0}),
    ("simulate", {"T": 1.0, "sample_interval": -1.0}),
    ("evolve", {"l": 2.0, "T": 1.0, "sample_interval": 0.0}),
], ids=["simulate-zero", "simulate-negative", "evolve-zero"])
def test_rejects_a_nonpositive_sample_interval(tmp_path, capsys, command, numeric):
    code, out = run_into(tmp_path, {"command": command, "numeric": numeric})
    assert code == cli.EXIT_CONFIG
    error = _one_line_error(capsys)
    assert error["type"] == "ValueError"
    given_value = numeric["sample_interval"]
    assert error["message"] == f"sample_interval must be positive, got {given_value:g}"
    assert not out.exists() or not any(out.iterdir())


_FUZZ_VALUES = (0.0, -1.0, 1e-300, 1e300, math.inf, 0.5, 3.0)
_FUZZ_PARAMS = (
    ("params", "d1"), ("params", "d2"), ("params", "a"), ("params", "b"),
    ("params", "mu1"), ("params", "mu2"), ("params", "h0"),
    ("params", "kernel1", "scale"), ("params", "nonlinearity", "alpha"),
    ("params", "nonlinearity", "beta"), ("params", "u0", "amplitude"),
    ("params", "v0", "amplitude"),
)

def _numeric(*keys):
    return tuple(("numeric", key) for key in keys)


# each command on a small horizon, with the keys it reads beside the params;
# a list-valued key gets the value as its second entry
_FUZZ_COMMANDS = {
    "eigen": ({"numeric": {"l": 2.0}}, _numeric("l", "N")),
    "steady": ({"numeric": {"l": 3.0}}, _numeric("l", "N")),
    "evolve": ({"numeric": {"l": 2.0, "T": 1.0}},
               _numeric("l", "T", "N", "dt", "sample_interval")),
    "simulate": ({"numeric": {"T": 1.0}}, _numeric("T", "dx", "dt", "sample_interval")),
    "sweep": ({"sweep": {"variable": "l", "values": [1.0, 2.0]}},
              _numeric("l", "N") + (("sweep", "values"),)),
    # both lengths on 200 cells, so they step as one batch
    "report": ({"report": {"decay_rates": {"lengths": [1.0, 2.0], "horizon": 3.0},
                           "mismatch": {"h0_values": [1.0], "num_points": 200}}},
               (("report", "decay_rates", "lengths"), ("report", "decay_rates", "horizon"),
                ("report", "mismatch", "h0_values"), ("report", "mismatch", "num_points"))),
}
_FUZZ_LISTS = {("sweep", "values"), ("report", "decay_rates", "lengths"),
               ("report", "mismatch", "h0_values")}


@st.composite
def _fuzz_override(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    base, keys = _FUZZ_COMMANDS[command]
    path = draw(st.sampled_from(list(keys) + list(_FUZZ_PARAMS)))
    return command, base, path, draw(st.sampled_from(_FUZZ_VALUES))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_override())
def test_well_typed_extreme_values_exit_cleanly(tmp_path, capfd, case):
    # one numeric key set to an extreme but well-typed value: the run
    # succeeds, or prints one JSON error line and exits 2, 3 or 4; nothing
    # reaches stderr (a warning would, from the command line)
    command, base, path, value = case
    doc = json.loads(json.dumps({"command": command, **base}))
    block = doc
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = [1.0, value] if path in _FUZZ_LISTS else value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_into(tmp_path, doc, sub="fuzz")
    captured = capfd.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert len(lines) == 1
    reply = json.loads(lines[0])
    if code == cli.EXIT_OK:
        assert reply["status"] == "ok"
    else:
        assert code in (cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_UNDECIDED)
        assert reply["error"]["exit_code"] == code


def test_unknown_command_through_the_api_exits_2(tmp_path, capsys):
    code, out = run_into(tmp_path, {"numeric": {}}, command="warp")
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {
        "type": "ConfigError", "exit_code": 2,
        "message": f"unknown command 'warp'; choose one of {', '.join(cli.COMMANDS)}"}
    assert not out.exists()


@pytest.mark.parametrize("doc, unread", [
    ({"command": "eigen", "numeric": {"l": 2.0},
      "sweep": {"variable": "l", "values": [1.0]}}, "sweep"),
    ({"command": "semiwave", "threshold": {"name": "ell_star"},
      "report": {"decision_tree": True}}, "report, threshold"),
    ({"command": "threshold", "threshold": {"name": "ell_star"},
      "front_compare": {"horizon": 2.0}}, "front_compare"),
], ids=["eigen-sweep", "semiwave-two", "threshold-front_compare"])
def test_blocks_a_command_does_not_read_exit_2(tmp_path, capsys, doc, unread):
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {
        "type": "ConfigError", "exit_code": 2,
        "message": f"command {doc['command']!r} does not read blocks: {unread}"}
    assert not out.exists()


def test_report_refuses_decay_rates_without_lengths_before_any_section_runs(
        tmp_path, capsys, monkeypatch):
    def no_mismatch(*args, **kwargs):
        raise AssertionError("symmetrization_mismatch ran")

    monkeypatch.setattr(freeboundary, "symmetrization_mismatch", no_mismatch)
    code, out = run_into(tmp_path, {"command": "report", "report": {
        "mismatch": {"h0_values": [1.0], "num_points": 200},
        "decay_rates": {"horizon": 3.0}}})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ConfigError", "exit_code": 2,
                                       "message": "report.decay_rates needs lengths"}
    assert not out.exists()


def test_eigen_without_a_length_creates_no_output_directory(tmp_path, capsys):
    code, out = run_into(tmp_path, {"command": "eigen"})
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ConfigError", "exit_code": 2,
                                       "message": "command 'eigen' needs numeric.l"}
    assert not out.exists()


_THRESHOLD = {"command": "threshold", "params": {"d1": 6.0, "d2": 6.0}}


@pytest.mark.parametrize("doc, message", [
    ({"command": "evolve", "numeric": {"l": 2.0}}, "command 'evolve' needs numeric.T"),
    ({"command": "simulate"}, "command 'simulate' needs numeric.T"),
    ({"command": "threshold"}, "command 'threshold' needs a threshold block with a name"),
    ({**_THRESHOLD, "threshold": {"name": "mu_star"}},
     "unknown threshold name 'mu_star'; choose ell_star, mu1_star, d_thresholds, or dichotomy"),
    ({**_THRESHOLD, "threshold": {"name": "d_thresholds"}},
     "threshold name 'd_thresholds' needs a mode"),
    ({**_THRESHOLD, "threshold": {"name": "mu1_star", "link": {"type": "scale",
                                                               "factor": -1.0}}},
     "threshold.link.factor must be positive"),
    ({**_THRESHOLD, "threshold": {"name": "ell_star", "link": {"type": "cubic"}}},
     "unknown link type 'cubic'"),
    ({"command": "sweep", "sweep": {"variable": "l"}},
     "command 'sweep' needs a sweep block with variable and values"),
    ({"command": "report", "report": {}}, "command 'report' needs a report block"),
    ({"command": "report", "report": {"decision_tree": False}},
     "report block names no known section"),
    ({"command": "semiwave", "front_compare": {"window": 0.0}},
     "front_compare.window must be positive"),
    ({"command": "eigen", "numeric": {"l": 2.0}, "output": {"formats": ["xml"]}},
     "unknown keys in output: formats"),
    ({"command": "semiwave", "numeric": {"sigmas": [0.0], "ns": [1], "L": 20.0, "dx": 0.1,
                                         "c0": -5.0, "sigma": 3.0},
      "front_compare": {"horizon": 5.0, "window": 1.0}},
     "the semiwave table (sigmas, ns) does not read: c0, sigma, front_compare"),
    ({**_THRESHOLD, "threshold": {"name": "ell_star", "mode": "bogus", "t_max": -1.0,
                                  "link": {"type": "scale", "factor": 2.0}}},
     "threshold 'ell_star' does not read: link, mode, t_max"),
    ({**_THRESHOLD, "threshold": {"name": "d_thresholds", "mode": "linked", "dx": 0.1}},
     "threshold 'd_thresholds' does not read: dx"),
], ids=["evolve-T", "simulate-T", "threshold-block", "threshold-name", "d_thresholds-mode",
        "link-factor", "link-type", "sweep-values", "report-empty", "report-no-section",
        "front_compare-window", "formats", "semiwave-table-unread", "ell_star-unread",
        "d_thresholds-unread"])
def test_every_config_refusal_comes_before_the_output_directory(tmp_path, capsys, doc,
                                                                 message):
    with pytest.raises(cli.ConfigError) as refused:
        cli.validate_config(doc)
    assert str(refused.value) == message
    code, out = run_into(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert _one_line_error(capsys) == {"type": "ConfigError", "exit_code": 2,
                                       "message": message}
    assert not out.exists()


def test_dichotomy_locates_the_critical_length_once(tmp_path, monkeypatch):
    calls = []
    find = criteria.find_ell_star

    def counted(params):
        calls.append(params)
        return find(params)

    monkeypatch.setattr(criteria, "find_ell_star", counted)
    code, out = run_into(tmp_path, {**_THRESHOLD,
                                    "threshold": {"name": "dichotomy", "t_max": 10.0}})
    assert code == cli.EXIT_OK
    assert len(calls) == 1
    payload = json.loads((out / "threshold.json").read_text())
    assert payload["ell_star"] == json.loads(json.dumps(find(calls[0]).to_dict()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_benchmark_config_validates(monkeypatch, seed):
    # benchmark/workloads.py, imported from its file; generating runs nothing
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    for workload in ("threshold-search", "fixed-habitat", "front-dynamics"):
        for scenario in workloads.generate(workload, seed):
            cli.validate_config(scenario.config)
