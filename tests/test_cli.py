"""Config handling, command dispatch, artifacts, exit codes."""
import json
from pathlib import Path

import pytest

from nlfront import cli


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


def test_threshold_command(tmp_path):
    code, out = run_into(tmp_path, {
        "command": "threshold",
        "params": {"d1": 6.0, "d2": 6.0},
        "threshold": {"name": "ell_star"},
    })
    assert code == 0
    payload = json.loads((out / "threshold.json").read_text())
    assert abs(payload["value"] - 2.187040) < 5e-6


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


def test_command_mismatch_and_missing_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "eigen", "numeric": {"l": 2.0}})
    code = cli.run(cfg, command="steady", out_dir=tmp_path / "x")
    assert code == cli.EXIT_CONFIG
    msg = json.loads(capsys.readouterr().out)["error"]["message"]
    assert "steady" in msg and "eigen" in msg
    assert cli.run(tmp_path / "nope.json", out_dir=tmp_path / "y") == cli.EXIT_CONFIG


def test_main_entry_point(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "eigen", "numeric": {"l": 2.0}})
    code = cli.main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "m"), "--seed", "7"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert (tmp_path / "m" / "eigen.json").exists()
