"""Compare `classify` verdicts and `semiwave` acceleration answers on a fixed
list of runs under two nlfront source trees.

    python3 scripts/verdict_diff.py OLD_SRC NEW_SRC

Each tree runs every config below through `nlfront.cli.run` in its own
fresh interpreter (PYTHONPATH=<tree>), into a temporary directory, so
nothing is written under either tree.  The `classify` runs:

- vanish-P1, R0=1, gammaA=1e-7, gammaA=1e-6: the runs with no spreading
  length that `tests/test_freeboundary.py` checks, at dx = 0.1 and
  t_max = 300;
- bench-vanish, bench-spread: the threshold-search benchmark's probe pair
  at seed 0 (P1 at d = 6, mu = 0.02 and 0.25);
- dichotomy-*: the P1-dichotomy preset's mu1* search, its 10 search
  probes plus the former 0.9x/1.1x pair.

The `semiwave` runs ask "does it accelerate" of both of the command's
paths, the cutoff table (`sigmas`, `ns`) and the single solve (`sigma`),
on P1's laplace kernels (sigma = 0, n = 1, 2, 4, 8) and on cauchy kernels
of exponent 1.3 (the accelerate preset), 1.8 and 1.95 on both species
(sigma = 0.01, n = 20, 40, 80, 160).

One line per run, old -> new:

    R0=1: vanishing stall t=113 -> vanishing barrier t=30
    laplace table: accelerated -> not accelerated  FLIPPED

Exits 1 when a verdict the old tree decided (spreading or vanishing)
changes or becomes undecided, or when an acceleration answer changes or
is lost, else 0.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _p1(**over) -> dict:
    """The presets' P1 parameter block, with fields replaced."""
    block = {
        "d1": 1.0, "d2": 1.0, "a": 1.0, "b": 1.0, "mu1": 1.0, "mu2": 1.0, "h0": 2.0,
        "kernel1": {"family": "laplace", "scale": 1.0},
        "kernel2": {"family": "laplace", "scale": 1.0},
        "nonlinearity": {"family": "saturating", "alpha": 2.0, "beta": 2.0},
        "u0": {"kind": "tent", "amplitude": 1.0},
        "v0": {"kind": "tent", "amplitude": 0.5},
    }
    block.update(over)
    return block


def _saturating(alpha: float, beta: float = 1.0) -> dict:
    return {"family": "saturating", "alpha": alpha, "beta": beta}


_SHORT = {"t_max": 300.0, "dx": 0.1}
# mu1 of P1-dichotomy's mu1* search (mu2 = mu1), in order: 10 search probes
# plus the former 0.9x/1.1x pair
_DICHOTOMY_MU = (0.004394091295083229, 1.0, 0.5021970456475416, 0.25329556847131246,
                 0.12884482988319784, 0.06661946058914053, 0.09773214523616919,
                 0.11328848755968352, 0.12106665872144068, 0.1171775731405621,
                 0.10545981582650589, 0.12889533045461832)

CONFIGS = {
    "vanish-P1": (_p1(a=2.0, b=2.0, nonlinearity=_saturating(1.0, 1.0)), _SHORT),
    "R0=1": (_p1(nonlinearity=_saturating(1.0)), _SHORT),
    "gammaA=1e-7": (_p1(nonlinearity=_saturating((1 + 1e-7) ** 2)), _SHORT),
    "gammaA=1e-6": (_p1(nonlinearity=_saturating((1 + 1e-6) ** 2)), _SHORT),
    "bench-vanish": (_p1(d1=6.0, d2=6.0, mu1=0.02, mu2=0.02), {}),
    "bench-spread": (_p1(d1=6.0, d2=6.0, mu1=0.25, mu2=0.25), {}),
    **{f"dichotomy-{i}": (_p1(d1=6.0, d2=6.0, mu1=mu, mu2=mu), {})
       for i, mu in enumerate(_DICHOTOMY_MU)},
}


def _cauchy(exponent: float) -> dict:
    return {"family": "cauchy", "scale": 1.0, "exponent": exponent}


# params, sigma and cutoffs of each acceleration question; the table path
# reads the cutoffs, the single solve only sigma
_TAILS = {
    "laplace": (_p1(), 0.0, [1, 2, 4, 8]),
    **{f"cauchy-{g}": (_p1(kernel1=_cauchy(g), kernel2=_cauchy(g)), 0.01, [20, 40, 80, 160])
       for g in (1.3, 1.8, 1.95)},
}
SEMIWAVE = {
    f"{name} {path}": (params, numeric)
    for name, (params, sigma, ns) in _TAILS.items()
    for path, numeric in (("table", {"sigmas": [sigma], "ns": ns}), ("solve", {"sigma": sigma}))
}

# run in the child interpreter: argv[1] is the output root, holding configs.json
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
from nlfront import cli
root = Path(sys.argv[1])
results = {}
runs = json.loads((root / "configs.json").read_text())
for command, artifact in (("classify", "outcome.json"), ("semiwave", "semiwave.json")):
    for name, (params, numeric) in runs[command].items():
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps({"command": command, "params": params, "numeric": numeric}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(cfg, out_dir=root / name)
        out = root / name / artifact
        results[name] = json.loads(out.read_text()) if out.exists() else {"exit_code": code}
(root / "results.json").write_text(json.dumps(results))
"""


def _run(src: Path, root: Path) -> dict:
    (root / "configs.json").write_text(json.dumps({"classify": CONFIGS, "semiwave": SEMIWAVE}))
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUNNER, str(root)], env=env, check=True)
    return json.loads((root / "results.json").read_text())


def _describe(outcome: dict) -> str:
    if "verdict" in outcome:
        return f"{outcome['verdict']} {outcome['certificate']} t={outcome['t_decided']:.4g}"
    if "accelerated" in outcome:
        if outcome["accelerated"]:
            return "accelerated"
        c = outcome.get("c")
        return "not accelerated" + ("" if c is None else f" c={c:.4g}")
    return f"failed with exit code {outcome['exit_code']}"


def _flipped(old: dict, new: dict) -> bool:
    """A decided verdict changed or was lost, or an acceleration answer did."""
    if old.get("verdict") in ("spreading", "vanishing"):
        return new.get("verdict") != old["verdict"]
    return "accelerated" in old and new.get("accelerated") != old["accelerated"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the baseline tree's src directory")
    ap.add_argument("new", type=Path, help="the changed tree's src directory")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for src, side in ((args.old, "old"), (args.new, "new")):
            root = Path(tmp) / side
            root.mkdir()
            results.append(_run(src.resolve(), root))
    flipped = False
    for name in (*CONFIGS, *SEMIWAVE):
        old, new = results[0][name], results[1][name]
        flip = _flipped(old, new)
        print(f"{name}: {_describe(old)} -> {_describe(new)}" + ("  FLIPPED" if flip else ""))
        flipped |= flip
    return int(flipped)


if __name__ == "__main__":
    sys.exit(main())
