"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py [--workload NAME|all] [--seed N]

On one workload and seed (default: front-dynamics, seed 1) it runs one
untraced and two traced passes and checks that

1. every answer passes its check;
2. traced and untraced passes write byte-identical artifacts;
3. exact counters (every per-layer count and ratio of counts) repeat
   across the two traced passes;
4. after each traced scenario no wrapper is left in nlfront (checked by
   identity inside the scenario's process, reported as a failed check);
5. the per-layer metrics the tracer produces are the ones BENCHMARK.json names;
6. seed 0 gives the nlfront presets' parameters verbatim.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def check_presets(workload: str, scenarios) -> list[str]:
    """Seed-0 scenarios against the presets they are taken from."""
    from nlfront import cli
    bad = []
    dichotomy = cli.preset_config("P1-dichotomy")["params"]
    asymptotics = cli.preset_config("eigen-asymptotics")
    for sc in scenarios:
        cfg = sc.config
        if sc.name == "eigen-asymptotics":
            same = (cfg["params"] == asymptotics["params"]
                    and set(cfg["sweep"]["values"]) <= set(asymptotics["sweep"]["values"]))
        elif sc.name in cli.presets():
            same = cfg == {k: v for k, v in cli.preset_config(sc.name).items() if k != "preset"}
        elif workload == "threshold-search":
            drop = ("mu1", "mu2")
            same = ({k: v for k, v in cfg["params"].items() if k not in drop}
                    == {k: v for k, v in dichotomy.items() if k not in drop})
        else:
            same = cfg["params"] == asymptotics["params"]
        if not same:
            bad.append(f"seed 0 scenario {sc.name} differs from its preset")
    return bad


def selftest(workload: str, seed: int, spec: dict) -> list[str]:
    scenarios = workloads.generate(workload, seed)
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.OUT))
    bad: list[str] = []
    try:
        paths = []
        for i, sc in enumerate(scenarios):
            paths.append(work / f"{i}.json")
            paths[-1].write_text(json.dumps(sc.config))
        workloads.assert_regime(scenarios)
        passes = []
        for traced in (False, True, True):
            out = work / f"pass{len(passes)}"
            out.mkdir()
            spans = work / f"spans{len(passes)}" if traced else None
            p = run.Pass(scenarios, paths, out, spans).run()
            passes.append(p)
            bad += [f"{sc.name}: {msg}" for sc, msgs in zip(scenarios, p.problems) for msg in msgs]
        metrics = [tracer.metrics([rep["trace"] for rep in p.reports if "trace" in rep],
                                  p.total, p.artifact_bytes()) for p in passes[1:]]

        reference = _files(passes[0].out_dir)
        for p in passes[1:]:
            if _files(p.out_dir) != reference:
                bad.append(f"{p.out_dir.name}: artifacts differ from the untraced pass")

        expected = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
        if set(metrics[0]) != expected:
            bad.append(f"tracer metrics {sorted(set(metrics[0]) ^ expected)} do not match BENCHMARK.json")
        for m in spec["per_layer"]:
            name = m["name"]
            exact = m["unit"] in ("count", "bytes") or name.endswith(("repeat_frac", "undecided_frac"))
            if exact and metrics[0][name] != metrics[1][name]:
                bad.append(f"{name} not repeatable: {metrics[0][name]} vs {metrics[1][name]}")
        if seed == 0:
            bad += check_presets(workload, scenarios)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="front-dynamics")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (run.SRC / "nlfront" / "__init__.py").is_file():
        print(f"error: no nlfront package under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names if args.workload == "all" else [args.workload]:
        bad = selftest(name, args.seed, spec)
        for msg in bad:
            print(f"FAIL {name}: {msg}")
        print(f"{name} seed {args.seed}: {'ok' if not bad else f'{len(bad)} failures'}")
        failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
