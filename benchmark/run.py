"""nlfront benchmark: run one workload through ``nlfront.cli.run`` and report.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all [--seed N --seconds S]

Run from the repository root; the package is imported from ./src.  A run
repeats the workload's scenarios (a pass) while the time budget lasts.  A
pass is one fresh interpreter (runpass.py) that imports nlfront and forks a
process per scenario, which answers as one command-line invocation would,
so no state carries from one answer to the next.  Every answer is checked,
and the metrics named in BENCHMARK.json are printed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  Times are scaled to a reference
machine speed by samples of calibration work taken during the imports and
during each call (see runpass.py).  wall_s and cpu_s are the median scaled
time of each scenario over the passes, summed; setup_s is the median scaled
set-up (imports plus config validation) over all the scenarios of the run;
peak_rss_mb is the largest peak memory of the scenario processes.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced passes (medians) with the
tracing overhead; the spans of the last traced pass are written to
.benchmark_out/spans-<workload>-seed<N>-<index>-<scenario>.csv.

BLAS and OpenMP pools are pinned to one thread, so every library call is
single-threaded; nproc, versions and the BLAS build are printed with every
result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
CHILD_TIMEOUT = 120   # seconds per scenario
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> int:
    threads = min(1, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def _run_pass(plan: Path, count: int) -> list[dict]:
    """Run runpass.py on one pass's plan; a report per scenario, or errors."""
    proc = subprocess.Popen([sys.executable, str(HERE / "runpass.py"), str(SRC), str(plan)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT * count)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the pass process and its scenario children
        proc.communicate()
        return [{"error": f"no answer within {CHILD_TIMEOUT * count} s"}] * count
    try:
        reports = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [{"error": f"exit {proc.returncode}: {err.strip()[-500:]}"}] * count
    return reports


class Pass:
    """One execution of every scenario of a workload, each in its own process."""

    def __init__(self, scenarios, config_paths, out_dir: Path, spans: Path | None = None):
        self.scenarios, self.config_paths, self.out_dir = scenarios, config_paths, out_dir
        self.spans = spans   # prefix of the span files; None for an untraced pass
        self.reports: list[dict] = []
        self.problems: list[list[str]] = []

    def run(self) -> "Pass":
        targets = [self.out_dir / f"{i}-{sc.name}" for i, sc in enumerate(self.scenarios)]
        plan = self.out_dir.with_suffix(".json")
        plan.write_text(json.dumps([
            {"config": str(path), "out": str(target),
             "spans": None if self.spans is None else f"{self.spans}-{target.name}.csv"}
            for path, target in zip(self.config_paths, targets)]))
        self.reports = _run_pass(plan, len(targets))
        for sc, target, rep in zip(self.scenarios, targets, self.reports):
            self.problems.append(self._check(sc, target, rep))
        return self

    @staticmethod
    def _check(sc, target, rep) -> list[str]:
        bad = [] if rep.get("restored", True) else ["tracing left a wrapped attribute behind"]
        if rep.get("error"):
            return bad + [rep["error"]]
        if rep["code"] != 0:
            return bad + [f"exit code {rep['code']}: {rep['status'].strip()}"]
        try:
            return bad + sc.check(target, sc.config)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            return bad + [f"unreadable artifacts: {exc.__class__.__name__}: {exc}"]

    @property
    def traced(self) -> bool:
        return self.spans is not None

    def times(self, key: str) -> list[float]:
        return [rep.get(key, 0.0) for rep in self.reports]

    @property
    def total(self) -> float:
        return sum(self.times("call_s"))

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())


def run_workload(args, spec: dict) -> dict:
    threads = pin_threads()
    sys.path.insert(0, str(SRC))

    scenarios = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        paths = []
        for i, sc in enumerate(scenarios):
            path = work / f"{i}-{sc.name}.json"
            path.write_text(json.dumps(sc.config, indent=1))
            paths.append(path)
        env = environment(threads)
        workloads.assert_regime(scenarios)

        runs: list[Pass] = []

        def one_pass(traced: bool) -> None:
            out = work / f"pass{len(runs)}"
            out.mkdir()
            spans = OUT / f"spans-{args.workload}-seed{args.seed}" if traced else None
            runs.append(Pass(scenarios, paths, out, spans).run())

        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while not runs or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            one_pass(False)
            if args.trace:
                one_pass(True)
            last = time.perf_counter() - t0

        attempted = sum(len(p.problems) for p in runs)
        failed = sum(bool(bad) for p in runs for bad in p.problems)
        plain = [p for p in runs if not p.traced]
        if args.trace:
            traced = [p for p in runs if p.traced]
            per_pass = [tracer.metrics([rep["trace"] for rep in p.reports if "trace" in rep],
                                       p.total, p.artifact_bytes()) for p in traced]
            values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            values["trace.overhead_frac"] = (
                statistics.median(sum(p.times("wall_ref_s")) for p in traced)
                / statistics.median(sum(p.times("wall_ref_s")) for p in plain) - 1.0)
            wanted = spec["per_layer"]
        else:
            def per_scenario(key: str) -> float:
                return sum(statistics.median(col) for col in zip(*(p.times(key) for p in plain)))
            values = {
                "wall_s": per_scenario("wall_ref_s"),
                "cpu_s": per_scenario("cpu_ref_s"),
                "setup_s": statistics.median(x for p in runs for x in p.times("setup_ref_s")),
                "peak_rss_mb": max(x for p in runs for x in p.times("peak_rss_mb")),
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

        setups = sorted(x for p in runs for x in p.times("setup_s"))
        units = [x for p in runs for rep in p.reports for x in rep.get("unit_s", [])] or [0.0]
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{len(runs)} passes of {len(scenarios)} scenarios; unscaled set-up "
              f"{setups[0]:.3f}-{setups[-1]:.3f} s, calibration unit {min(units) * 1e3:.2f}-"
              f"{max(units) * 1e3:.2f} ms")
        for i, p in enumerate(runs):
            print(f"  pass {i}{' traced' if p.traced else ''}: unscaled {p.total:.3f} s "
                  f"({', '.join(f'{w:.3f}' for w in p.times('call_s'))}), scaled "
                  f"({', '.join(f'{w:.3f}' for w in p.times('wall_ref_s'))})")
            for sc, bad in zip(scenarios, p.problems):
                for msg in bad:
                    print(f"  FAILED {sc.name}: {msg}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_frac':40s} {failed / attempted:.6g} ({failed}/{attempted})")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process; a table of end-to-end metrics."""
    rows, ok = [], True
    for name in names:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print(f"\n{'workload':18s} {'metric':14s} {'value':>12s} unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:14s} {m['value']:12.6g} {m['unit']}")
        print(f"{name:18s} {'fail_frac':14s} {result['failed'] / result['attempted']:12.6g} "
              f"({result['failed']}/{result['attempted']})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlfront" / "__init__.py").is_file():
        print(f"error: no nlfront package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
