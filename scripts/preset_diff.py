"""Compare the artifacts of every command under two nlfront source trees.

    python3 scripts/preset_diff.py OLD_SRC NEW_SRC

Each tree runs, through `nlfront.cli.run`, every built-in preset, every
benchmark scenario at seed 0 (`benchmark/workloads.generate`, named
workload.scenario) and the configs of `EXTRA` (named extra.<name>), which
write what no preset writes: `eigen`, `evolve`, a zero steady state, a
squeeze-regime decision tree and `d_thresholds` in its three fixed modes.
Each tree runs in its own fresh interpreter (PYTHONPATH=<tree>), into a
temporary directory, so nothing is written under either tree.  One line per
artifact:

    name file: identical
    name file: max rel diff 1.5e-14 at lambda_p[3]
    name file: max rel diff 2e-13 at c; by field: c 2e-13, x 1e-16
    name file: max rel diff 1e-15 at u[4]; non-numeric changed: verdict
    name file: only in old

The relative difference of two numbers a, b is |a - b| / max(|a|, |b|).
JSON artifacts are compared leaf by leaf and CSV artifacts cell by cell;
a field is a JSON path or a CSV column, with list and row indices dropped.
A changed string, flag, null or shape counts as a non-numeric change.

Exits 1 when a config's exit code changes, an artifact is only in one
tree or a non-numeric field changes (a verdict or a flag), else 0: numeric
differences alone are printed, not judged.
"""
import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_D6 = {"d1": 6.0, "d2": 6.0}
EXTRA = {
    "eigen": {"command": "eigen", "numeric": {"l": 3.0}},
    "evolve": {"command": "evolve", "params": _D6, "numeric": {"l": 2.0, "T": 10.0}},
    "steady-zero": {"command": "steady", "params": _D6, "numeric": {"l": 0.5}},
    "decision_tree": {"command": "report", "params": _D6, "report": {"decision_tree": True}},
    **{f"d_thresholds-{mode}": {"command": "threshold", "params": {"d1": 6.0, "d2": d2},
                                "threshold": {"name": "d_thresholds", "mode": mode}}
       for mode, d2 in (("fixed_d2_small", 1.0), ("fixed_d2_mid", 10.0),
                        ("fixed_d2_large", 20.0))},
}

# run in the child interpreter: argv[1] is the output root, argv[2] a JSON
# file of the configs to run besides the presets
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
from nlfront import cli
root = Path(sys.argv[1])
docs = {name: {"preset": name} for name in cli.presets()}
docs.update(json.loads(Path(sys.argv[2]).read_text()))
codes = {}
for name, doc in docs.items():
    cfg = root / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.run(cfg, out_dir=root / name)
(root / "exit_codes.json").write_text(json.dumps(codes))
"""


def _configs() -> dict:
    """The benchmark's seed-0 scenario configs and EXTRA, by name."""
    path = _ROOT / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    docs = {f"{w}.{sc.name}": sc.config
            for w in ("threshold-search", "fixed-habitat", "front-dynamics")
            for sc in workloads.generate(w, 0)}
    docs.update({f"extra.{name}": doc for name, doc in EXTRA.items()})
    return docs


def _run_configs(src: Path, root: Path, configs: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUNNER, str(root), str(configs)], env=env,
                   check=True)
    return json.loads((root / "exit_codes.json").read_text())


def _number(v):
    """v as a float when it is a number (a CSV cell that parses as one), else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _leaves(obj, path=""):
    """(path, leaf) for every leaf of a parsed JSON value; a container
    yields its own path with its shape, so a changed shape shows."""
    if isinstance(obj, dict):
        yield path, ("dict", tuple(sorted(obj)))
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        yield path, ("list", len(obj))
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _csv_leaves(text: str):
    rows = [line.split(",") for line in text.splitlines()]
    header = rows[0]
    yield "header", tuple(header)
    yield "rows", len(rows) - 1
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row):
            yield f"{header[j] if j < len(header) else j}[{i}]", cell


def _compare(old: Path, new: Path) -> tuple[str, bool]:
    """The artifact's line, and whether a non-numeric field changed."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical", False
    if old.suffix == ".json":
        la, lb = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    else:
        la, lb = dict(_csv_leaves(a.decode())), dict(_csv_leaves(b.decode()))
    worst, where, fields, other = 0.0, None, {}, []
    for key in sorted(set(la) | set(lb)):
        x, y = la.get(key), lb.get(key)
        if x == y:
            continue
        field = key.split("[")[0] or "(root)"  # one name per field
        nx, ny = _number(x), _number(y)
        if nx is None or ny is None:
            other.append(field)
            continue
        if nx == ny:  # equal values written differently, such as 0.0 and -0.0
            continue
        rel = abs(nx - ny) / max(abs(nx), abs(ny))
        if math.isnan(rel):  # a NaN or an infinity on one side only
            rel = math.inf
        fields[field] = max(fields.get(field, 0.0), rel)
        if rel > worst:
            worst, where = rel, key
    parts = []
    if fields:
        parts.append(f"max rel diff {worst:.2g} at {where}")
        if len(fields) > 1:
            parts.append("by field: " + ", ".join(f"{f} {r:.2g}" for f, r in fields.items()))
    if other:
        parts.append("non-numeric changed: " + ", ".join(dict.fromkeys(other)))
    return "; ".join(parts) or "bytes differ, no field differs", bool(other)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the baseline tree's src directory")
    ap.add_argument("new", type=Path, help="the changed tree's src directory")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp) / "old", Path(tmp) / "new"
        configs = Path(tmp) / "configs.json"
        configs.write_text(json.dumps(_configs()))
        codes = []
        for src, root in zip((args.old, args.new), roots):
            root.mkdir()
            codes.append(_run_configs(src.resolve(), root, configs))
        changed = False
        for name in sorted(set(codes[0]) | set(codes[1])):
            if codes[0].get(name) != codes[1].get(name):
                print(f"{name}: exit code {codes[0].get(name)} -> {codes[1].get(name)}")
                changed = True
            files = [{p.name for p in (root / name).glob("*") if p.is_file()}
                     if (root / name).is_dir() else set() for root in roots]
            for fname in sorted(files[0] | files[1]):
                if fname not in files[1]:
                    line, other = "only in old", True
                elif fname not in files[0]:
                    line, other = "only in new", True
                else:
                    line, other = _compare(roots[0] / name / fname, roots[1] / name / fname)
                print(f"{name} {fname}: {line}")
                changed |= other
    return int(changed)


if __name__ == "__main__":
    sys.exit(main())
