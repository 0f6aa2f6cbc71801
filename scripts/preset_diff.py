"""Compare every built-in preset's artifacts under two nlfront source trees.

    python3 scripts/preset_diff.py OLD_SRC NEW_SRC

Each tree runs every preset through `nlfront.cli.run` in its own fresh
interpreter (PYTHONPATH=<tree>), into a temporary directory, so nothing is
written under either tree.  One line per artifact:

    preset file: identical
    preset file: max rel diff 1.5e-14 at lambda_p[3]
    preset file: max rel diff 2e-13 at c; by field: c 2e-13, x 1e-16
    preset file: max rel diff 1e-15 at u[4]; non-numeric changed: verdict
    preset file: only in old

The relative difference of two numbers a, b is |a - b| / max(|a|, |b|).
JSON artifacts are compared leaf by leaf and CSV artifacts cell by cell;
a field is a JSON path or a CSV column, with list and row indices dropped.
A changed string, flag, null or shape counts as a non-numeric change.

Exits 1 when a preset's exit code changes, an artifact is only in one
tree or a non-numeric field changes (a verdict or a flag), else 0: numeric
differences alone are printed, not judged.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run in the child interpreter: argv[1] is the output root
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
from nlfront import cli
root = Path(sys.argv[1])
codes = {}
for name in cli.presets():
    cfg = root / f"{name}.json"
    cfg.write_text(json.dumps({"preset": name}))
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.run(cfg, out_dir=root / name)
(root / "exit_codes.json").write_text(json.dumps(codes))
"""


def _run_presets(src: Path, root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUNNER, str(root)], env=env, check=True)
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
        codes = []
        for src, root in zip((args.old, args.new), roots):
            root.mkdir()
            codes.append(_run_presets(src.resolve(), root))
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
