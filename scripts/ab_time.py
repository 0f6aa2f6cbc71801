"""Time one call under two nlfront source trees, in alternating pairs.

    python3 scripts/ab_time.py OLD_SRC NEW_SRC CALL [--setup CODE] [--pairs N]

Each tree's `nlfront` package is copied into a temporary directory as
`nlfront_old` and `nlfront_new` and imported under that name, submodules
and all, so both trees live in one process and nothing is written under
either of them.  CALL (and the untimed --setup code, run once per tree
first) is Python run with `nlfront` bound to that tree's package and `np`
to numpy, for example

    python3 scripts/ab_time.py /tmp/old/src src \\
        --setup "p = nlfront.cli.build_params(nlfront.cli.preset_config('speed-match')['params'])" \\
        "nlfront.semiwave.solve_semiwave(p)"

Each pair times CALL once under each tree; the tree that goes first
alternates from pair to pair, so a drift in the machine's speed falls on
both alike.  One line per pair gives both times and their ratio new / old;
the last line gives the median ratio and its quartiles.  Single runs on a
shared VM swing by up to 1.7x, which a ratio taken within one pair mostly
cancels.
"""
import argparse
import importlib
import pkgutil
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def _load(src: str, name: str, root: Path):
    """The package `nlfront` under `src`, copied to root/name and imported
    as `name`, with every submodule."""
    shutil.copytree(Path(src) / "nlfront", root / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return pkg


def _timer(pkg, setup: str, call: str):
    scope = {"nlfront": pkg, "np": np}
    exec(setup, scope)
    code = compile(call, "<CALL>", "exec")

    def run() -> float:
        start = time.perf_counter()
        exec(code, scope)
        return time.perf_counter() - start

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", help="source root holding the old nlfront package")
    ap.add_argument("new_src", help="source root holding the new nlfront package")
    ap.add_argument("call", help="Python code to time, with `nlfront` bound to each tree")
    ap.add_argument("--setup", default="", help="untimed code run once per tree first")
    ap.add_argument("--pairs", type=int, default=6, help="alternating pairs to run")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = {side: _timer(_load(src, f"nlfront_{side}", Path(tmp)), args.setup, args.call)
                 for side, src in (("old", args.old_src), ("new", args.new_src))}
        ratios = []
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            times = {side: trees[side]() for side in order}
            ratios.append(times["new"] / times["old"])
            print(f"pair {pair + 1} ({order[0]} first): old {times['old']:.4f} s, "
                  f"new {times['new']:.4f} s, new/old {ratios[-1]:.3f}", flush=True)
    q1, med, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                   else ratios * 3)
    print(f"median new/old {med:.3f} (quartiles {q1:.3f}, {q3:.3f}) over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
