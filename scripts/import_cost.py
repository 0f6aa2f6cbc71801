"""Print the start-up cost of `import nlfront.cli`.

Each repeat is one fresh interpreter run with `-X importtime` that imports
numpy (as every caller has by then) and then nlfront.cli from this
checkout's src/.  The script prints the number of modules loaded and the
scipy subpackages among them (none: nlfront runs on numpy alone, and a
name here means an import came back), then the median cumulative import
time of nlfront.cli and of the heaviest nlfront modules and scipy
subpackages it loads.  A module's time counts only the modules it loads
first, so a subpackage loaded inside an nlfront module is counted in
both.  A subpackage reached through scipy's lazy attribute access (`from
scipy import special`) is loaded by importlib, which `-X importtime` does
not log, so its time shows only in the importing module's; the subpackage
list names it all the same.

    python3 scripts/import_cost.py [--repeats 5] [--top 8]
"""
import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CODE = ("import numpy, sys, nlfront.cli; print(len(sys.modules)); "
        "print(*(m for m in sys.modules if m.startswith('scipy.') and m.count('.') == 1))")
PUBLIC = re.compile(r"nlfront\.\w+|scipy\.[a-z]\w*")
# "import time:       412 |      12345 |     scipy.linalg"
LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|(\s+)(\S+)")


def one_run() -> tuple[int, list[str], dict[str, int]]:
    """Module count, scipy subpackages and {module: cumulative us} of one
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", CODE], env=env,
                         capture_output=True, text=True, check=True)
    cumulative = {}
    for match in LINE.finditer(out.stderr):
        name = match.group(3)
        if PUBLIC.fullmatch(name):
            cumulative[name] = int(match.group(1))
    count, subpackages = out.stdout.splitlines()[-2:]
    return int(count), sorted(filter(PUBLIC.fullmatch, subpackages.split())), cumulative


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--top", type=int, default=8, help="modules to list after nlfront.cli")
    args = parser.parse_args()
    runs = [one_run() for _ in range(max(1, args.repeats))]
    print(f"modules loaded after import nlfront.cli: {runs[-1][0]}")
    print(f"scipy subpackages among them: {' '.join(runs[-1][1])}")
    names = set().union(*(times for _, _, times in runs))
    median = {n: statistics.median(t.get(n, 0) for _, _, t in runs) for n in names}
    print(f"median cumulative -X importtime over {len(runs)} fresh interpreters:")
    ranked = sorted(median, key=lambda n: (n != "nlfront.cli", -median[n]))
    for name in ranked[: 1 + args.top]:
        print(f"  {name:20s} {median[name] / 1e6:7.3f} s")


if __name__ == "__main__":
    main()
