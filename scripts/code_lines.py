"""Count the code lines of each nlfront module and of the package.

    python3 scripts/code_lines.py [SRC_DIR]

A code line is a line that is not blank, not comment-only, and not inside
a docstring (the docstrings of the module, of each class and of each
function, found with `ast`).  SRC_DIR defaults to the package directory
`src/nlfront` next to this script.  Prints one line per module, then the
total.
"""
import argparse
import ast
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """1-based line numbers covered by docstrings."""
    covered: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            covered.update(range(body[0].lineno, body[0].end_lineno + 1))
    return covered


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = _docstring_lines(ast.parse(text))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "nlfront")
    args = parser.parse_args()
    counts = {p.stem: code_lines(p) for p in sorted(args.src.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:14s} {n:6,d}")
    print(f"{'total':14s} {sum(counts.values()):6,d}")


if __name__ == "__main__":
    main()
