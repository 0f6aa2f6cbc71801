"""Count the code lines of each nlfront module and of the package.

    python3 scripts/code_lines.py [SRC_DIR] [--defs N]

A code line is a line that is not blank, not comment-only, and not inside
a docstring (the docstrings of the module, of each class and of each
function, found with `ast`).  SRC_DIR defaults to the package directory
`src/nlfront` next to this script.  Prints one line per module, then the
total; with --defs N, then the N module-level classes and functions with
the most code lines, as module.name (a class counts its methods).
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


def _code_line_numbers(text: str, tree: ast.Module) -> set[int]:
    """1-based numbers of the code lines of the source `text`, parsed as `tree`."""
    skip = _docstring_lines(tree)
    return {i for i, line in enumerate(text.splitlines(), 1)
            if i not in skip and line.strip() and not line.strip().startswith("#")}


def code_lines(path: Path) -> int:
    text = path.read_text()
    return len(_code_line_numbers(text, ast.parse(text)))


def largest_definitions(src: Path, count: int) -> list[tuple[str, int]]:
    """The `count` module-level definitions with the most code lines, as
    (module.name, code lines), decorators included."""
    sizes = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = _code_line_numbers(text, tree)
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                span = range(first, node.end_lineno + 1)
                sizes.append((f"{path.stem}.{node.name}", sum(i in lines for i in span)))
    return sorted(sizes, key=lambda kv: -kv[1])[:count]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "nlfront")
    parser.add_argument("--defs", type=int, default=0, metavar="N",
                        help="also print the N largest module-level definitions")
    args = parser.parse_args()
    counts = {p.stem: code_lines(p) for p in sorted(args.src.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:14s} {n:6,d}")
    print(f"{'total':14s} {sum(counts.values()):6,d}")
    if args.defs > 0:
        print()
        for name, n in largest_definitions(args.src, args.defs):
            print(f"{name:34s} {n:6,d}")


if __name__ == "__main__":
    main()
