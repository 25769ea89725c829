"""Count the code lines of gaussocc's modules, or compare two trees.

    python tools/code_lines.py [TREE]
    python tools/code_lines.py PARENT CHANGE

A code line is a line that some token other than a comment starts on or
spans, less the lines of docstrings (the string that opens a module, class
or function body). Blank and comment-only lines do not count; every line
of a multi-line string that is not a docstring does. Each TREE is the root
of a source checkout, whose modules are ``src/gaussocc/*.py``; the default
is the checkout this tool sits in. With one tree the tool prints its lines
per module and in total; with two, both counts and the change per module.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of each docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, bodies) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                starts.add((value.lineno, value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Code lines of one module's ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def tree_lines(root: Path) -> dict[str, int]:
    """Code lines per module of the package in the checkout at ``root``."""
    package = root / "src" / "gaussocc"
    modules = sorted(package.glob("*.py"))
    if not modules:
        raise SystemExit(f"{package}: no modules")
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in modules}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE", help="one tree, or a parent and a change tree")
    args = ap.parse_args(argv)
    trees = args.trees or [Path(__file__).resolve().parents[1]]
    if len(trees) > 2:
        ap.error("give one tree, or a parent and a change tree")
    counts = [tree_lines(root) for root in trees]
    names = sorted(set().union(*counts))
    rows = [[name, *(c.get(name, 0) for c in counts)] for name in names]
    rows.append(["total", *(sum(c.values()) for c in counts)])
    header = ["module", "lines"] if len(counts) == 1 else ["module", "parent", "change", "diff"]
    if len(counts) == 2:
        rows = [[*row, f"{row[2] - row[1]:+d}"] for row in rows]
    width = max(len(str(row[0])) for row in rows + [header])
    for row in [header, *rows]:
        print(f"{row[0]:<{width}}" + "".join(f"{v:>8}" for v in row[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
