"""Code lines of each module of src/pfrac and their total.

A code line holds a token other than a comment; blank lines, comments and
module, class and function docstrings do not count.  Run from anywhere:
    python tools/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        lines = {n for tok in tokenize.tokenize(f.readline) if tok.type not in SKIP
                 for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "src" / "pfrac"
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
