"""Print the lines of each module of src/upfmec, and their total, by kind.

Run as ``python3 tools/src_lines.py``.  A docstring line lies in the span
of a module, class or function docstring, as ``ast`` gives it; a blank
line is empty or white space; a comment line holds only a comment; every
other line is code.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "upfmec"
KINDS = ("code", "docstring", "comment", "blank")
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(text: str) -> Counter:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return Counter(
        "docstring" if n in docs else "blank" if not line.strip()
        else "comment" if line.lstrip().startswith("#") else "code"
        for n, line in enumerate(text.splitlines(), 1)
    )


def row(name: str, counts: Counter) -> str:
    return f"{name:<14}{sum(counts.values()):>7,}" + "".join(f"{counts[k]:>11,}" for k in KINDS)


if __name__ == "__main__":
    total = Counter()
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(SRC.glob("*.py")):
        total.update(counts := split(path.read_text(encoding="utf-8")))
        print(row(path.name, counts))
    print(row("total", total))
