"""List every top-level def, class and method of src/minimt that nothing
outside its own definition names:

    python3 scripts/ref_scan.py [<checkout>]

A name counts as referenced when it appears as a whole word in a .py file
of src (but not src/minimt/__init__.py, whose re-exports would hide names
only the tests reach), perfbench, demos or scripts, outside the lines of
its own definition (decorators included). Dunder methods are called
implicitly and are skipped. Each unreferenced name prints as
`path:line kind name`; candidates for deletion unless documented.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SCANNED = ("src", "perfbench", "demos", "scripts")


def definitions(path: Path):
    """(kind, name, first line, last line) of each top-level def and class
    in path and of each method of a top-level class."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        nested = node.body if isinstance(node, ast.ClassDef) else []
        for defn, kind in [(node, None), *((m, "method") for m in nested)]:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if defn.name.startswith("__") and defn.name.endswith("__"):
                continue
            kind = kind or ("class" if isinstance(defn, ast.ClassDef) else "def")
            first = min([defn.lineno, *(d.lineno for d in defn.decorator_list)])
            yield kind, defn.name, first, defn.end_lineno


def main(root: Path) -> int:
    package = root / "src" / "minimt"
    sources = {path: path.read_text().splitlines()
               for top in SCANNED for path in sorted((root / top).rglob("*.py"))
               if path != package / "__init__.py"}
    found = 0
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for kind, name, first, last in definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for other, lines in sources.items()
                       for n, line in enumerate(lines, 1)
                       if not (other == path and first <= n <= last)):
                print(f"{path.relative_to(root)}:{first} {kind} {name}")
                found += 1
    print(f"{found} unreferenced", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1
                       else Path(__file__).resolve().parents[1])))
