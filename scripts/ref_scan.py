"""List every top-level def, class and method of src/minimt that nothing
outside its own definition names, then every defaulted parameter of those
functions and methods that no call passes, then every field of a top-level
dataclass that nothing reads:

    python3 scripts/ref_scan.py [<checkout>]

Only the .py files of src (but not src/minimt/__init__.py, whose re-exports
would hide names only the tests reach), perfbench, demos and scripts count,
this scan's own file excepted.

A name counts as referenced when it appears as a whole word in one of them,
outside the lines of its own definition (decorators included). Dunder
methods are called implicitly and are skipped. Each unreferenced name
prints as `path:line kind name`.

A defaulted parameter counts as passed when some call in those files whose
callee has the function's name (a class's name for its __init__) passes it
by keyword, or by position past the bound self or cls of a method. A call
with *args or **kwargs passes every parameter it could reach. Each
parameter no call passes prints as `path:line param function.parameter`.

A field counts as read when an attribute of its name is read in one of
those files (of any object, so a name two classes share is read for both),
or when its class goes through asdict: its name appears in a top-level
def or class that calls asdict, its own included. Each unread field prints
as `path:line field Class.field`.

The three lists are candidates for deletion unless documented. The
documented exceptions, which are all that the scan prints today:
- the oracles `removal_prefix_consistent` and `sum_all`;
- `run_compression_pipeline` and `SubprocessScorer`, and their parameters,
  which the README documents (the pipeline's `distill_cfg` and `teacher`,
  the scorer's `name`), and the fields of the `PipelineResult` that
  `run_compression_pipeline` returns;
- `read_corpus`'s `format`, the README's TSV input;
- `evaluate_direction`'s `clock`, which the tests replace with a fake clock.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SCANNED = ("src", "perfbench", "demos", "scripts")


def definitions(path: Path):
    """(kind, callee name, first line, last line, node) of each top-level
    def and class in path and of each method of a top-level class; an
    __init__ is called by its class's name."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        nested = node.body if isinstance(node, ast.ClassDef) else []
        for defn, kind in [(node, None), *((m, "method") for m in nested)]:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            kind = kind or ("class" if isinstance(defn, ast.ClassDef) else "def")
            first = min([defn.lineno, *(d.lineno for d in defn.decorator_list)])
            callee = node.name if defn.name == "__init__" else defn.name
            yield kind, callee, first, defn.end_lineno, defn


def defaulted(defn, kind: str):
    """(name, line, positional index or None) of each parameter of defn
    that has a default; a method's index counts from after self or cls."""
    args = defn.args
    positional = [*args.posonlyargs, *args.args]
    bound = kind == "method" and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in defn.decorator_list)
    for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            len(positional) - len(args.defaults)):
        yield arg.arg, arg.lineno, k - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, arg.lineno, None


def passed_by_calls(trees) -> dict[str, tuple[set, int]]:
    """callee name -> (keywords passed, most positional arguments passed)
    over every call in trees; a * or ** argument passes everything."""
    seen: dict[str, tuple[set, int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            keywords, width = seen.get(name, (set(), 0))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            width = max(width, float("inf") if starred else len(node.args))
            for kw in node.keywords:
                keywords.add("**" if kw.arg is None else kw.arg)
            seen[name] = (keywords, width)
    return seen


def is_dataclass(defn) -> bool:
    """Whether defn is decorated with @dataclass or @dataclass(...)."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in defn.decorator_list)


def read_fields(trees) -> tuple[set, set]:
    """(every attribute name read in trees, every name in a top-level
    definition of trees that calls asdict, the definition's own included)."""
    attributes, through_asdict = set(), set()
    for tree in trees:
        for node in tree.body:
            names = {getattr(node, "name", None)}
            calls_asdict = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    attributes.add(sub.attr)
                elif isinstance(sub, ast.Name):
                    names.add(sub.id)
                calls_asdict |= isinstance(sub, ast.Call) and "asdict" in (
                    getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
            if calls_asdict:
                through_asdict |= names
    return attributes, through_asdict


def main(root: Path) -> int:
    package = root / "src" / "minimt"
    sources = {path: path.read_text()
               for top in SCANNED for path in sorted((root / top).rglob("*.py"))
               if path not in (package / "__init__.py", root / "scripts" / "ref_scan.py")}
    lines_of = {path: text.splitlines() for path, text in sources.items()}
    trees = [ast.parse(text, str(path)) for path, text in sources.items()]
    calls = passed_by_calls(trees)
    attributes, through_asdict = read_fields(trees)
    found = 0
    unpassed, unread = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for kind, name, first, last, defn in definitions(path):
            if kind == "class" and is_dataclass(defn) and name not in through_asdict:
                unread.extend(
                    f"{path.relative_to(root)}:{field.lineno} field {name}.{field.target.id}"
                    for field in defn.body
                    if isinstance(field, ast.AnnAssign)
                    and isinstance(field.target, ast.Name)
                    and field.target.id not in attributes)
            if not isinstance(defn, ast.ClassDef):
                keywords, width = calls.get(name, (set(), 0))
                unpassed.extend(
                    f"{path.relative_to(root)}:{line} param {name}.{param}"
                    for param, line, index in defaulted(defn, kind)
                    if param not in keywords and "**" not in keywords
                    and (index is None or index >= width))
            if defn.name.startswith("__") and defn.name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for other, lines in lines_of.items()
                       for n, line in enumerate(lines, 1)
                       if not (other == path and first <= n <= last)):
                print(f"{path.relative_to(root)}:{first} {kind} {name}")
                found += 1
    for line in unpassed + unread:
        print(line)
    print(f"{found} unreferenced, {len(unpassed)} unpassed, {len(unread)} unread",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1
                       else Path(__file__).resolve().parents[1])))
