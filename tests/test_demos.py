"""The demos are not run here (each takes minutes), but each must compile,
every name it imports from minimt must resolve, and every keyword it passes
to such a name must be one of its parameters."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _imported(tree):
    """local name -> object of every name the module imports from minimt."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "minimt":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                out[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "minimt":
                    importlib.import_module(alias.name)
    return out


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_minimt_names_resolve(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    names = _imported(ast.parse(source))
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            continue
        params = inspect.signature(names[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in params, \
                f"{path.name}:{node.lineno} {node.func.id}({kw.arg}=...)"
