"""Each layer's ``__all__`` names only what that layer itself defines.

A name in ``__all__`` must be bound by a top-level ``def``, ``class`` or
assignment in the layer's own source, not by an import, and must resolve
on the loaded module; so a removed name, or another layer's name
re-exported, cannot stay public unnoticed."""

import ast
import importlib
import inspect

import pytest

LAYERS = ["cuspdual", "k3glue", "milnorfiber", "numcheck", "quadlattice", "sl2z"]


def _defined_at_top_level(source: str) -> set[str]:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_only_what_the_layer_defines(layer):
    module = importlib.import_module(f"tpqr.{layer}")
    defined = _defined_at_top_level(inspect.getsource(module))
    assert [name for name in module.__all__ if name not in defined] == []
    for name in module.__all__:
        getattr(module, name)
