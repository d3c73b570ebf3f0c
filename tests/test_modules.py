"""Module boundaries: a sparsix module imports only the public names of another."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsix"


def test_no_module_imports_a_private_name():
    paths, found = sorted(PACKAGE.glob("*.py")), []
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # relative imports, and absolute ones of the package, reach another sparsix module
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sparsix"
            ):
                found += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
