"""Module boundaries of the package: what one module may take from another."""

import ast
from pathlib import Path

import sthirring


def test_no_module_imports_a_private_name_from_another():
    package = Path(sthirring.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("sthirring")):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []
    assert len(list(package.glob("*.py"))) > 5  # the scan saw the package
