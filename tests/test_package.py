"""Module boundaries of the package: what one module may take from another,
that no public name is kept for the tests alone, and that no private
module-level name is left without a reader."""

import ast
from collections import Counter
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


def _module_level(tree):
    """(name, node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _public_definitions(tree):
    """(name, node) of each public module-level function, class and
    constant, and of each public method."""
    for name, node in _module_level(tree):
        if not name.startswith("_"):
            yield name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def _private_definitions(tree):
    """(name, node) of each private module-level function, class and
    constant."""
    return ((name, node) for name, node in _module_level(tree)
            if name.startswith("_"))


def _name_counts(node):
    """How often each name is read as an ast.Name or ast.Attribute in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def _unread(definitions) -> list[str]:
    """module.name of each name that `definitions` yields for a module of
    the package and that nothing in the package reads outside the name's
    own definition."""
    package = Path(sthirring.__file__).parent
    trees = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert len(trees) > 5  # the scan saw the package
    everywhere = sum(map(_name_counts, trees.values()), Counter())
    return [f"{path.stem}.{name}"
            for path, tree in trees.items() if path.name != "__init__.py"
            for name, node in definitions(tree)
            if everywhere[name] == _name_counts(node)[name]]


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name in a module must be used somewhere else in the package
    (outside its own definition).  Code that only tests reach belongs in
    the tests; a function that only the benchmark harness names has no
    caller either, and the harness's metric of it reads 0."""
    assert _unread(_public_definitions) == []


def test_every_private_module_level_name_is_read():
    """A private module-level function, class or constant must be read
    somewhere in the package outside its own definition, so a helper or
    table that its last reader stopped using fails here."""
    assert _unread(_private_definitions) == []


def test_only_the_writers_list_a_sum_in_key_order():
    """A sum iterates as it holds its entries; listing them in key order
    (`entries`, `TermSum.terms`, `DeformedSum.diagrams`) serializes each
    one, and only an output needs that order.  So in the package only the
    CLI's writers and gamma-check's seeded draws call a listing."""
    package = Path(sthirring.__file__).parent
    callers = Counter(
        path.name for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("entries", "terms", "diagrams"))
    assert sorted(callers) == ["cli.py", "properties.py"]
    assert callers["properties.py"] == 3  # the seeded draws


def test_the_cli_holds_no_numerics():
    """kernel-check's trials, tolerances and verdict live in `kernels`, as
    gamma-check's live in `properties`: `cli` imports no numpy and takes
    one name, the command's entry point, from `kernels`."""
    tree = ast.parse((Path(sthirring.__file__).parent / "cli.py").read_text())
    modules, from_kernels = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            if node.level == 1 and node.module == "kernels":
                from_kernels += [a.name for a in node.names]
    assert "argparse" in modules  # the scan saw the imports
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert from_kernels == ["kernel_check"]
