"""The one error taxonomy: three classes in `sthirring.errors`, each
reported by the CLI under its own exit code and stderr label."""

import ast
from pathlib import Path

import pytest

import sthirring
from sthirring import cli
from sthirring.errors import InvariantError, NumericalError, UsageError


@pytest.mark.parametrize("cls, code, label", [
    (UsageError, 2, "usage error"),
    (InvariantError, 3, "invariant violation"),
    (NumericalError, 4, "numerical failure"),
])
def test_each_error_reaches_its_exit_code(monkeypatch, capsys, cls, code,
                                          label):
    def failing(args):
        print("partial output")
        raise cls("the reason")

    monkeypatch.setattr(cli, "_cmd_expand", failing)
    assert cli.main(["expand", "--order", "0"]) == code
    captured = capsys.readouterr()
    assert captured.out == "partial output\n"
    assert captured.err == f"{label}: the reason\n"


def test_no_exception_classes_outside_the_errors_module():
    package = Path(sthirring.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases}
                if any(b.endswith(("Error", "Exception")) for b in bases):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
    assert len(list(package.glob("*.py"))) > 5  # the scan saw the package
