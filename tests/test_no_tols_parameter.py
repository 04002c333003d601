"""No function in the package takes a `tols` parameter: a batch of states
crosses module lines as one `StateStack`, whose tolerance only `linalg`
reads, never as a loose (matrices, tolerances) pair."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/objectiva/*.py"))


def tols_parameters(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg == "tols":
                    found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return found


def test_the_scan_finds_a_tols_parameter():
    source = "def f(a, tols):\n    pass\ndef g(*, tols=1):\n    pass\nh = lambda tols: 0\n"
    assert tols_parameters(source) == [(1, "f"), (3, "g"), (5, "<lambda>")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_tols_parameter(path):
    assert tols_parameters(path.read_text()) == []
