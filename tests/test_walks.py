"""The tree layer walks with explicit stacks, so no tree depth can reach
Python's recursion limit: no function in ``trees.py`` or
``enumeration.py`` may call itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "birkhoff"


def self_calls(source):
    """The names of the functions that call themselves by name, directly
    or as a method of self."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Attribute) and isinstance(
                    callee.value, ast.Name) and callee.value.id == "self":
                name = callee.attr
            else:
                name = getattr(callee, "id", None)
            if name == fn.name:
                found.append(fn.name)
                break
    return found


@pytest.mark.parametrize("module", ["trees.py", "enumeration.py"])
def test_no_function_calls_itself(module):
    assert self_calls((SRC / module).read_text(encoding="utf-8")) == []


def test_self_calls_finds_recursion():
    source = ("def f(t):\n    return f(t.left)\n"
              "class C:\n    def g(self):\n        return self.g()\n"
              "def h(t):\n    return f(t)\n")
    assert self_calls(source) == ["f", "g"]
