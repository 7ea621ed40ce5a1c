"""Checks on the package's source.

No function in the package calls itself, except the few listed in
``BOUNDED``, each with the bound on its depth; so no tree depth can reach
Python's recursion limit, and a new self-call anywhere fails here.  No
module but ``_value.py`` calls ``object.__setattr__``: every value class
sets its fields through ``Value.__init__``.  And ``Kernel.__init__``
calls no ``fold``, ``expand`` or ``sizes``: a kernel takes the group its
producer declares and never tests a map for symmetry."""

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


# module -> its self-calls, each of a bounded depth
BOUNDED = {
    # at most about |T| levels, and pi calls it only when |T| <= cutoff
    "evaluator.py": ["_pi"],
    # at most m levels
    "oracle.py": ["_nondecreasing"],
}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_function_calls_itself(module):
    found = self_calls((SRC / module).read_text(encoding="utf-8"))
    assert found == BOUNDED.get(module, [])


def test_self_calls_finds_recursion():
    source = ("def f(t):\n    return f(t.left)\n"
              "class C:\n    def g(self):\n        return self.g()\n"
              "def h(t):\n    return f(t)\n")
    assert self_calls(source) == ["f", "g"]


def setattr_calls(source):
    """The lines that call ``object.__setattr__``."""
    return [call.lineno for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__setattr__"
            and getattr(call.func.value, "id", None) == "object"]


def test_only_value_sets_fields():
    setters = [p.name for p in sorted(SRC.glob("*.py"))
               if setattr_calls(p.read_text(encoding="utf-8"))]
    assert setters == ["_value.py"]



def method_calls(source, cls, method):
    """The names of the attributes that ``cls.method`` calls."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            fn, = (f for f in node.body
                   if isinstance(f, ast.FunctionDef) and f.name == method)
            return {call.func.attr for call in ast.walk(fn)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)}
    raise LookupError(f"no class {cls}")


def test_kernel_constructor_tests_no_symmetry():
    source = (SRC / "hamiltonian.py").read_text(encoding="utf-8")
    assert method_calls(source, "Kernel", "__init__") & {
        "fold", "expand", "sizes"} == set()
