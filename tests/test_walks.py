"""Checks on the package's source.

No function in the package calls itself, except the few listed in
``BOUNDED``, each with the bound on its depth; so no tree depth can reach
Python's recursion limit, and a new self-call anywhere fails here.  No
module but ``_value.py`` calls ``object.__setattr__``: every value class
sets its fields through ``Value.__init__``.  ``Kernel.__init__`` calls no
``fold``, ``expand`` or ``sizes``: a kernel takes the group its producer
declares and never tests a map for symmetry.  ``Kernel.__eq__`` reads no
map of its own: it tests the difference for zero, as ``compare`` does.
The orbit walks read tables: ``_mirror`` folds nothing, and
``_Group.fold``'s loop neither builds a sequence nor takes a ``min``.  And ``_Codec.key`` is the one
way from modes to a key: outside ``_codec.py`` only the bracket's
``_index`` and ``_contract`` read a codec's unit tables."""

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



def function(module, name, cls=None):
    """The definition of function ``name`` in ``module``, or of method
    ``name`` of class ``cls``."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    if cls is not None:
        tree, = (node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    fn, = (node for node in tree.body
           if isinstance(node, ast.FunctionDef) and node.name == name)
    return fn


def called(node):
    """The names a node calls, bare or as attributes."""
    return {getattr(call.func, "attr", getattr(call.func, "id", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_kernel_constructor_tests_no_symmetry():
    assert called(function("hamiltonian.py", "__init__", "Kernel")) & {
        "fold", "expand", "sizes"} == set()


def test_mirror_folds_nothing():
    assert "fold" not in called(function("hamiltonian.py", "_mirror"))


def test_equality_is_the_difference():
    # one path: ``==`` is ``-`` and ``is_zero``, as ``compare`` decides it
    eq = function("hamiltonian.py", "__eq__", "Kernel")
    read = {node.attr for node in ast.walk(eq)
            if isinstance(node, ast.Attribute)}
    assert read & {"nums", "den", "_held"} == set()
    assert called(eq) == {"isinstance"}
    assert any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
               for node in ast.walk(eq))


def test_fold_loop_reads_tables():
    loop, = (node for node in ast.walk(function("_codec.py", "fold", "_Group"))
             if isinstance(node, ast.For))
    assert not any(isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp))
                   for node in ast.walk(loop))
    assert "min" not in called(loop)


def unit_readers(source):
    """The names of the functions that read a ``unit``, ``u_units`` or
    ``ubar_units`` attribute, with those of any functions around them."""
    return {fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Attribute)
                    and node.attr in ("unit", "u_units", "ubar_units")
                    for node in ast.walk(fn))}


def test_only_the_bracket_reads_unit_tables():
    readers = {p.name: unit_readers(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "_codec.py"}
    assert {name: fns for name, fns in readers.items() if fns} == {
        "hamiltonian.py": {"_index", "_contract"}}
