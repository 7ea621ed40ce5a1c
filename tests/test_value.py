"""The package's immutable value classes, and what importing the CLI loads."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from birkhoff._value import Value
from birkhoff.enumeration import ClassKind, TreeClassQuery
from birkhoff.evaluator import EvalConfig, ExpansionLedger, LedgerEntry
from birkhoff.hamiltonian import ModeLattice, Monomial, ResonanceConfig, h0
from birkhoff.oracle import BirkhoffResult, DiffReport, SequenceInfo
from birkhoff.trees import Decoration, Tree

SRC = Path(__file__).resolve().parents[1] / "src"

O, K, N = Decoration.CIRC, Decoration.K, Decoration.N
LAT = ModeLattice(1, 2)
CFG = EvalConfig(LAT, ResonanceConfig(0), 6)
KERNEL = h0(LAT, 6)
MONO = Monomial(((1,), (1,)), ((0,), (2,)))

# each value class, with the arguments of one value
VALUES = [
    (ModeLattice, (1, 2)),
    (ResonanceConfig, (1,)),
    (Monomial, (((1,),), ((0,),))),
    (Tree, (O, Tree(K), Tree(N))),
    (TreeClassQuery, (ClassKind.CIRC_RANGE, 2, 3)),
    (EvalConfig, (LAT, ResonanceConfig(0), 6)),
    (LedgerEntry, (Tree(K), Fraction(1, 2), KERNEL)),
    (ExpansionLedger, ((LedgerEntry(Tree(K), Fraction(1), KERNEL),), KERNEL,
                       CFG, 1, 3)),
    (SequenceInfo, ((1, 2), 1, 2)),
    (BirkhoffResult, (KERNEL, (KERNEL,))),
    (DiffReport, (True, KERNEL, ((MONO, Fraction(1), Fraction(0)),))),
]
IDS = [cls.__name__ for cls, _ in VALUES]


def hash_or_error(value):
    """hash(value), or the error of a value that holds a ``Kernel``,
    which is not hashable."""
    try:
        return hash(value)
    except TypeError as err:
        return str(err)


@pytest.mark.parametrize("cls, args", VALUES, ids=IDS)
def test_fields_are_read_only(cls, args):
    value = cls(*args)
    for name in cls.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, args", VALUES, ids=IDS)
def test_equal_values_hash_equal(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert hash_or_error(a) == hash_or_error(b)
    # a value of another class with the same fields is not equal
    twin = type(cls.__name__, (Value,),
                {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert a != twin(*args) and twin(*args) != a


@pytest.mark.parametrize("cls, args", [
    pytest.param(cls, args, id=cls.__name__) for cls, args in VALUES
    if cls in (LedgerEntry, SequenceInfo, BirkhoffResult, DiffReport)])
def test_shared_constructor_takes_one_value_per_field(cls, args):
    # these classes only set their fields, so Value.__init__ is their
    # constructor, and it must not drop or default a missing value
    assert "__init__" not in vars(cls)
    for wrong in (args[:-1], (*args, None)):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes one"):
            cls(*wrong)


def test_repr():
    assert repr(ModeLattice(dim=1, radius=2)) == "ModeLattice(dim=1, radius=2)"
    assert repr(MONO) == "Monomial(u=((1,), (1,)), ubar=((0,), (2,)))"


def test_keyword_arguments():
    assert ModeLattice(dim=1, radius=2) == ModeLattice(1, 2)
    assert EvalConfig(lattice=LAT, resonance=ResonanceConfig(), cutoff=6,
                      cap=9) == EvalConfig(LAT, ResonanceConfig(0), 6, 9)
    assert Tree(decoration=K) == Tree(K)


def after_cli_import(code):
    """stdout of ``code`` run in a fresh interpreter that has imported
    birkhoff.cli, as every command does first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", f"import birkhoff.cli; {code}"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_dataclasses():
    # both cost every command start-up time: see birkhoff._value
    assert after_cli_import(
        "import sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    ) == "[]\n"


def test_cli_import_builds_no_codec():
    # a codec and its lattice group and tables are built on first use,
    # not by the import that every job pays for
    assert after_cli_import(
        "import gc; from birkhoff import _codec as c; "
        "print(c._codec_for.cache_info().currsize, "
        "c._json_tables.cache_info().currsize, sum(isinstance("
        "o, (c._Codec, c._Group, c._Table)) for o in gc.get_objects()))"
    ) == "0 0 0\n"
