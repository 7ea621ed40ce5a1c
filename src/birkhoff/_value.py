"""``Value``: the base of the package's small immutable value classes.

A subclass lists its fields in ``__slots__``; ``Value.__init__`` sets
them, one value each in that order, and a subclass's own ``__init__``
keeps only its checks and defaults.  Assigning or deleting a field
raises ``AttributeError``, values are equal only when they share a class
and fields, equal values hash equal, and the repr reads
``Name(field=value, ...)``.  The classes are written out, not generated
at import: generating them would import ``inspect`` and compile methods
for each class, which cost every command more start-up time than the
rest of the package's import.
"""

import operator


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields as a tuple, or the one field itself; attrgetter keeps
        # hash and == cheap (a lattice is hashed for every kernel built)
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes one value per field")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
