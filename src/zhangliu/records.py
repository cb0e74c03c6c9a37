"""``Record``: the base of the package's immutable value classes.

A subclass names its fields, two or more, in ``__slots__`` and sets them,
in that order, through ``Record.__init__``.  A slot whose name starts with
an underscore is not a field: it holds state the subclass derives from the
fields and sets itself, and it takes no part in what follows.  The
subclass then gets what
``@dataclass(frozen=True)`` would give it, without the import of
``dataclasses`` (and of the ``inspect`` that it pulls in) that every
start-up of the CLI would pay:

* equality exactly when the other object has the same class and equal
  fields, and a hash of the fields that agrees with it;
* assignment and deletion of any attribute raise ``AttributeError``;
* ``repr`` is ``Name(field=value, ...)``;
* ``copy`` and ``pickle`` rebuild the object through its constructor.
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the tuple of the field values, read in C
        cls._values = property(operator.attrgetter(*cls._fields))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {self.__class__.__name__}")

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"
