"""Record classes by hand: value equality, hash and repr from a field list.

The package's record types (code state, transcripts, ledgers, clusters,
reports) need what a dataclass would give them and no more.  They derive
from these two bases instead: every CLI command is a fresh interpreter,
and on CPython 3.11 ``import dataclasses`` (which imports ``inspect``)
took about 4 ms and each decorated class about 0.4 ms more, close to half
of ``import mdsrepair``.
"""

from .errors import ReadOnly


class Record:
    """``==``, ``hash`` and a field-by-field repr over ``_fields``.

    ``_fields`` names the fields in the order a Frozen ``__init__`` takes
    them.  Two records are equal when they are of the same class and their
    fields are equal, as for a dataclass; a mutable subclass sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A Record that cannot change after ``__init__``, which sets it with ``_set``.

    Assigning or deleting an attribute raises ``ReadOnly``, an
    ``AttributeError``.  Copies and pickles go back through ``__init__``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set each field of ``_fields`` to the value at its position."""
        setter = object.__setattr__
        for name, value in zip(self._fields, values):
            setter(self, name, value)

    def __setattr__(self, name, value):
        raise ReadOnly(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise ReadOnly(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()
