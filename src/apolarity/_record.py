"""Frozen value records, without `dataclasses`.

`dataclasses` imports `inspect`, and with it `ast`, `dis` and `tokenize`:
several milliseconds of every command-line start, more than a short
command computes.  So the value classes of the commands that do not build
a witness derive from `Record`, which gives them what `frozen=True` gave.
"""

from __future__ import annotations

# setfield(record, name, value) stores a field past the refusing __setattr__.
# Unlike a write to record.__dict__, it leaves the values inline in the
# instance, with no dict of its own until one is asked for: about 190 bytes
# less per record, on thousands of records per verifier pass.
setfield = object.__setattr__


class Record:
    """A frozen value whose fields are named, in constructor order, by its
    class's `__match_args__` (which also serves `match` statements).

    Records are equal when they are of one class and their tuples of field
    values are equal, and a record's hash is that tuple's.  The repr lists
    the fields as `name=value`, leaving out those named in `_hidden`.
    Assigning or deleting any attribute raises AttributeError.  A subclass
    writes its own `__init__`, which stores each field with `setfield`.  A
    record keeps an instance dict, which `copy` and `pickle` restore
    directly, so they need nothing more.
    """

    __match_args__: tuple = ()
    _hidden: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__ if name not in self._hidden)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
