"""Immutable value records.

A :class:`Record` subclass names its fields in ``__slots__`` and may give
defaults for trailing fields in ``_defaults`` and a validation hook
``_check``.  Records are built positionally or by keyword, compare equal
only to a record of the same type with equal fields, hash by their field
tuple, print as ``Name(field=value, ...)`` and refuse attribute
assignment.  They give the package's value classes these semantics
without generating and compiling source for each class at import.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            # a name left here is unknown or was also given positionally
            raise TypeError(
                f"{cls.__name__}() got unexpected arguments {', '.join(kwargs)}"
            )
        self._check()

    def _check(self):
        """Validate the fields; runs at the end of construction."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")
