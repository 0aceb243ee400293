"""The immutable value classes' shared base.

A value class names its fields in ``__match_args__``, in constructor order,
and stores them, with any memo of its own, in ``__slots__``.  Instances are
equal when they are of the same class and their fields are equal, hash over
their fields, print as ``Class(field=value, ...)``, copy and pickle through
their constructor, and refuse assignment and deletion with an
``AttributeError``.  A class whose instances are built on a hot path writes
its ``__init__``, ``__eq__`` and ``__hash__`` out.
"""

set_field = object.__setattr__
"""Assign a field from ``__init__``, past the refusal of ``Value.__setattr__``."""


class Value:
    __slots__ = __match_args__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs:
            named = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or named.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [named[name] for name in fields]
        elif len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")
