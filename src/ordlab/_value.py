"""The immutable value classes' shared base.

A value class names its constructor fields in ``__match_args__``, in order,
and stores them, with any memo of its own, in ``__slots__``.  The fields
whose names do not start with ``_`` are the compared ones: instances are
equal when they are of the same class and their compared fields are equal,
hash as the tuple of those fields, and print as ``Class(field=value, ...)``
over them.  Instances copy and pickle through their constructor, except
that ``PredicateExpr`` and ``Presentation`` hold a compiled scanner and do
not pickle; assignment and deletion raise ``AttributeError``.

The rule for writing a method out is traffic.  A class built on a hot path
writes out its ``__init__``, as does one that checks or defaults a field.
Four classes built on the hottest paths also have a private unchecked
maker, which skips ``__init__`` and writes the slots through their
descriptors: ``Ordinal`` and ``VeblenAtom`` (``ordinals._ordinal`` and
``_phi``), ``Worm`` (``worms._worm``) and ``Reflect``
(``theories._worm_theory``, which makes a worm's whole chain of
reflections in one loop).  Only a caller that has itself proved every cap
the constructor checks uses a maker; every other caller, and every caller
outside the package, goes through the checked constructor.
Only ``Ordinal`` and ``VeblenAtom`` write out ``__eq__`` and ``__hash__``:
terms are compared by ``==`` in the theory reduction and by callers, and
hashed by callers.  ``compare``, ``is_natural`` and ``format_ordinal`` use
neither.
"""

from operator import attrgetter

set_field = object.__setattr__
"""Assign a field from ``__init__``, past the refusal of ``Value.__setattr__``."""


class Value:
    __slots__ = __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        # _key(value) is the tuple of value's compared fields, built once
        # per class; attrgetter returns a bare field for a single name.
        super().__init_subclass__(**kwargs)
        names = cls._compared = tuple(n for n in cls.__match_args__ if not n.startswith("_"))
        if len(names) > 1:
            key = attrgetter(*names)
        elif names:
            key = lambda value, get=attrgetter(*names): (get(value),)
        else:
            key = lambda value: ()
        cls._key = staticmethod(key)

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")
