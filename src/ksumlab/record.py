"""Records: immutable classes with ``__slots__`` that compare, hash, print and
pickle by their fields as frozen dataclasses do, with no ``dataclasses``
import and no generated code."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record, compared, hashed and shown by its fields as a
    frozen dataclass is.

    A subclass names its fields in ``__slots__`` and sets them once, in
    order, with ``_set``; assigning or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        cls._values = (lambda self: get(self)) if len(cls.__slots__) > 1 else (lambda self: (get(self),))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
