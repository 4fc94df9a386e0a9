"""Frozen records: the value classes of every problem, query and result.

A subclass declares its fields as annotations, a default as a class
attribute, and its checks in ``__post_init__``, as for a frozen dataclass.
Construction, immutability, equality, hashing and repr come from the plain
methods here, with no code generated per class.
"""

from typing import Any


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass keeps its parent's fields and appends those it annotates
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        positional = dict(zip(self._fields, args))
        values = {**self._defaults, **positional, **kwargs}
        if len(args) > len(self._fields) or positional.keys() & kwargs or values.keys() != set(self._fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {', '.join(self._fields)}; got "
                f"{len(args)} positional and the keywords {', '.join(kwargs) or 'none'}"
            )
        for field in self._fields:
            object.__setattr__(self, field, values[field])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks on the fields, run once all are set."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
