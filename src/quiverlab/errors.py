"""Exception types and the value-record base shared across the package."""

from operator import attrgetter


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its step, degree, or size budget.

    Distinct from a negative result: the computation was cut off before it
    could decide.
    """


class VerificationError(RuntimeError):
    """An internal cross-check failed on data that was expected to be valid."""


class Record:
    """An immutable value, compared, hashed and shown by the fields ``_fields`` names.

    A plain record writes ``__slots__ = _fields = (...)`` and is built from
    its field values in that order.  Instances of two record classes never
    compare equal.  ``Arrow``, ``Path`` and ``Mat`` write out ``__eq__`` and
    ``__hash__``: on their hot paths ``attrgetter`` is slower.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
