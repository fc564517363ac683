"""Frozen value records: the part of dataclass(frozen=True) the package uses, without importing dataclasses
(which imports inspect, and builds each class with six exec calls).

@record reads a class's annotated fields, a base record's first (a redeclared field keeps its place), and
gives the class an __init__ that sets them in order, takes class attributes as trailing defaults and calls
__post_init__ last where the class has one; __eq__ and __hash__ over the field values, equal only within
one class; the repr Name(field=value!r, ...); and __setattr__ and __delattr__ that raise
FrozenInstanceError.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__record_fields__)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__record_fields__)})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple({**dict.fromkeys(getattr(cls, "__record_fields__", ())), **cls.__dict__.get("__annotations__", {})})
    defaults = tuple(getattr(cls, name) for name in names if hasattr(cls, name))
    if any(hasattr(cls, name) for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    lines = [f"def __init__(self, {', '.join(names)}):", *(f" _set(self, {n!r}, {n})" for n in names)]
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec("\n".join(lines), namespace)  # compiled once per class, as dataclasses does
    init = namespace["__init__"]
    init.__defaults__, init.__qualname__ = defaults or None, f"{cls.__qualname__}.__init__"
    cls.__record_fields__, cls.__init__, cls.__eq__, cls.__hash__ = names, init, _eq, _hash
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    return cls
