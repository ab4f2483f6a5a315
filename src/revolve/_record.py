"""Frozen value records: what revolve used of ``@dataclass(frozen=True)``,
without the start-up cost of importing ``dataclasses`` and ``inspect``.

``@record`` takes the class's own annotations, in order, as its fields; a
class attribute of the same name is a default, which every instance
shares, so it must be immutable.  The class gains ``__init__`` (which ends
by calling ``__post_init__`` if defined), a dataclass-style ``__repr__``,
``__eq__`` and ``__hash__`` over the field tuple within one class,
``__match_args__``, and a ``__setattr__``/``__delattr__`` that raise
``AttributeError``.  Only ``__init__`` is compiled per class, which keeps
construction as fast as a dataclass's.
"""

_MISSING = object()


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    scope = {"_set": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is not _MISSING:
            scope[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
    # object.__setattr__ gets past the frozen __setattr__, as a dataclass's
    # does; filling self.__dict__ would build faster but read slower after
    body.extend(f"  _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(body) or "  pass"),
         scope)
    for attr, value in (("__init__", scope["__init__"]), ("__repr__", _repr),
                        ("__eq__", _eq), ("__hash__", _hash),
                        ("__match_args__", names),
                        ("__setattr__", _frozen_setattr),
                        ("__delattr__", _frozen_delattr)):
        setattr(cls, attr, value)
    return cls
