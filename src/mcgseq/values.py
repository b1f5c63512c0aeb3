"""The base of the package's immutable value classes.

A value class names its fields, its constructor's parameters in order, in
``_fields`` and keeps them in slots, with any memos in further slots.  It
behaves as a frozen dataclass of those fields would, without the cost of
building one: importing ``dataclasses`` also loads ``inspect`` and ``ast``,
and each dataclass compiles its methods from source at import.
"""


class Value:
    """An immutable value of the fields named in ``_fields``.

    Equality holds only between instances of one class whose fields' tuples
    are equal (``NotImplemented`` against any other class), the hash is that
    of the fields' tuple, and the repr is the dataclass repr, so every
    comparison, hash order and printed form is the frozen dataclass's.
    Setting or deleting an attribute raises AttributeError: ``__init__``
    and the memos write through the slot descriptors or
    ``object.__setattr__``.  Pickling and copying rebuild the value from
    its fields through ``__init__``, which checks them again and starts
    with no memo.

    The generic ``__eq__`` and ``__hash__`` here read the fields by name; a
    class compared or hashed on a hot path defines both on an explicit
    tuple of its fields instead.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the shortcut agrees: a tuple compares its items by identity first
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable {self.__class__.__name__}"
        )

    def __reduce__(self):
        return self.__class__, self._values()
