"""The base of the package's immutable value classes.

A value class names its fields, its constructor's parameters in order, in
``_fields`` and keeps them in slots, with any memos in further slots.  It
behaves as a frozen dataclass of those fields would, without the cost of
building one: importing ``dataclasses`` also loads ``inspect`` and ``ast``,
and each dataclass compiles its methods from source at import.

Equality and hash are derived from ``_fields`` once per class, when it is
defined, so no class writes its own.  The constructor is derived from
``_fields`` too, and takes every field.  Eleven classes keep their own
constructor.  Three are built on hot paths
and write through their slot descriptors' setters: ``words.Word`` (about
1,600 per exact-sequence operation), ``sequence.EductionImage`` (182 per
operation) and ``model.Assignment`` (5,184 per census set-up).  Eight
check or derive their fields: ``model.HomeoType``,
``model.PrimeDecomposition``, ``sequence.SpottedMarking``, the four
oracles and ``oracles.OracleAut``.
"""

from operator import attrgetter


class Value:
    """An immutable value of the fields named in ``_fields``.

    Equality holds only between instances of one class whose fields are
    equal (``NotImplemented`` against any other class), the hash is that
    of the fields' tuple, and the repr is the dataclass repr, so every
    comparison, hash order and printed form is the frozen dataclass's.
    The constructor takes the fields by position or by name and raises
    TypeError on a missing, unexpected, surplus or repeated argument.  Setting or deleting an attribute raises
    AttributeError: ``__init__`` and the memos write through the slot
    descriptors or ``object.__setattr__``.  Pickling and copying rebuild
    the value from its fields through ``__init__``, which checks them
    again and starts with no memo.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The fields in order from a call that is not one positional
        argument per field; TypeError unless it names each field once."""
        fields, given = cls._fields, dict(zip(cls._fields, args))
        bound = {**given, **kwargs}
        surplus = len(args) > len(fields) or given.keys() & kwargs
        if surplus or bound.keys() != set(fields):
            raise TypeError(
                f"{cls.__name__}({', '.join(fields)}) called with {len(args)} "
                f"positional arguments and the keywords {list(kwargs)}"
            )
        return [bound[name] for name in fields]

    def __init_subclass__(cls, **kwargs):
        """Derive ``_key``, ``__eq__`` and ``__hash__`` (unless the class
        defines one) from the class's own ``_fields``, if it names any."""
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if not fields:
            return
        key = attrgetter(*fields)

        def equal(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or key(self) == key(other)

        if len(fields) == 1:
            def hashed(self):
                return hash((key(self),))
        else:
            def hashed(self):
                return hash(key(self))

        cls._key = key
        cls.__eq__ = equal
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = hashed

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
        values = self._key(self)
        return self.__class__, values if len(self._fields) > 1 else (values,)
