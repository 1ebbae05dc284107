"""Immutable value records: the part of frozen dataclasses jrtower uses.

A subclass lists its fields as class annotations, with optional
defaults. The metaclass turns the annotations into the class's
__slots__, pops the defaults into one compiled __init__, and compiles a
_values method that returns the fields as a tuple in order. __init__
sets each field through its slot descriptor's __set__, which skips the
frozen __setattr__, and then calls __post_init__ when the class defines
one (which may still set a field with object.__setattr__). Instances
are frozen, compare equal when of the same class with equal fields,
hash over their field values in order, repr with their fields in
declaration order, and pickle and copy by (class, field values).

A field without a default after one with a default raises TypeError at
class creation, and so does a record without fields or a subclass of a
record that has fields, which would otherwise drop them.

A record keeps no __dict__; README's "Start-up cost" gives what that
and the compiled __init__ save over frozen dataclasses.
"""


class _RecordMeta(type):
    def __new__(mcls, name, bases, namespace):
        for base in bases:
            if isinstance(base, _RecordMeta) and getattr(base, "_fields", ()):
                raise TypeError(f"{name} subclasses the record {base.__name__}, "
                                "which has fields")
        names = tuple(namespace.get("__annotations__", {}))
        defaults = []
        for field in names:
            if field in namespace:
                default = namespace.pop(field)
                if type(default).__hash__ is None:
                    raise ValueError(f"mutable default {type(default).__name__} "
                                     f"for field {field!r}")
                defaults.append(default)
            elif defaults:
                raise TypeError(f"non-default field {field!r} follows a default field")
        if bases and not names:
            raise TypeError(f"record {name} has no fields")
        namespace["__slots__"] = names
        cls = super().__new__(mcls, name, bases, namespace)
        if not bases:
            return cls
        setters = {f"_set_{i}": getattr(cls, field).__set__ for i, field in enumerate(names)}
        lines = [f"    _set_{i}(self, {field})" for i, field in enumerate(names)]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        values = "".join(f"self.{field}, " for field in names)
        source = (f"def __init__(self, {', '.join(names)}):\n" + "\n".join(lines)
                  + f"\ndef _values(self):\n    return ({values})")
        exec(source, setters)
        init = setters["__init__"]
        init.__defaults__ = tuple(defaults) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = names
        cls._values = setters["_values"]
        return cls


class Record(metaclass=_RecordMeta):
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
