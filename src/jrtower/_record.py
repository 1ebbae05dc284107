"""Immutable value records: the part of frozen dataclasses jrtower uses.

A subclass lists its fields as class annotations, with optional
defaults. Each subclass gets one compiled __init__ that sets the fields
in order with object.__setattr__ and then calls __post_init__ when the
class defines one (which may still set a field the same way). Set one
by one, the fields stay in the instance's inline values, as a frozen
dataclass's do; one new __dict__ per record would double its size.
Instances are frozen, compare equal when of the same class with equal
fields, hash over their field values in order, and repr with their
fields in declaration order. Importing `dataclasses` instead costs
`inspect`, `ast` and `dis`, and six compiled methods per class.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = []
        for name in names:
            if name in cls.__dict__:
                default = cls.__dict__[name]
                if type(default).__hash__ is None:
                    raise ValueError(f"mutable default {type(default).__name__} "
                                     f"for field {name!r}")
                defaults.append(default)
            elif defaults:
                raise TypeError(f"non-default field {name!r} follows a default field")
        lines = [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        source = f"def __init__(self, {', '.join(names)}):\n" + "\n".join(lines)
        namespace = {"_set": object.__setattr__}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(defaults) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"
