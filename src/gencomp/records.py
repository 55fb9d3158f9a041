"""The read-only guard shared by gencomp's value records.

The small classes that hold the paper's objects (gap rules, reals, dyadic
blocks, elements of the universal relation, ...) are plain `__slots__`
classes with hand-written `__init__`s, so importing gencomp generates no
methods.  The read-only ones derive from `Frozen`: their `__init__` sets
each field once with `object.__setattr__`, and any later assignment or
deletion raises AttributeError.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
