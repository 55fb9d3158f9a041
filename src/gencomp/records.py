"""Leaf helpers that import no other gencomp module: the read-only guard
of gencomp's value records; `first_difference`, which names where a
trace file differs from its replay or a diagonal trace from its write-back
(so a scenario `verify`, which needs the former, never compiles `diagonal`);
and the report's `rational` and `verdict` entries, which `harness` and
`scenarios` both write (so neither imports the other for them).

The small classes that hold the paper's objects (gap rules, reals, dyadic
blocks, elements of the universal relation, ...) are plain `__slots__`
classes with hand-written `__init__`s, so importing gencomp generates no
methods.  The read-only ones derive from `Frozen`: their `__init__` sets
each field once with `object.__setattr__`, and any later assignment or
deletion raises AttributeError.
"""

import json
from math import gcd


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def first_difference(a, b, path: str = ""):
    """JSON path of the first place, in serialization order, where two
    JSON documents differ (such as `records[7].batches[1][1][0]`), or
    None when they serialize identically."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            at = "%s.%s" % (path, key) if path else key
            if key not in a or key not in b:
                return at
            found = first_difference(a[key], b[key], at)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, "%s[%d]" % (path, i))
            if found is not None:
                return found
        return None if len(a) == len(b) else "%s[%d]" % (path, min(len(a), len(b)))
    return None if json.dumps(a) == json.dumps(b) else path or "$"


def rational(num: int, den: int) -> dict:
    """The rational num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return {"num": num // g, "den": den // g}


def verdict(name, passed, **inputs):
    return {"invariant": name, "pass": bool(passed), "inputs": inputs}
