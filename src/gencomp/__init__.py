"""gencomp: a finitary workbench for density-1 computability constructions.

Exact rational density and gap combinatorics over dyadic blocks, bit
codings recoverable from dense partial descriptions, a staged universal
reflexive relation, enumeration operators compiled from stage machines,
and a replayable diagonalization engine with pluggable path selectors and
opponent enumerators.

Import names from their modules (`from gencomp.diagonal import
run_construction`); the package itself re-exports only `prefix_density`.
The modules that only some commands run are registered lazily: each is in
`sys.modules` and on the package from the start, but its code runs on first
attribute access.  So a
diagonal command never compiles `codings`, `enumops`, `reals`, `relations`
or `scenarios`, and no other scenario compiles `diagonal` or `adversaries`.
`adversaries` imports `diagonal` eagerly, since no command runs an opponent
without the engine.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .density import prefix_density  # noqa: F401


def _lazy(name):
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


adversaries, codings, diagonal, enumops, reals, relations, scenarios = map(
    _lazy, ("adversaries", "codings", "diagonal", "enumops", "reals", "relations", "scenarios")
)

__version__ = "0.1.0"
