"""Effect algebras, operator frames, and exact additive-function models.

The package builds finite-dimensional effect spaces (Hermitian operators
with spectrum in [0, 1]), augmented operator bases obtained by scaling a
family of d^2 rank-one projectors, informationally complete POMs, and the
frame functions that live on them.  It certifies that the positive cones
spanned by two such families intersect in a full-dimensional set, carries
out linear-algebraic state reconstruction from frame values, and, in a
purely exact-arithmetic corner, studies additive functions on rational
grids and on the field of numbers p + q*sqrt(2), where non-linear additive
functions are explicitly representable and refutable witnesses for their
unboundedness come from Pell's equation.

Each module's ``__all__`` is the single list of its public names; the
package re-exports all of them.  The exact corner (`cauchy`) is loaded with
the package and needs only the standard library.  The five numerical
modules load numpy, so they are imported on the first use of one of their
names (PEP 562).  Those names are looked up in their module on every
access and never stored here, so a name rebound in its module (by a
tracer or a test double) is seen through the package as well.
"""

import importlib
from functools import lru_cache

from . import cauchy
from .cauchy import *  # noqa: F401,F403

__version__ = "0.1.0"

_NUMERICAL = ("operators", "effects", "augmented", "cones", "frames")


@lru_cache(maxsize=None)
def _numerical_names() -> dict:
    """Public name -> defining module, over the numerical modules."""
    modules = [importlib.import_module(f".{name}", __name__) for name in _NUMERICAL]
    return {name: module for module in modules for name in module.__all__}


def __getattr__(name: str):
    if name in _NUMERICAL:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return [*_numerical_names(), *cauchy.__all__]
    if not name.startswith("_"):
        module = _numerical_names().get(name)
        if module is not None:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_NUMERICAL, *_numerical_names()})
