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
names (PEP 562): a name loads its module and the numerical modules before
it in the order operators, effects, frames, augmented, cones, and no
later one, so state reconstruction never loads the certificate modules.
Those names are looked up in their module on every access and never
stored here, so a name rebound in its module (by a tracer or a test
double) is seen through the package as well.  ``__all__``, ``dir()`` and
a star import load every module.
"""

import importlib
from functools import lru_cache

from . import cauchy
from .cauchy import *  # noqa: F401,F403

__version__ = "0.1.0"

_NUMERICAL = ("operators", "effects", "frames", "augmented", "cones")


def _numerical_modules():
    """The numerical modules in `_NUMERICAL` order, each imported when reached."""
    return (importlib.import_module(f".{name}", __name__) for name in _NUMERICAL)


@lru_cache(maxsize=None)
def _module_of(name: str):
    """The numerical module whose ``__all__`` holds `name`, or None.

    Imports modules in `_NUMERICAL` order only up to the one defining the
    name; an unknown name imports them all.
    """
    return next((m for m in _numerical_modules() if name in m.__all__), None)


def __getattr__(name: str):
    # `from effectframes import cli` asks for the name before importing it.
    if name in _NUMERICAL or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return [*(n for m in _numerical_modules() for n in m.__all__), *cauchy.__all__]
    if not name.startswith("_"):
        module = _module_of(name)
        if module is not None:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_NUMERICAL, *__getattr__("__all__")})
