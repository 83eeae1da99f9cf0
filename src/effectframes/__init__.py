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
package re-exports all of them.
"""

from . import augmented, cauchy, cones, effects, frames, operators
from .operators import *  # noqa: F401,F403
from .effects import *  # noqa: F401,F403
from .augmented import *  # noqa: F401,F403
from .cones import *  # noqa: F401,F403
from .frames import *  # noqa: F401,F403
from .cauchy import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *operators.__all__,
    *effects.__all__,
    *augmented.__all__,
    *cones.__all__,
    *frames.__all__,
    *cauchy.__all__,
]
