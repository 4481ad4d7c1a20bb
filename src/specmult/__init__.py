"""Joint spectral multipliers on truncated eigen-systems.

Finite models for multiplier calculus: Hermite/Ornstein-Uhlenbeck and
torus eigen-systems, Mellin-transform tooling with Marcinkiewicz norms
and decay fits, Littlewood-Paley square functions with exact L2
constants, Laplace-transform-type multipliers with their Mehler-kernel
realizations, local/global operator splits with kernel-estimate audits,
and a fibered Calderon-Zygmund decomposition.

The package namespace is the union of the library layers' ``__all__``.
"""

from . import dyadic, multipliers, ouhermite, products, spectral
from .dyadic import *  # noqa: F403
from .multipliers import *  # noqa: F403
from .ouhermite import *  # noqa: F403
from .products import *  # noqa: F403
from .spectral import *  # noqa: F403

__all__ = [
    name for layer in (spectral, ouhermite, multipliers, products, dyadic) for name in layer.__all__
]

__version__ = "0.1.0"
