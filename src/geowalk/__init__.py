"""Geodesic random walks on curved spaces: sampling, annealing, diagnostics.

The pieces compose bottom-up: a :class:`Manifold` provides exponential maps
and tangent Gaussians, a :class:`ConvexBody` restricts the walk, the walk
module runs lazy and Metropolis-filtered chains, the anneal module cools a
Gibbs target down to a near-minimizer, and the diagnostics module checks
the inequalities the guarantees rest on.

The package republishes each layer module's public names.  A module's
``__all__`` is the one place a public name is declared (``errors`` has
none: its public names are its exception and warning classes).
"""

from .anneal import *
from .bodies import *
from .diagnostics import *
from .errors import *
from .manifolds import *
from .quadrature import *
from .rng import *
from .targets import *
from .walk import *

__version__ = "0.1.0"
