"""Numerical laboratory for the linear Ostrovsky propagator.

Spectral profiles on uniform frequency grids, the unimodular dispersive
propagator exp(i*t*(xi^3 +/- 1/xi)) with a phase-resolution guard,
dyadic and unit-window frequency decompositions, deterministic estimate
checks over a profile corpus, maximal-function scaling experiments, and
counter-based Gaussian randomization studies.

The package namespace is the union of the public names (``__all__``) of
its six library modules.
"""

__version__ = "0.1.0"

from . import corpus, lemmas, randomized, rough, spectral, windows
from .corpus import *  # noqa: F403
from .lemmas import *  # noqa: F403
from .randomized import *  # noqa: F403
from .rough import *  # noqa: F403
from .spectral import *  # noqa: F403
from .windows import *  # noqa: F403

__all__ = (corpus.__all__ + lemmas.__all__ + randomized.__all__ + rough.__all__
           + spectral.__all__ + windows.__all__)
