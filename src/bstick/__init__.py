"""Broken-stick polygon probabilities: exact formulas, simulation, verification.

The package re-exports each module's ``__all__``, the one list of what that
module makes public.
"""

from . import exact, kernel, montecarlo, sticks, verify
from .exact import *  # noqa: F403
from .kernel import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .sticks import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*exact.__all__, *kernel.__all__, *montecarlo.__all__, *sticks.__all__,
           *verify.__all__, "__version__"]
