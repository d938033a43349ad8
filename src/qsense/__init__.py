"""Frequency estimation of a harmonic mode through a pulsed qubit probe.

The qubit dephases through a longitudinal coupling to the oscillator;
a periodic echo sequence turns the accumulated phase-space displacement
into an interference pattern whose fringes are spaced by the inverse
total time. `model` builds the displacement and the outcome statistics,
`information` provides the Fisher-information bounds and the comparison
against free evolution, `estimation` holds the gridded Bayesian update,
`protocol` implements the two-stage adaptive schedule, and `simkit` and
`cli` wrap the lot in ensemble runners and a command-line interface.

The package exports every module's `__all__`, and nothing else.
"""

from . import estimation, information, model, protocol, runconfig, simkit
from .estimation import *  # noqa: F401,F403
from .information import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .runconfig import *  # noqa: F401,F403
from .simkit import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (estimation, information, model, protocol, runconfig, simkit)
           for name in module.__all__]
