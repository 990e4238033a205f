"""Biquaternionic electro-gravimagnetic field dynamics on periodic grids.

The package models a complex field strength A = sqrt(eps) E + i sqrt(mu) H and
a complex charge-current Theta = i rho + J as parts of biquaternions, evolves
them with the gradient operators D+- = d/dtau +- i nabla, and measures the
conservation laws the continuous model promises: charge balance, the Poynting
law, the current-energy first law, interaction energy exchange, integral
identities over sub-boxes, and jump relations on light-speed fronts.

Each module's ``__all__`` is the one list of its public names; the package
exports all of them.
"""

from . import biquaternion, diagnostics, evolution, fields, operators, runner, scenario, selftest, shock
from .biquaternion import *  # noqa: F403
from .fields import *  # noqa: F403
from .operators import *  # noqa: F403
from .evolution import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .shock import *  # noqa: F403
from .scenario import *  # noqa: F403
from .runner import *  # noqa: F403
from .selftest import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (biquaternion, fields, operators, evolution, diagnostics, shock,
                               scenario, runner, selftest) for name in module.__all__]
__all__.append("__version__")
