"""Coverage analysis of a ground user in a finite 3D mobile aerial network.

Coverage probability under Nakagami fading and mixed vertical waypoint /
spatial random-walk interferer mobility, from the Laplace transform of the
interference by a Gauss-Legendre kernel over the closed-form distance laws,
together with a Monte Carlo simulator that acts as the independent
end-to-end oracle.  The paper's hypergeometric closed form (exponent 2) is
the kernel's oracle in uavcov.special, which this package does not import.

The package root exports only ``__version__`` and imports no module:
import each name from the module that defines it (``uavcov.config``,
``uavcov.coverage``, ``uavcov.simulator``, ...).
"""

__version__ = "0.1.0"
