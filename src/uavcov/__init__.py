"""Coverage analysis of a ground user in a finite 3D mobile aerial network.

Coverage probability under Nakagami fading and mixed vertical waypoint /
spatial random-walk interferer mobility, from the Laplace transform of the
interference by a Gauss-Legendre kernel over the closed-form distance laws,
together with a Monte Carlo simulator that acts as the independent
end-to-end oracle.  The paper's hypergeometric closed form (exponent 2) is
the kernel's oracle in uavcov.special, which this package does not import.
"""

from .config import (
    FadingConfig,
    MobilityConfig,
    NetworkConfig,
    derive_stay_probability,
    resolve_fading_bands,
)
from .coverage import Sweep, coverage_sweep
from .distributions import AltitudeDistribution, DistanceDistribution
from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    NumericalError,
    UnsupportedGeometryError,
)
from .interference import laplace_jets
from .simulator import (
    CampaignResult,
    UavState,
    advance,
    default_psi_grid,
    initial_state,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "AltitudeDistribution",
    "CampaignResult",
    "ConfigurationError",
    "ConsistencyError",
    "DistanceDistribution",
    "DomainError",
    "FadingConfig",
    "MobilityConfig",
    "NetworkConfig",
    "NumericalError",
    "Sweep",
    "UavState",
    "UnsupportedGeometryError",
    "advance",
    "coverage_sweep",
    "default_psi_grid",
    "derive_stay_probability",
    "initial_state",
    "laplace_jets",
    "resolve_fading_bands",
    "run_campaign",
    "__version__",
]
