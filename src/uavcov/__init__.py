"""Coverage analysis of a ground user in a finite 3D mobile aerial network.

Closed-form coverage probability under Nakagami fading and mixed vertical
waypoint / spatial random-walk interferer mobility, together with a Monte
Carlo simulator that acts as the independent end-to-end oracle.
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
    default_psi_grid,
    initial_state,
    run_campaign,
    sample_snapshot,
    step,
)
from .special import hyp2f1, pochhammer

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
    "coverage_sweep",
    "default_psi_grid",
    "derive_stay_probability",
    "hyp2f1",
    "initial_state",
    "laplace_jets",
    "pochhammer",
    "resolve_fading_bands",
    "run_campaign",
    "sample_snapshot",
    "step",
    "__version__",
]
