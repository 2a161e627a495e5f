"""Joint angle and delay estimation for fading multipath array channels.

Synthesizes snapshots of a known keyed raised-cosine pulse arriving at a
uniform linear array over several randomly faded paths, then estimates
each path's angle of arrival (spatial-lag correlation + matrix pencil,
Hua & Sarkar 1990) and time delay (beamforming + a delay periodogram over
all snapshots, the delay half of RELAX, Li & Stoica 1996).
"""

__version__ = "0.1.0"

from .exceptions import EstimationError, JadeError, ValidationError
from .pulse import PulseConfig, generate_pulse, spectrum
from .channel import (
    ArrayConfig,
    FadingModel,
    PathParam,
    SnapshotSet,
    load_dataset,
    save_dataset,
    steering_vector,
    synthesize,
)
from .correlation import CorrelationSequence, estimate_correlation, select_band
from .prony import ModeEstimate, PronyConfig, svd_prony
from .delay import DelayEstimate, beamform, fit_delay
from .pipeline import (
    MonteCarloReport,
    RunReport,
    ScenarioConfig,
    default_scenario,
    monte_carlo,
    run_pipeline,
    scenario_from_dict,
)

__all__ = [
    "__version__",
    "JadeError",
    "ValidationError",
    "EstimationError",
    "PulseConfig",
    "generate_pulse",
    "spectrum",
    "ArrayConfig",
    "PathParam",
    "FadingModel",
    "SnapshotSet",
    "steering_vector",
    "synthesize",
    "save_dataset",
    "load_dataset",
    "CorrelationSequence",
    "select_band",
    "estimate_correlation",
    "PronyConfig",
    "ModeEstimate",
    "svd_prony",
    "DelayEstimate",
    "beamform",
    "fit_delay",
    "ScenarioConfig",
    "RunReport",
    "MonteCarloReport",
    "default_scenario",
    "run_pipeline",
    "monte_carlo",
    "scenario_from_dict",
]
