"""Interval reachability of neural-network controlled systems.

The library over-approximates reachable sets of nonlinear systems in
closed loop with feed-forward network controllers.  Open-loop dynamics are
embedded into a monotone system of doubled dimension via decomposition
functions; network outputs are bounded by interval or linear-relaxation
propagation; and a contraction-guided partition of the initial set decides
when and where to split boxes, decoupling network verification depth from
partition depth.
"""

from .intervals import (
    IntervalVector,
    ToleranceVector,
    interval_hull,
    matrix_measure_inf,
    uniform_divide,
    weighted_inf_norm,
)
from .networks import Layer, MLPNetwork
from .bounds import (
    DomainError,
    InclusionFunction,
    LinearBounds,
    crown_bounds,
    ibp_bounds,
    make_inclusion,
)
from .embedding import (
    ClosedLoopEmbedding,
    DiscreteLTIEmbedding,
    EmbeddingOrderError,
    OpenLoopSystem,
    build_tight_decomposition,
)
from .partition import (
    AlgorithmParams,
    ContinuousClosedLoopModel,
    DiscreteLTIModel,
    ReachTube,
    compute_reachable_set,
)
from .contraction import (
    ContractionEstimate,
    estimate_contraction,
    error_bound,
    composite_rate_bound,
)
from .systems import (
    DoubleIntegratorSystem,
    VehicleSystem,
    affine_system,
    get_system,
    register_system,
)
from .montecarlo import ContainmentReport, containment_check, sample_trajectories
from .volume import hull_volume, union_area_raster
from .config import ExperimentConfig, build_experiment, run_experiment

__version__ = "0.1.0"
