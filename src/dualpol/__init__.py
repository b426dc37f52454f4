"""Dual-structured linear precoding for dual-polarized massive MIMO downlinks.

Numerical library and experiment runner covering: one-ring spatial
statistics, dual-polarized channel draws under imperfect CSIT, BD/BDS
precoding, exact SINR decompositions, random-matrix deterministic
equivalents, feedback-driven BD/BDS mode switching, and the 3D elevation
extension.
"""

from .corrstats import (
    GroupGeometry,
    MismatchStats,
    SpatialCovariance,
    elevation_covariance,
    eigendecompose,
    mismatch_effective_stats,
    one_ring_covariance,
)
from .channel import (
    GroupChannel,
    RngStream,
    draw_channel,
    draw_mismatched_channel,
)
from .errors import (
    DegenerateInputError,
    DualpolError,
    InfeasibleRegionError,
    InvalidConfigurationError,
    InvalidInputError,
    NonConvergenceError,
    NumericalError,
)
from .metrics import McSummary, SinrReport, run_paired, sinr_bd, sinr_bds
from .modeswitch import FeedbackBudget, switch_threshold_bits, tau_from_bits
from .precode import (
    InnerPrecoder,
    Preprocessor,
    PrecoderSet,
    bd_preprocessor,
    build_all,
    rzf_precoder,
)
from .rmt import (
    AsymptoticSolution,
    FixedPointProblem,
    approx_bds_chi,
    asym_bd,
    asym_bds,
    asym_sweep,
    bds_c0,
    solve_fixed_point,
)
from .scenario import GroupScenario, SweepPoint, make_scenario
from .scene3d import (
    ElevationRegion,
    Scenario3D,
    elevation_prefilter,
    make_scenario_3d,
    reduce_to_2d,
    run_3d_paired,
)

__version__ = "0.1.0"
