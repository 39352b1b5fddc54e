"""Range-based relative transform estimation.

Estimates the 4-DoF transform (3D translation + heading) between two
agents' local odometry frames from inter-agent range measurements, with
a Fisher-information analysis layer and a Monte-Carlo evaluation harness.
"""

from .estimators import (
    EstimateReport,
    QcqpProblem,
    WindowTrack,
    align_target_trajectory,
    assemble_qcqp,
    nls_estimate,
    qcqp_estimate,
    sdp_estimate,
    sliding_window_estimate,
    solve_sdp_relaxation,
)
from .fisher import (
    FimArrays,
    SingularityFlags,
    confidence_intervals,
    det_fim_geometric,
    fim,
    fim_arrays,
)
from .geometry import (
    LeverArm,
    Transform4DoF,
    apply_transform,
    heading_rotation,
    interpolate_quats,
    quat_to_matrix,
    wrap_angle,
)
from .measurement import (
    ODOMETRY_DTYPE,
    RANGE_DTYPE,
    SquaredStats,
    SyncedDataset,
    SyncedStack,
    debias_squared,
    ingest_logs,
    odometry_log,
    poses_at,
    range_log,
    range_rate_outliers,
    true_range,
)
from .simulation import (
    DriftConfig,
    ErrorStats,
    ScenarioConfig,
    drift_scenario,
    generate_trajectory,
    monte_carlo_run,
    sample_ground_truth,
    singular_scenario,
    synthesize_measurements,
)
from .solvers import SolveDiagnostics, sdp_solve

__version__ = "0.1.0"
