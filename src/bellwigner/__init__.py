"""Bell/Wigner inequality verification lab.

Exact +-1 data-set inequality identities, closed-form entangled-pair
probabilities with the conditional third-pair construction, seeded Monte
Carlo samplers, and angle-grid sweeps contrasting the conditional (PAPER)
and substituted (NAIVE) evaluations.
"""

from .analytic import (
    bell_correlation,
    bell_margin,
    half_angle_factor,
    joint_probability,
    third_correlation,
    third_pair_probabilities,
    wigner_margin,
    wigner_slack,
)
from .core import (
    TOLERANCE,
    AngleConfig,
    AngleConvention,
    ConvergenceRecord,
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    InequalityKind,
    InequalityReport,
    JointProbabilities,
    LengthMismatchError,
    Mode,
)
from .data_inequality import (
    ExactCorrelation,
    PatternCounts,
    cross_correlation,
    data_bell_margin_3,
    data_bell_margin_4,
    quad_brackets,
)
from .sampler import (
    InsufficientMatchesError,
    convergence_study,
    make_rng,
    matched_pairs_estimate,
    sample_dataset,
)
from .sweep import (
    VIOLATION_THRESHOLD,
    SweepResult,
    grid_angles,
    grid_sweep,
    iter_records,
    violation_census,
    write_records_csv,
)

__version__ = "0.1.0"
