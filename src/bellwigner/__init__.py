"""Bell/Wigner inequality verification lab.

Exact +-1 data-set inequality identities, closed-form entangled-pair
probabilities with the conditional third-pair construction, seeded Monte
Carlo samplers, and angle-grid sweeps contrasting the conditional (PAPER)
and substituted (NAIVE) evaluations.

Each exported name is imported from its submodule on first use, so that
`import bellwigner` (and the command line's argument parsing) does not load
numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "bell_correlation": "analytic",
    "bell_margin": "analytic",
    "half_angle_factor": "analytic",
    "joint_probability": "analytic",
    "third_correlation": "analytic",
    "third_pair_probabilities": "analytic",
    "wigner_margin": "analytic",
    "wigner_slack": "analytic",
    "TOLERANCE": "core",
    "AngleConfig": "core",
    "AngleConvention": "core",
    "ConvergenceRecord": "core",
    "DataSetQuad": "core",
    "DataSetTriple": "core",
    "EmptyDataError": "core",
    "InequalityKind": "core",
    "InequalityReport": "core",
    "JointProbabilities": "core",
    "LengthMismatchError": "core",
    "Mode": "core",
    "PatternCounts": "data_inequality",
    "data_bell_margin_3": "data_inequality",
    "data_bell_margin_4": "data_inequality",
    "InsufficientMatchesError": "sampler",
    "convergence_study": "sampler",
    "make_rng": "sampler",
    "matched_pairs_estimate": "sampler",
    "sample_dataset": "sampler",
    "VIOLATION_THRESHOLD": "sweep",
    "SweepResult": "sweep",
    "grid_angles": "sweep",
    "grid_sweep": "sweep",
    "iter_records": "sweep",
    "violation_census": "sweep",
    "write_records_csv": "sweep",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from bellwigner import sampler`
    # goes on to import the submodule
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
