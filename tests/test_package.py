"""The package's exported names load from their submodules on first use."""

import importlib

import pytest

import bellwigner

EXPORTS = {
    "analytic": (
        "bell_correlation",
        "bell_margin",
        "half_angle_factor",
        "joint_probability",
        "third_correlation",
        "third_pair_probabilities",
        "wigner_margin",
        "wigner_slack",
    ),
    "core": (
        "TOLERANCE",
        "AngleConfig",
        "AngleConvention",
        "ConvergenceRecord",
        "DataSetQuad",
        "DataSetTriple",
        "EmptyDataError",
        "InequalityKind",
        "InequalityReport",
        "JointProbabilities",
        "LengthMismatchError",
        "Mode",
    ),
    "data_inequality": ("PatternCounts", "data_bell_margin_3", "data_bell_margin_4"),
    "sampler": (
        "InsufficientMatchesError",
        "convergence_study",
        "make_rng",
        "matched_pairs_estimate",
        "sample_dataset",
    ),
    "sweep": (
        "VIOLATION_THRESHOLD",
        "SweepResult",
        "grid_angles",
        "grid_sweep",
        "iter_records",
        "violation_census",
        "write_records_csv",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_exported_names():
    assert sorted(bellwigner.__all__) == sorted(name for _, name in NAMES)
    assert len(bellwigner.__all__) == 35


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(bellwigner, name) is getattr(importlib.import_module(f"bellwigner.{module}"), name)


def test_dir_and_star_import_cover_every_name():
    namespace = {}
    exec("from bellwigner import *", namespace)
    assert set(bellwigner.__all__) <= set(dir(bellwigner))
    assert set(bellwigner.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellwigner.no_such_name


def test_import_loads_no_numpy_until_a_name_is_used(python):
    code = (
        "import sys, bellwigner\n"
        "print('numpy' in sys.modules, 'bellwigner.core' in sys.modules)\n"
        "bellwigner.AngleConfig\n"
        "print('numpy' in sys.modules, 'bellwigner.core' in sys.modules)\n"
    )
    assert python(code).split() == ["False", "False", "True", "True"]


def test_submodules_import_through_the_package(python):
    # in a fresh interpreter none of them is loaded yet, so each name misses
    # the export table and falls through to the submodule import
    code = (
        "import types\n"
        "from bellwigner import cli, datafile, sampler, sweep\n"
        "from bellwigner.cli import read_outcome_csv, write_triples_csv\n"
        "print(all(isinstance(m, types.ModuleType) for m in (cli, datafile, sampler, sweep)))\n"
        "print(read_outcome_csv is datafile.read_outcome_csv, write_triples_csv is datafile.write_triples_csv)\n"
    )
    assert python(code).split() == ["True", "True", "True"]
