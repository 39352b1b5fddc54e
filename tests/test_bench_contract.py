"""The seams through which the benchmark (perfbench/) reaches the package.

The benchmark is frozen between benchmark changes, so a refactor that
breaks one of these seams must fail here, in tier-1, and not only in a
benchmark run.
"""

import numpy as np
import pytest

from range_rte import estimators, measurement
from range_rte.estimators import ESTIMATORS, assemble_qcqp
from range_rte.measurement import SyncedDataset
from range_rte.simulation import SCENARIO_KINDS, ScenarioConfig, singular_scenario, trial_data

# the benchmark's Monte-Carlo cell: d0 3 m, D 1 m, 20 poses, sigma_r 0.1 m, sigma_o 1 mm
BENCH_CELL = ScenarioConfig(d0=3.0, D=1.0, n_poses=20, sigma_r=0.1, sigma_o=0.001, trials=1, seed=0)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_qcqp_flags_every_singular_scenario(kind):
    # flagged_share: the dataset form of the qcqp entry, read through its report's flags
    for j in range(5):
        _, dataset = singular_scenario(kind, BENCH_CELL, np.random.default_rng(j))
        assert ESTIMATORS["qcqp"](dataset).flags.configuration_singular is True, (kind, j)


def test_trial_data_of_one_trial_is_a_dataset_whose_problem_is_unstacked():
    # the assemble span counts B.shape[0] of `assemble_qcqp` on a trial's dataset
    _, dataset = trial_data(ScenarioConfig(trials=1), 0)
    assert isinstance(dataset, SyncedDataset)
    assert assemble_qcqp(dataset).B.shape[0] == len(dataset)


def test_estimators_reads_debias_squared_by_name():
    # the tracer wraps debias_squared in every module namespace that holds it
    assert estimators.debias_squared is measurement.debias_squared
