"""Shared fixtures: the benchmark configuration and a calibration table
built once per session from relaxed-acceptance pre-sample runs."""

from dataclasses import replace

import pytest

from kerv import harness
from kerv.config import default_config
from kerv.threshold import DEFAULT_GRID, calibrate

PRE_SAMPLE_TRIALS = 8


@pytest.fixture(scope="session")
def bench_cfg():
    return default_config()


@pytest.fixture(scope="session")
def pre_sample():
    return list(harness.pre_sample(replace(default_config(PRE_SAMPLE_TRIALS), fixed_r=15.0)))


@pytest.fixture(scope="session")
def calib_table(pre_sample):
    return calibrate(pre_sample, DEFAULT_GRID)
