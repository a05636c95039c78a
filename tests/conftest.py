"""Shared fixtures: the benchmark configuration and a calibration table
built once per session from relaxed-acceptance pre-sample runs."""

from dataclasses import replace

import pytest

from kerv.config import default_config
from kerv.harness import run_one_episode
from kerv.threshold import DEFAULT_GRID, calibrate

PRE_SAMPLE_TRIALS = 8


@pytest.fixture(scope="session")
def bench_cfg():
    return default_config()


@pytest.fixture(scope="session")
def pre_sample(bench_cfg):
    pre_cfg = replace(bench_cfg, fixed_r=15.0)
    traces = []
    for suite in bench_cfg.suites:
        traces.extend(
            run_one_episode(pre_cfg, suite, "fixed_relaxed", trial, None)
            for trial in range(PRE_SAMPLE_TRIALS)
        )
    return traces


@pytest.fixture(scope="session")
def calib_table(pre_sample):
    return calibrate(pre_sample, DEFAULT_GRID)
