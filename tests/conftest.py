from dataclasses import replace

import pytest

import physbc.pipeline
from physbc.cli import REFERENCE_RESULTS, reference_config
from physbc.pipeline import run


@pytest.fixture(autouse=True)
def fresh_pipeline_memos():
    """Each test starts and ends with no empirical check and no dataset
    remembered by ``pipeline.run``."""
    for memo in (physbc.pipeline._safety_memo, physbc.pipeline._dataset_memo):
        memo.clear()
    yield
    for memo in (physbc.pipeline._safety_memo, physbc.pipeline._dataset_memo):
        memo.clear()


@pytest.fixture(scope="session")
def reference_runs():
    """``(config, certificate, report)`` of the eight reference settings at scale 1.0."""
    runs = {}
    for key in REFERENCE_RESULTS:
        config = reference_config(key)
        artifacts = run(config)
        runs[key] = config, artifacts.certificate, artifacts.report
    return runs


@pytest.fixture(scope="session")
def smoke_runs():
    """The same at scale 0.05, with the HiGHS cross-check on."""
    runs = {}
    for key in REFERENCE_RESULTS:
        config = reference_config(key, scale=0.05)
        config = replace(config, solver=replace(config.solver, cross_check=True))
        artifacts = run(config)
        runs[key] = config, artifacts.certificate, artifacts.report
    return runs
