import pytest

import physbc.pipeline


@pytest.fixture(autouse=True)
def fresh_pipeline_memos():
    """Each test starts and ends with no empirical check and no dataset
    remembered by ``pipeline.run``."""
    for memo in (physbc.pipeline._safety_memo, physbc.pipeline._dataset_memo):
        memo.clear()
    yield
    for memo in (physbc.pipeline._safety_memo, physbc.pipeline._dataset_memo):
        memo.clear()
