import pytest

import physbc.pipeline


@pytest.fixture(autouse=True)
def fresh_safety_memo():
    """Each test starts and ends with no empirical check remembered by ``pipeline.run``."""
    physbc.pipeline._safety_memo.clear()
    yield
    physbc.pipeline._safety_memo.clear()
