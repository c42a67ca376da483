import threading

import pytest

from taskhg.schedule import THREAD_NAME_PREFIX


@pytest.fixture(autouse=True)
def no_step_thread_outlives_the_test():
    # A training stage joins its worker when it ends, whether it returns
    # or raises; a worker left running would race the next test.
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(THREAD_NAME_PREFIX)]
    if alive:
        pytest.fail(f"step threads still alive after the test: {alive}")
